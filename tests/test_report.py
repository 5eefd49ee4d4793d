"""Argument checks and the table writer shared by every module."""

import math

import numpy as np
import pytest

from racsim import ProtocolSpec, TrialConfig, closed_form_full, encode_restricted, report
from racsim.qudit import root_of_unity

HUGE = 10**5000  # past the 4,300 digits Python writes an int in


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: root_of_unity(HUGE), id="root_of_unity"),
        pytest.param(lambda: closed_form_full(HUGE), id="closed_form_full"),
        pytest.param(lambda: ProtocolSpec(5, HUGE), id="ProtocolSpec-d_prime"),
        pytest.param(lambda: TrialConfig(1, HUGE), id="TrialConfig-seed"),
        pytest.param(lambda: encode_restricted(ProtocolSpec(HUGE, 2), -1, 0), id="encode_restricted-bound"),
    ],
)
def test_huge_values_and_bounds_are_named_by_size(call):
    size = "an integer of 16610 bits"
    with pytest.raises(ValueError, match=rf"must be in \d+\.\.(\S+|{size}), got (-?\d+|{size})$") as exc:
        call()
    assert size in str(exc.value)


def test_ordinary_values_are_written_in_decimal():
    with pytest.raises(ValueError) as exc:
        ProtocolSpec(5, 7)
    assert str(exc.value) == "quantum dimension d_prime must be in 1..5, got 7"
    with pytest.raises(ValueError) as exc:
        TrialConfig(1, -(2**64))
    assert str(exc.value) == "seed must be in 0..18446744073709551615, got -18446744073709551616"


def test_huge_negative_values_keep_their_sign():
    with pytest.raises(ValueError) as exc:
        TrialConfig(1, -HUGE)
    assert str(exc.value) == "seed must be in 0..18446744073709551615, got a negative integer of 16610 bits"


def reference_rows(template, columns, float_text):
    """``template % row`` for each row, each float written by ``float_text`` and each integer by ``str``."""
    cells = [[float_text(v) if isinstance(v, float) else str(v) for v in np.asarray(c).tolist()] for c in columns]
    return "".join(template % row for row in zip(*cells))


I64 = np.iinfo(np.int64)


def seven_digits(v: float) -> str:
    return format(v, ".7g")


@pytest.mark.parametrize("float_text", [float.__repr__, seven_digits], ids=["repr", "7g"])
@pytest.mark.parametrize(
    "template, columns",
    [
        pytest.param("%s %s\n", [[0, 1, 2, 3], [0.0, -0.0, 0.0, -0.0]], id="signed-zeros"),
        pytest.param("%s,%s\n", [[5, 5, 5], [0.1, 0.1, 0.1]], id="repeated-values"),
        pytest.param("%s %s\n", [np.array([I64.max - 1, I64.max]), np.array([I64.min, I64.min + 1])],
                     id="int64-extremes-dense"),
        pytest.param("%s\n", [np.array([I64.min, 0, I64.max])], id="int64-extremes-sparse"),
        # offsets from the minimum up to 200 overflow int8, and 255 spans all of uint8
        pytest.param("%s %s\n", [np.arange(201, dtype=np.uint8)[::-1], np.arange(-100, 101, dtype=np.int8)],
                     id="int8-and-uint8"),
        pytest.param("%s\n", [np.arange(256, dtype=np.uint8)], id="uint8-full-range"),
        pytest.param("%4s|%11s|%%%s%%\n", [[1, 22, 333, 4444, 55555], [0.5, -1e-300, 3.25, 1e300, 2.0],
                                           [7, 8, 9, 10, 11]], id="widths-and-percent"),
        # byte-table rows (text, field of spaces, value field) of 16 bytes, and of 15 padded to 16
        pytest.param("%7s, %7s\n", [[1, 22, 333], [0.5, 2.25, 1e-300]], id="widths-at-16-bytes"),
        pytest.param("[%s, %s]", [[42], [1.5]], id="one-row"),
        pytest.param("x%s y%s\n", [np.arange(2 * report._CHUNK_ROWS + 3) % 97,
                                   np.arange(2 * report._CHUNK_ROWS + 3) / 7.0], id="chunks-and-a-rest"),
    ],
)
def test_text_rows_match_the_per_row_reference(template, columns, float_text):
    text = "".join(report.text_chunks(template, columns, float_text))
    assert text == reference_rows(template, columns, float_text)


@pytest.mark.parametrize(
    "column",
    [
        pytest.param([0.5, math.nan], id="nan"),
        pytest.param([math.inf, 0.5], id="inf"),
        pytest.param([-math.inf], id="-inf"),
        pytest.param([True, False], id="bool"),
        pytest.param(np.array([1, 2], dtype=object), id="object"),
        pytest.param([1j, 2.0], id="complex"),
    ],
)
def test_text_rows_refuse_other_columns(column):
    with pytest.raises(ValueError, match="must hold integers or finite floats"):
        "".join(report.text_chunks("%s\n", [column], repr))


@pytest.mark.parametrize(
    "template",
    [
        pytest.param("%s\n", id="fewer-fields"),
        pytest.param("%s %s %s\n", id="more-fields"),
        pytest.param("%%s %s\n", id="escaped-field"),
        pytest.param("%d %s\n", id="other-conversion"),
        pytest.param("%-4s %s\n", id="flag"),
        pytest.param("%s %s %\n", id="lone-percent"),
    ],
)
def test_text_rows_refuse_a_template_unlike_its_columns(template):
    with pytest.raises(ValueError, match="must hold one %s or %Ns field for each of its 2 columns"):
        "".join(report.text_chunks(template, [[1, 2], [0.5, 1.5]], repr))

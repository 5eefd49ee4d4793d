"""Argument checks shared by every module."""

import pytest

from racsim import ProtocolSpec, TrialConfig, closed_form_full, encode_restricted
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

"""Success bookkeeping, argument checks, the oracle's budget error and the writer of every table racsim prints."""

from __future__ import annotations

import functools
import math
import numbers
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

#: Rows :func:`text_chunks` gathers into each piece.
_CHUNK_ROWS = 1 << 12

#: Upper bound for a size the closed forms convert to float; past it they would raise OverflowError.
FLOAT_MAX = float(np.finfo(float).max)


class InfeasibleSearchError(ValueError):
    """Raised when the classical oracle's exhaustive search would exceed its multiset budget.
    ``required`` is the multiset count, or None when it may exceed ``classical._EXACT_BITS``;
    ``log10`` is its rounded log10.  Defined here, so the CLI can catch it without importing
    ``classical``, which re-exports it."""

    def __init__(self, required: int | None, budget: int, log10: int):
        self.required = required
        self.budget = budget
        # Python refuses to write an int of over 4,300 digits in decimal.
        size = str(required) if log10 < 4000 else f"about 10^{log10}"
        super().__init__(
            f"exhaustive search needs {size} column multisets, above the budget "
            f"of {budget}; pass allow_large=True to run it anyway"
        )


@dataclass(frozen=True, eq=False)
class SuccessReport:
    """Exact success statistics of one protocol instance.

    ``per_input`` holds the success probability for every (input string,
    question) cell; the last axis is the question index, the leading axes
    enumerate the dit string.  ``average`` is the mean over the uniform
    distribution of inputs and questions.  ``worst_case`` is the success of
    the least favourable input string, averaged over the uniform question.
    Each evaluator computes the two statistics itself and passes a function
    that makes the table; it runs on the first read of ``per_input``, whose
    result is kept.
    """

    average: float
    worst_case: float
    build_per_input: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if not callable(self.build_per_input):
            raise TypeError(f"build_per_input must be a function that makes the table, "
                            f"got {type(self.build_per_input).__name__}")

    @functools.cached_property
    def per_input(self) -> np.ndarray:
        return self.build_per_input()


def check_int(value, name: str, low: int | None = None, high: float | None = None) -> int:
    """``value`` as a Python int, after checking it is an integer in low..high.

    Python and numpy integers are accepted; ``bool`` and every other type are
    rejected with ``ValueError``, as is a value outside the range (``high``
    None leaves it open above; with ``low`` None too, only the type is checked).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {_shown(low)}" if high is None else f"in {_shown(low)}..{_shown(high)}"
        raise ValueError(f"{name} must be {bounds}, got {_shown(value)}")
    return int(value)


def _shown(v) -> str:
    """``v`` as str() writes it, or its size past 10,000 bits: Python writes no int of over 4,300 digits."""
    big = isinstance(v, int) and v.bit_length() > 10_000
    return f"{'a negative' if v < 0 else 'an'} integer of {v.bit_length()} bits" if big else str(v)


def check_weight(w, name: str) -> None:
    """Reject ``w`` with ``ValueError`` unless it is a finite nonnegative real number (not bool)."""
    if isinstance(w, bool) or not isinstance(w, numbers.Real) or not (math.isfinite(w) and w >= 0):
        raise ValueError(f"{name} must be finite nonnegative real numbers, got {w!r}")


def text_chunks(template: str, columns: list, float_text: Callable[[float], str]) -> Iterator[str]:
    """``template % row for row in zip(*columns)`` for one ``%s`` or ``%Ns`` field per column and
    ``%%`` literals, in pieces of ``_CHUNK_ROWS`` rows each, written as they are taken: a caller joins
    them, with more text or alone, or compares them with a text and may stop at the first that differs.
    Integers are written with ``str`` and finite float64 values with ``float_text``; any other template
    or column is refused with ``ValueError``.  Each column's distinct values are written once, each in
    its field with the text around it, into a byte table, and rows are gathered from the tables
    ``_CHUNK_ROWS`` at a time into a buffer of one fixed-width field per column."""
    # (text before, width, text after) of each field; the first field takes all the text before it
    fields = re.findall(r"((?:[^%]|%%)*)%(\d*)s((?:[^%]|%%)*)", template)
    if "".join(f"{b}%{w}s{a}" for b, w, a in fields) != template or len(fields) != len(columns):
        raise ValueError(f"{template!r} must hold one %s or %Ns field for each of its {len(columns)} columns")
    tables, indices = zip(*map(_value_table, columns, fields, [float_text] * len(columns)))
    count, row = len(indices[0]), np.dtype([("", table.dtype) for table in tables])
    cells = np.empty(min(count, _CHUNK_ROWS), row)
    for top in range(0, count, _CHUNK_ROWS):
        rows = cells[: count - top]
        for name, table, index in zip(row.names, tables, indices):
            rows[name] = table.take(index[top : top + _CHUNK_ROWS])
        yield rows.tobytes().translate(None, b"\0").decode()


def _value_table(column, field: tuple, float_text: Callable[[float], str]) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): row ``index[k]`` of the byte table, less its zero bytes, is ``column[k]``
    written in ``field``, the (text before, width, text after) of a ``%s`` or ``%Ns`` field."""
    column = np.asarray(column)
    ints = column.dtype.kind in "iu"
    if not ints and not (column.dtype == np.float64 and np.isfinite(column).all()):
        raise ValueError(f"a table column must hold integers or finite floats, got {column.dtype} values")
    # keyed by unsigned bits, so no offset from the minimum overflows and 0.0 and -0.0 stay apart
    bits = column.view(f"u{column.itemsize}")
    if ints and int(column.max()) - int(column.min()) < column.size:  # dense, as every caller's integers are
        values, index = range(int(column.min()), int(column.max()) + 1), bits - column.min().astype(bits.dtype)
    else:
        keys, index = np.unique(bits, return_inverse=True)
        values = keys.view(column.dtype).tolist()
    width, texts = int(field[1] or 0), np.array([*map(str if ints else float_text, values)], dtype="S")
    texts = texts.astype(f"S{max(width, texts.itemsize)}", copy=False).view(np.uint8).reshape(len(texts), -1)
    before, after = (np.frombuffer(text.replace("%%", "%").encode(), np.uint8) for text in field[::2])
    # a space for each byte a value falls short of its width; the rest of the field is zero bytes
    spaces = (texts[:, :width] == 0) * np.uint8(32)
    table = np.hstack([np.tile(before, (len(texts), 1)), spaces, texts, np.tile(after, (len(texts), 1))])
    if table.shape[1] < 16:  # rows of 2, 4, 8 or 16 bytes, which numpy copies a few times faster than others
        table = np.pad(table, ((0, 0), (0, (1 << (table.shape[1] - 1).bit_length()) - table.shape[1])))
    return table.view(f"S{table.shape[1]}").ravel(), index

"""Success bookkeeping and argument checks shared by every module."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: Upper bound for a size the closed forms convert to float; past it they would raise OverflowError.
FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class SuccessReport:
    """Exact success statistics of one protocol instance.

    ``per_input`` holds the success probability for every (input string,
    question) cell; the last axis is the question index, the leading axes
    enumerate the dit string.  ``average`` is the mean over the uniform
    distribution of inputs and questions.  ``worst_case`` is the success of
    the least favourable input string, averaged over the uniform question.
    Each evaluator reads the two statistics from its own cells.
    """

    average: float
    worst_case: float
    per_input: np.ndarray


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

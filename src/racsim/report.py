"""Success bookkeeping and argument checks shared by every module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SuccessReport:
    """Exact success statistics of one protocol instance.

    ``per_input`` holds the success probability for every (input string,
    question) cell; the last axis is the question index, the leading axes
    enumerate the dit string.  ``average`` is the mean over the uniform
    distribution of inputs and questions.  ``worst_case`` is the success of
    the least favourable input string, averaged over the uniform question.
    """

    average: float
    worst_case: float
    per_input: np.ndarray

    @classmethod
    def from_per_input(cls, per_input: np.ndarray) -> "SuccessReport":
        per_input = np.asarray(per_input, dtype=float)
        if per_input.ndim < 2:
            raise ValueError("per_input needs at least one input axis and a question axis")
        average = float(per_input.mean())
        worst = float(per_input.mean(axis=-1).min())
        return cls(average=average, worst_case=worst, per_input=per_input)


def check_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int, after checking it is an integer in low..high.

    Python and numpy integers are accepted; ``bool`` and every other type are
    rejected with ``ValueError``, as is a value outside the range (``high``
    None leaves it open above; with ``low`` None too, only the type is checked).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)

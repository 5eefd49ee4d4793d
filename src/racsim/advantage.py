"""Where a smaller quantum system still beats the best classical code.

The restricted protocol at dimensional advantage r improves on the optimal
classical two-dit code exactly when d > r^2 + 3r + 1 (strictly).  In integers
that is d >= (r + 1)(r + 2), i.e. 4d + 1 >= (2r + 3)^2, a non-strict bound that
``r_max`` solves exactly as (isqrt(4d + 1) - 3) // 2.  The float expression
floor((-3 + sqrt(4d + 5)) / 2) treats the strict bound as non-strict, so when
4d + 5 is a perfect square (d = 11 first) it admits an r that only ties the
classical value.  With m = d - r, the closed forms compare as m + sqrt(m)
against d + 1, i.e. m against (r + 1)^2, so ties and near ties need no second
test; the float closed forms are checked wherever floats separate them, at band
edges only: p_restricted(d, r) falls as r grows and, at fixed r, the advantage
grows with d, so an advantage at the first d of band r and none for r + 1 at
its last d imply every row between.  ``scan_columns`` builds the verified
staircase as int64 and float64 columns, which the CLI writes; ``scan`` returns
their rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .classical import _two_dit_value, closed_form_classical
from .quantum import ProtocolSpec, _restricted_value, closed_form_restricted, exact_success
from .report import FLOAT_MAX, check_int

#: Largest d for which scan() cross-checks the closed form by enumeration.
VERIFY_DMAX = 64

_VERIFY_TOL = 1e-12


class AdvantageRow(NamedTuple):
    """One alphabet size of the staircase table."""

    d: int
    d_prime: int
    r_max: int
    p_classical: float
    p_quantum_full: float
    p_quantum_restricted: float
    ratio: float


def restricted_exact_value(d: int, r: int) -> Fraction | None:
    """Exact rational restricted success value, when one exists.

    The closed form is rational precisely when d - r is a perfect square;
    returns None otherwise.
    """
    d = check_int(d, "alphabet size d", 1)
    m = d - check_int(r, "dimensional advantage r", 0, d - 1)
    root = math.isqrt(m)
    return Fraction(m + root, 2 * d) if root * root == m else None


def advantage_holds(d: int, r: int) -> bool:
    """True when encoding into dimension d - r strictly beats the classical code.

    Raises ``AssertionError`` when the float closed forms differ by more than
    8 ulps of 1/2 at a non-tie and their sign disagrees with the condition."""
    d = check_int(d, "alphabet size d", 1, FLOAT_MAX)
    r = check_int(r, "dimensional advantage r", 0, d - 1)
    holds = d > r * r + 3 * r + 1
    # The ties d - r = (r + 1)^2, d = 1 among them, are equal closed forms, and near
    # a band edge the gap is ~1/(4 r^3), below double resolution from d ~ 1e12 on.
    if d - r != (r + 1) ** 2:
        gap = closed_form_restricted(d, r) - closed_form_classical(2, d)
        if abs(gap) > 8 * math.ulp(0.5) and (gap > 0) != holds:
            raise AssertionError(f"advantage condition disagrees with closed forms at d={d}, r={r}")
    return holds


def _band(first: int, d_max: int) -> tuple[int, int]:
    """Exact r_max at d = first and the last d <= d_max sharing it, cross-checked at both ends."""
    r = (math.isqrt(4 * first + 1) - 3) // 2
    last = min(d_max, (r + 2) * (r + 3) - 1)
    if (r >= 1 and not advantage_holds(first, r)) or advantage_holds(last, r + 1):
        raise AssertionError(f"r_max = {r} disagrees with the advantage condition at d={first}..{last}")
    return r, last


def r_max(d: int) -> int:
    """Largest r with a strict advantage; 0 when no restricted encoding helps."""
    d = check_int(d, "alphabet size d", 2, FLOAT_MAX)
    return _band(d, d)[0]


def scan_columns(d_min: int = 2, d_max: int = 50) -> list[np.ndarray]:
    """The staircase for d in [d_min, d_max] as the seven :class:`AdvantageRow` columns:
    int64 d, d' and r_max, then float64 success probabilities and ratio.

    The restricted value of every d <= VERIFY_DMAX is recomputed by
    :func:`~racsim.quantum.exact_success` from the anchor's Born weights and the
    sizes of the dit classes, and must agree with the closed form to 1e-12, else
    ``AssertionError`` is raised.  Both bounds are at most 2^63 - 1."""
    d_min = check_int(d_min, "d_min", 2, np.iinfo(np.int64).max)
    d_max = check_int(d_max, "d_max", d_min, np.iinfo(np.int64).max)
    d, first = d_min + np.arange(d_max - d_min + 1, dtype=np.int64), d_min
    r = np.empty_like(d)
    while first <= d_max:
        band, last = _band(first, d_max)
        r[first - d_min : last - d_min + 1] = band
        first = last + 1
    verified = max(0, VERIFY_DMAX - d_min + 1)
    for d_row, r_row in zip(d[:verified].tolist(), r[:verified].tolist()):
        p_restricted = closed_form_restricted(d_row, r_row)
        enumerated = exact_success(ProtocolSpec(d=d_row, d_prime=d_row - r_row)).average
        if abs(enumerated - p_restricted) > _VERIFY_TOL:
            raise AssertionError(f"enumeration {enumerated!r} disagrees with the closed form "
                                 f"{p_restricted!r} at d={d_row}, r={r_row}")
    p_classical, p_restricted = _two_dit_value(d), _restricted_value(d, d - r)
    return [d, d - r, r, p_classical, _restricted_value(d, d), p_restricted, p_restricted / p_classical]


def scan(d_min: int = 2, d_max: int = 50) -> list[AdvantageRow]:
    """Staircase table for d in [d_min, d_max]: the rows of :func:`scan_columns`, one
    :class:`AdvantageRow` of Python ints and floats per alphabet size."""
    return list(map(AdvantageRow._make, zip(*(column.tolist() for column in scan_columns(d_min, d_max)))))


def ratio_argmax(d_min: int = 2, d_max: int = 1000) -> int:
    """Alphabet size maximizing the full-protocol-to-classical success ratio, the
    smallest on ties.  As in :func:`scan_columns`, d is an int64 array, so both bounds are at most 2^63 - 1."""
    d_min = check_int(d_min, "d_min", 2, np.iinfo(np.int64).max)
    d_max = check_int(d_max, "d_max", d_min, np.iinfo(np.int64).max)
    d = np.arange(d_min, d_max + 1, dtype=np.int64)
    return d_min + int(np.argmax(_restricted_value(d, d) / _two_dit_value(d)))

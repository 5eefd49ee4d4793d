"""Where a smaller quantum system still beats the best classical code.

The restricted protocol at dimensional advantage r improves on the optimal
classical two-dit code exactly when d > r^2 + 3r + 1 (strictly).  This module
evaluates that condition, finds the largest admissible r per alphabet size,
and tabulates the resulting staircase together with the closed-form and
enumeration-verified success probabilities.

``r_max`` deliberately uses an integer search against the strict inequality
rather than the floor expression floor((-3 + sqrt(4d + 5)) / 2): whenever
4d + 5 is a perfect square (d = 11 is the first case) the floor expression
admits an r that only ties the classical value, and ties do not count as an
advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classical import closed_form_classical
from .quantum import ProtocolSpec, closed_form_full, closed_form_restricted, exact_success
from .report import check_int

#: Largest d for which scan() cross-checks the closed form by enumeration.
VERIFY_DMAX = 64

_VERIFY_TOL = 1e-12


@dataclass(frozen=True)
class AdvantageRow:
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
    check_int(d, "alphabet size d", 1)
    check_int(r, "dimensional advantage r", 0, d - 1)
    m = d - r
    root = math.isqrt(m)
    if root * root != m:
        return None
    return Fraction(m, 2 * d) * (1 + Fraction(1, root))


def advantage_holds(d: int, r: int) -> bool:
    """True when encoding into dimension d - r strictly beats the classical code."""
    check_int(d, "alphabet size d", 1)
    check_int(r, "dimensional advantage r", 0, d - 1)
    holds = d > r * r + 3 * r + 1

    # Cross-check against the closed forms themselves: exactly in rational
    # arithmetic when d - r is a perfect square (the only place ties occur),
    # in floating point otherwise.
    exact = restricted_exact_value(d, r)
    if exact is not None:
        from_forms = exact > Fraction(d + 1, 2 * d)
    else:
        from_forms = closed_form_restricted(d, r) > closed_form_classical(2, d)
    if from_forms != holds:
        raise AssertionError(
            f"advantage condition disagrees with closed forms at d={d}, r={r}"
        )
    return holds


def r_max(d: int) -> int:
    """Largest r with a strict advantage; 0 when no restricted encoding helps."""
    check_int(d, "alphabet size d", 2)
    r = 0
    while advantage_holds(d, r + 1):
        r += 1
    return r


def scan(d_min: int = 2, d_max: int = 50) -> list[AdvantageRow]:
    """Staircase table for d in [d_min, d_max], one row per alphabet size.

    Each row reports the largest dimensional advantage, the classical and full
    quantum closed forms, and the restricted value at that advantage.  The
    restricted value of every row with d <= VERIFY_DMAX is recomputed by
    exhaustive Born-rule enumeration and must agree with the closed form to
    1e-12, else ``AssertionError`` is raised.
    """
    check_int(d_min, "d_min", 2)
    check_int(d_max, "d_max", d_min)
    rows = []
    for d in range(d_min, d_max + 1):
        r = r_max(d)
        p_classical = closed_form_classical(2, d)
        p_full = closed_form_full(d)
        p_restricted = closed_form_restricted(d, r)
        if d <= VERIFY_DMAX:
            enumerated = exact_success(ProtocolSpec(d=d, d_prime=d - r)).average
            if abs(enumerated - p_restricted) > _VERIFY_TOL:
                raise AssertionError(
                    f"enumeration {enumerated!r} disagrees with the closed form "
                    f"{p_restricted!r} at d={d}, r={r}"
                )
        rows.append(
            AdvantageRow(
                d=d,
                d_prime=d - r,
                r_max=r,
                p_classical=p_classical,
                p_quantum_full=p_full,
                p_quantum_restricted=p_restricted,
                ratio=p_restricted / p_classical,
            )
        )
    return rows


def full_to_classical_ratio(d: int) -> float:
    """Success ratio of the full quantum protocol over the classical optimum."""
    return closed_form_full(d) / closed_form_classical(2, d)


def ratio_argmax(d_min: int = 2, d_max: int = 1000) -> int:
    """Alphabet size maximizing the full-protocol-to-classical success ratio."""
    check_int(d_min, "d_min", 2)
    check_int(d_max, "d_max", d_min)
    return max(range(d_min, d_max + 1), key=full_to_classical_ratio)

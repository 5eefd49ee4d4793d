"""Quantum encoders and decoders for the two-dit random access game.

Two protocol families live here.  The *full* protocol encodes a pair of dits
from a size-``d`` alphabet into a ``d``-dimensional system by applying powers
of the shift and clock operators to the anchor state, and decodes the first
dit in the computational basis and the second in the Fourier basis.  The
*restricted* protocol plays the same game with a system of dimension
``d_prime <= d``: every quantum object (root of unity, anchor state, both
decoding bases) lives in dimension ``d_prime``, operator powers are gated
on the dit being representable, and a computational/Fourier outcome of 0
triggers a uniformly random guess over the alphabet values the encoder cannot
distinguish from 0.

Every encoded state is Shift^a Clock^b on the anchor, so each measurement
sees the anchor's Born distribution in its decoding basis rolled by one
power; the Fourier basis swaps the anchor's two terms, so in both bases that
is |anchor|^2, which holds two values: b0 at index 0 and b1 at the other
d_prime - 1.  A cell's success depends only on the asked dit x and on whether
its power is gated off: the chance the guess after x's outcome names x, times
b0 (a power rolls b0 onto that outcome) or, gated off, times the weight at
that outcome, b1 unless it is 0.  Exact evaluation takes the average and worst
case from the two weights and the sizes of the dit classes, in O(1) time; the
d x d x 2 table is broadcast from one length-d vector, literal gating's gated
cells set to b1, only when it is read.  The averages also have closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qudit
from .report import FLOAT_MAX, SuccessReport, check_int, check_weight


class GatingVariant(enum.Enum):
    """How the restricted encoder gates the shift/clock powers.

    INDEPENDENT applies Clock^x2 iff x2 fits in the quantum dimension and,
    independently, Shift^x1 iff x1 fits.  BOTH_OR_NOTHING applies the pair
    Shift^x1 Clock^x2 only when both dits fit and otherwise sends the anchor
    state untouched.  Only INDEPENDENT reproduces the restricted closed form;
    the literal variant scores strictly lower and is kept for regression.
    """

    INDEPENDENT = "canonical"
    BOTH_OR_NOTHING = "literal"


@dataclass(frozen=True)
class ProtocolSpec:
    """Parameters of one protocol instance.

    ``d`` is the alphabet size, ``d_prime`` the dimension of the quantum
    system used for encoding (``d_prime == d`` gives the full protocol), and
    ``variant`` selects the gating rule, which only matters when
    ``d_prime < d``.
    """

    d: int
    d_prime: int
    variant: GatingVariant = GatingVariant.INDEPENDENT

    def __post_init__(self) -> None:
        check_int(self.d, "alphabet size d", 1)
        check_int(self.d_prime, "quantum dimension d_prime", 1, self.d)
        if not isinstance(self.variant, GatingVariant):
            raise ValueError(f"variant must be a GatingVariant, got {self.variant!r}")

    @classmethod
    def full(cls, d: int) -> "ProtocolSpec":
        return cls(d=d, d_prime=d)

    @property
    def r(self) -> int:
        """Dimensional advantage: how far the quantum dimension sits below d."""
        return self.d - self.d_prime


@dataclass(frozen=True)
class GuessDistribution:
    """Distribution over answers announced after one measurement outcome."""

    support: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for answer, prob in self.support:
            check_int(answer, "guess answer", 0)
            check_weight(prob, "guess probabilities")
        total = math.fsum(prob for _, prob in self.support)
        if abs(total - 1.0) > qudit.ATOL:
            raise ValueError(f"guess probabilities must sum to 1, got {total}")


def _powers(spec: ProtocolSpec, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """Shift and clock powers the encoder applies to (x1, x2), elementwise.

    A dit is representable when it is strictly below ``d_prime`` (the power
    ``d_prime`` would alias to 0); the gating variant zeroes the others.
    """
    m = spec.d_prime
    x1, x2 = np.asarray(x1), np.asarray(x2)
    fits1, fits2 = x1 < m, x2 < m
    if spec.variant is GatingVariant.BOTH_OR_NOTHING:
        fits1 = fits2 = fits1 & fits2
    # A product, not np.where: it keeps the dits' dtype and costs a fraction per element.
    return x1 * fits1, x2 * fits2


def encode_restricted(spec: ProtocolSpec, x1: int, x2: int) -> np.ndarray:
    """Encode (x1, x2) into dimension ``spec.d_prime`` under the gating rule.

    The state is Shift^a Clock^b on the anchor, with the powers (a, b) of
    :func:`_powers`; on a full spec (``d_prime == d``) that is Shift^x1 Clock^x2.
    """
    check_int(x1, "x1", 0, _check_spec(spec).d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    a, b = _powers(spec, x1, x2)
    state = qudit.apply_clock(qudit.anchor_state(spec.d_prime), int(b))
    return qudit.apply_shift(state, int(a))


def _check_spec(spec) -> ProtocolSpec:
    if not isinstance(spec, ProtocolSpec):
        raise TypeError(f"expected a ProtocolSpec, got {type(spec).__name__}")
    return spec


def guess_from_outcome(outcome: int, spec: ProtocolSpec) -> GuessDistribution:
    """Answer distribution after observing one measurement outcome.

    Outcomes 1..d_prime-1 are announced verbatim.  Outcome 0 is ambiguous
    between the dit 0 and every out-of-range dit, so the answer is drawn
    uniformly from {0, d_prime, ..., d-1}; for d_prime == d that set collapses
    to {0} and the rule degenerates to announcing 0.
    """
    check_int(outcome, "outcome", 0, _check_spec(spec).d_prime - 1)
    if outcome >= 1:
        return GuessDistribution(((outcome, 1.0),))
    # np.empty refuses a size past numpy's limits, where np.arange can return an empty array.
    fallback = np.empty(spec.d - spec.d_prime + 1, dtype=np.int64)
    fallback[0], fallback[1:] = 0, np.arange(spec.d_prime, spec.d)
    return GuessDistribution(tuple((answer, 1.0 / len(fallback)) for answer in fallback.tolist()))


def _anchor_born(m: int) -> tuple[float, float]:
    """The anchor's Born weights in either decoding basis: |anchor|^2 is b0 at index 0
    and b1 at the other m - 1.  Each takes the IEEE steps :func:`qudit.anchor_state`
    takes for its entry (numpy divides by the norm as a product with its
    reciprocal), so both equal that vector's |.|^2 bit for bit."""
    s = 1.0 / math.sqrt(check_int(m, "quantum dimension d_prime", 1, FLOAT_MAX))
    scale = 1.0 / math.sqrt(2.0 + 2.0 / math.sqrt(m))
    a0, a1 = (s + 1.0) * scale, s * scale
    return a0 * a0, a1 * a1


def answer_distribution(spec: ProtocolSpec, x1: int, x2: int, y: int) -> np.ndarray:
    """Exact distribution of the announced answer for one (input, question) cell.
    The outcome equal to the asked power has weight b0 and each other one b1;
    outcomes 1..d_prime-1 are announced as themselves, and outcome 0's weight is
    shared evenly by 0 and the dits d_prime..d-1."""
    check_int(x1, "x1", 0, _check_spec(spec).d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    power = _powers(spec, x1, x2)[check_int(y, "question index y", 1, 2) - 1]
    b0, b1 = _anchor_born(spec.d_prime)
    dist = np.full(spec.d, b1)
    dist[power] = b0
    dist[0] *= 1.0 / (spec.d - spec.d_prime + 1)
    dist[spec.d_prime :] = dist[0]
    return dist


def exact_success(spec: ProtocolSpec) -> SuccessReport:
    """Exact success probabilities of the whole game, in O(1) time.

    ``fit[x]`` is the chance of announcing the asked dit x when the other dit
    fits in ``d_prime``, ``gated[x]`` (literal gating only) when it does not.
    Both are shared = b0 / (d - d_prime + 1) at 0 and at the dits from d_prime
    on, where outcome 0's guess names x; in between ``fit`` is b0 and ``gated``
    b1.  The average is their sums weighted by how often the other dit fits,
    each formed exactly from its two values' counts and rounded once, as fsum
    rounds it; the worst case is the least block sum of their minima: float
    addition is monotone, so that is the table's least cell bit for bit.  The
    (d, d, 2) table is ``fit`` broadcast, ``gated``'s b1 cells set, on the first read of ``per_input``.
    """
    d, m = int(_check_spec(spec).d), int(spec.d_prime)  # Python ints: a numpy d * d could wrap
    literal = spec.variant is GatingVariant.BOTH_OR_NOTHING and m < d
    if (d * d if literal else d) > FLOAT_MAX:  # the average divides by it as a float
        raise ValueError(f"exact evaluation needs {'d * d' if literal else 'd'} <= {FLOAT_MAX:.4g}, "
                         f"got d of {d.bit_length()} bits")
    b0, b1 = _anchor_born(m)
    # Outcome 0's guess names 0 and each dit from m on with chance 1 / (d - m + 1).
    shared = b0 * (1.0 / (d - m + 1))

    def table() -> np.ndarray:  # allocated first, so a table too large for memory fails before any vector
        per_input = np.empty((d, d, 2))
        fit = np.full(d, b0)
        fit[0] = fit[m:] = shared
        per_input[..., 0], per_input[..., 1] = fit[:, None], fit
        if literal:  # dits F = 0..m-1 fit and N = m..d-1 do not; an asked 1..m-1 beside N is gated off
            per_input[1:m, m:, 0] = per_input[m:, 1:m, 1] = b1
        return per_input

    fit_sum = _class_sum(d - m + 1, shared, m - 1, b0)
    if not literal:  # shared <= b0 is fit's least entry: the least cell is shared + shared, halved exactly
        return SuccessReport(fit_sum / d, shared, table)
    # The least cell of blocks FxF and NxN is shared + shared; of FxN and NxF, gated's least on F + shared.
    worst = ((min(shared, b1) if m > 1 else shared) + shared) / 2
    gated_sum = _class_sum(d - m + 1, shared, m - 1, b1)
    return SuccessReport((m * fit_sum + (d - m) * gated_sum) / (d * d), worst, table)


def _class_sum(count0: int, value0: float, count1: int, value1: float) -> float:
    """count0 * value0 + count1 * value1 formed exactly, as a ratio of ints, and rounded once by int / int."""
    (p0, q0), (p1, q1) = value0.as_integer_ratio(), value1.as_integer_ratio()
    return (count0 * p0 * q1 + count1 * p1 * q0) / (q0 * q1)


def _restricted_value(d, m):
    """(m / (2 d)) (1 + 1/sqrt(m)) at quantum dimension m = d - r, for floats or arrays.

    At m = d the first factor is exactly 0.5, so this is also the full closed form.
    m / d / 2 rounds as m / (2 d) does, where 2 d could overflow.
    """
    return (m / d / 2.0) * (1.0 + 1.0 / np.sqrt(m))


def closed_form_full(d: int) -> float:
    """Average success of the full protocol: (1 + 1/sqrt(d)) / 2."""
    return closed_form_restricted(d, 0)


def closed_form_restricted(d: int, r: int) -> float:
    """Average success of the restricted protocol at dimensional advantage r.

    Equals ((d - r) / (2 d)) * (1 + 1/sqrt(d - r)); reduces to the full
    closed form at r = 0.
    """
    d = check_int(d, "alphabet size d", 1, FLOAT_MAX)
    r = check_int(r, "dimensional advantage r", 0, d - 1)
    return float(_restricted_value(float(d), float(d - r)))

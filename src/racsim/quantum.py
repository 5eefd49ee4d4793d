"""Quantum encoders and decoders for the two-dit random access game.

Two protocol families live here.  The *full* protocol encodes a pair of dits
from a size-``d`` alphabet into a ``d``-dimensional system by applying powers
of the shift and clock operators to the anchor state, and decodes the first
dit in the computational basis and the second in the Fourier basis.  The
*restricted* protocol plays the same game with a system of dimension
``d_prime <= d``: every quantum object (root of unity, anchor state, both
decoding bases) is built in dimension ``d_prime``, operator powers are gated
on the dit being representable, and a computational/Fourier outcome of 0
triggers a uniformly random guess over the alphabet values the encoder cannot
distinguish from 0.

Every encoded state is Shift^a Clock^b on the anchor, so each measurement
sees the anchor's Born distribution in its decoding basis rolled by one
power.  Exact success probabilities read every (input, question) cell of the
game from those 2*d_prime rolled distributions, and are also available in
closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qudit
from .report import SuccessReport, check_int


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
        total = 0.0
        for answer, prob in self.support:
            check_int(answer, "guess answer", 0)
            if prob < 0.0:
                raise ValueError(f"probabilities must be nonnegative, got {prob}")
            total += prob
        if abs(total - 1.0) > qudit.ATOL:
            raise ValueError(f"guess probabilities must sum to 1, got {total}")

    def as_vector(self, d: int) -> np.ndarray:
        vec = np.zeros(d)
        for a, p in self.support:
            vec[a] += p
        return vec


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
    return np.where(fits1, x1, 0), np.where(fits2, x2, 0)


def encode_restricted(spec: ProtocolSpec, x1: int, x2: int) -> np.ndarray:
    """Encode (x1, x2) into dimension ``spec.d_prime`` under the gating rule.

    The state is Shift^a Clock^b on the anchor, with the powers (a, b) of
    :func:`_powers`; on a full spec (``d_prime == d``) that is Shift^x1 Clock^x2.
    """
    check_int(x1, "x1", 0, spec.d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    a, b = _powers(spec, x1, x2)
    state = qudit.apply_clock(qudit.anchor_state(spec.d_prime), int(b))
    return qudit.apply_shift(state, int(a))


def decoding_basis(d_prime: int, y: int) -> np.ndarray:
    """Measurement basis for question y: computational for y=1, Fourier for y=2."""
    if check_int(y, "question index y", 1, 2) == 1:
        return qudit.computational_basis(d_prime)
    return qudit.fourier_basis(d_prime)


def guess_from_outcome(outcome: int, spec: ProtocolSpec) -> GuessDistribution:
    """Answer distribution after observing one measurement outcome.

    Outcomes 1..d_prime-1 are announced verbatim.  Outcome 0 is ambiguous
    between the dit 0 and every out-of-range dit, so the answer is drawn
    uniformly from {0, d_prime, ..., d-1}; for d_prime == d that set collapses
    to {0} and the rule degenerates to announcing 0.
    """
    check_int(outcome, "outcome", 0, spec.d_prime - 1)
    if outcome >= 1:
        return GuessDistribution(((outcome, 1.0),))
    fallback = (0, *range(spec.d_prime, spec.d))
    p = 1.0 / len(fallback)
    return GuessDistribution(tuple((a, p) for a in fallback))


def guess_matrix(spec: ProtocolSpec) -> np.ndarray:
    """Matrix G with G[l, a] = probability of answering a after outcome l."""
    mat = np.zeros((spec.d_prime, spec.d))
    for outcome in range(spec.d_prime):
        mat[outcome] = guess_from_outcome(outcome, spec).as_vector(spec.d)
    return mat


def _born_table(spec: ProtocolSpec) -> np.ndarray:
    """Born distributions T[y-1, p, l] of outcome l for question y at power p.

    Shift^a Clock^b rolls the anchor's computational-basis distribution by a
    and its Fourier-basis distribution by b, leaving the other one alone.
    """
    m = spec.d_prime
    anchor = qudit.anchor_state(m)
    base = np.stack([qudit.born_distribution(anchor, decoding_basis(m, y)) for y in (1, 2)])
    rolls = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [p, l] -> l - p
    return base[:, rolls]


def answer_distribution(spec: ProtocolSpec, x1: int, x2: int, y: int) -> np.ndarray:
    """Exact distribution of the announced answer for one (input, question) cell."""
    check_int(x1, "x1", 0, spec.d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    check_int(y, "question index y", 1, 2)
    power = _powers(spec, x1, x2)[y - 1]
    return _born_table(spec)[y - 1, power] @ guess_matrix(spec)


def exact_success(spec: ProtocolSpec) -> SuccessReport:
    """Enumerate the whole game and report exact success probabilities.

    Each (input, question) cell reads the probability of announcing its dit
    from the answer-table row that its gated power selects.
    """
    answers = _born_table(spec) @ guess_matrix(spec)  # [y-1, power, answer]
    x1, x2 = np.meshgrid(np.arange(spec.d), np.arange(spec.d), indexing="ij")
    a, b = _powers(spec, x1, x2)
    per_input = np.stack([answers[0, a, x1], answers[1, b, x2]], axis=-1)
    return SuccessReport.from_per_input(per_input)


def closed_form_full(d: int) -> float:
    """Average success of the full protocol: (1 + 1/sqrt(d)) / 2."""
    check_int(d, "alphabet size d", 1)
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def closed_form_restricted(d: int, r: int) -> float:
    """Average success of the restricted protocol at dimensional advantage r.

    Equals ((d - r) / (2 d)) * (1 + 1/sqrt(d - r)); reduces to the full
    closed form at r = 0.
    """
    check_int(d, "alphabet size d", 1)
    check_int(r, "dimensional advantage r", 0, d - 1)
    m = d - r
    return (m / (2.0 * d)) * (1.0 + 1.0 / math.sqrt(m))

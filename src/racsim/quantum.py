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

Exact success probabilities are computed by full enumeration of the game and
are also available in closed form.
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
            if answer < 0:
                raise ValueError(f"answers must be nonnegative dit values, got {answer}")
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


def encode_restricted(spec: ProtocolSpec, x1: int, x2: int) -> np.ndarray:
    """Encode (x1, x2) into dimension ``spec.d_prime`` under the gating rule.

    On a full spec (``d_prime == d``) this is Shift^x1 Clock^x2 on the anchor.
    A dit counts as representable when it is strictly below ``d_prime``;
    the exponent ``d_prime`` itself would alias to the identity.
    """
    check_int(x1, "x1", 0, spec.d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    m = spec.d_prime
    state = qudit.anchor_state(m)
    if spec.variant is GatingVariant.BOTH_OR_NOTHING:
        if x1 < m and x2 < m:
            state = qudit.apply_clock(state, x2)
            state = qudit.apply_shift(state, x1)
        return state
    if x2 < m:
        state = qudit.apply_clock(state, x2)
    if x1 < m:
        state = qudit.apply_shift(state, x1)
    return state


def decoding_basis(d_prime: int, y: int) -> np.ndarray:
    """Measurement basis for question y: computational for y=1, Fourier for y=2."""
    if y == 1:
        return qudit.computational_basis(d_prime)
    if y == 2:
        return qudit.fourier_basis(d_prime)
    raise ValueError(f"question index must be 1 or 2, got {y}")


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


def answer_distribution(spec: ProtocolSpec, x1: int, x2: int, y: int) -> np.ndarray:
    """Exact distribution of the announced answer for one (input, question) cell."""
    state = encode_restricted(spec, x1, x2)
    born = qudit.born_distribution(state, decoding_basis(spec.d_prime, y))
    return born @ guess_matrix(spec)


def _encoded_states(spec: ProtocolSpec) -> np.ndarray:
    """All d*d encoded states as rows, input (x1, x2) at row x1*d + x2.

    Equivalent to calling :func:`encode_restricted` per input, but built in
    one shot: the clock only ever phases the anchor with one of ``d_prime``
    distinct diagonals and the shift only ever rolls by one of ``d_prime``
    offsets, so every state is a lookup into a precomputed (b, a, k) cube.
    """
    d, m = spec.d, spec.d_prime
    anchor = qudit.anchor_state(m)
    exponents = np.outer(np.arange(m), np.arange(m)) % m
    phased = anchor[None, :] * np.exp(2j * np.pi * exponents / m)  # [b, k]
    roll_index = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [a, k]
    cube = phased[:, roll_index]  # [b, a, k]

    dits = np.arange(d)
    gated = np.where(dits < m, dits, 0)
    a_grid, b_grid = np.meshgrid(gated, gated, indexing="ij")  # over (x1, x2)
    if spec.variant is GatingVariant.BOTH_OR_NOTHING:
        x1_grid, x2_grid = np.meshgrid(dits, dits, indexing="ij")
        out_of_range = (x1_grid >= m) | (x2_grid >= m)
        a_grid = np.where(out_of_range, 0, a_grid)
        b_grid = np.where(out_of_range, 0, b_grid)
    return cube[b_grid, a_grid].reshape(d * d, m)


def exact_success(spec: ProtocolSpec) -> SuccessReport:
    """Enumerate the whole game and report exact success probabilities.

    For every input pair and both questions this computes the Born
    distribution of the decoding measurement on the encoded state, composes
    it with the outcome-conditional guess rule, and records the probability
    of announcing the correct dit.
    """
    d, m = spec.d, spec.d_prime
    states = _encoded_states(spec)
    gmat = guess_matrix(spec)
    p_comp = np.abs(states) ** 2
    p_four = np.abs(states @ qudit.fourier_basis(m).conj().T) ** 2
    answers_comp = p_comp @ gmat
    answers_four = p_four @ gmat

    x1_idx = np.repeat(np.arange(d), d)
    x2_idx = np.tile(np.arange(d), d)
    rows = np.arange(d * d)
    per_input = np.empty((d, d, 2))
    per_input[..., 0] = answers_comp[rows, x1_idx].reshape(d, d)
    per_input[..., 1] = answers_four[rows, x2_idx].reshape(d, d)
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

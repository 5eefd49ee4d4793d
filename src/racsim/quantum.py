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
is |anchor|^2.  Exact success probabilities read every (input, question) cell
of the game straight from it, and are also available in closed form.
"""

from __future__ import annotations

import enum
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
        total = sum(prob for _, prob in self.support)
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
    return np.where(fits1, x1, 0), np.where(fits2, x2, 0)


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


def _guess_rule(spec: ProtocolSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dits guessed uniformly after outcome 0, and per dit x the one outcome
    that can announce x (x for 1 <= x < d_prime, else 0) and the chance it does.
    """
    fallback = np.concatenate(([0], np.arange(spec.d_prime, spec.d)))
    outcome, chance = np.arange(spec.d), np.ones(spec.d)
    outcome[fallback], chance[fallback] = 0, 1.0 / len(fallback)
    return fallback, outcome, chance


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
    fallback, _, chance = _guess_rule(spec)
    return GuessDistribution(tuple(zip(fallback.tolist(), chance[fallback].tolist())))


def _anchor_born(m: int) -> np.ndarray:
    """Born distribution |anchor_l|^2 of the anchor in either decoding basis:
    <f_l|0> = 1/sqrt(m) and <f_l|e_0> = delta_l0, so <f_l|anchor> = <l|anchor>."""
    return np.abs(qudit.anchor_state(m)) ** 2


def _announced(born: np.ndarray, rule, dits, power) -> np.ndarray:
    """Per dit: its outcome's ``born`` entry, rolled by ``power``, times the chance its guess names it."""
    _, outcome, chance = rule
    return born[(outcome[dits] - power) % born.size] * chance[dits]


def answer_distribution(spec: ProtocolSpec, x1: int, x2: int, y: int) -> np.ndarray:
    """Exact distribution of the announced answer for one (input, question) cell."""
    check_int(x1, "x1", 0, _check_spec(spec).d - 1)
    check_int(x2, "x2", 0, spec.d - 1)
    power = _powers(spec, x1, x2)[check_int(y, "question index y", 1, 2) - 1]
    return _announced(_anchor_born(spec.d_prime), _guess_rule(spec), np.arange(spec.d), power)


def exact_success(spec: ProtocolSpec) -> SuccessReport:
    """Enumerate the whole game and report exact success probabilities.

    Each (input, question) cell reads the probability of announcing its dit
    from the anchor's Born distribution rolled by its gated power.  The output is
    allocated first, so a game too large for memory fails before any table is built.
    """
    per_input = np.empty((_check_spec(spec).d, spec.d, 2))
    born, rule = _anchor_born(spec.d_prime), _guess_rule(spec)
    x1, x2 = np.arange(spec.d)[:, None], np.arange(spec.d)[None, :]
    a, b = _powers(spec, x1, x2)
    per_input[..., 0], per_input[..., 1] = _announced(born, rule, x1, a), _announced(born, rule, x2, b)
    return SuccessReport.from_per_input(per_input)


def _restricted_value(d, m):
    """(m / (2 d)) (1 + 1/sqrt(m)) at quantum dimension m = d - r, for floats or arrays.

    At m = d the first factor is exactly 0.5, so this is also the full closed form.
    m / d / 2 rounds as m / (2 d) does, where 2 d could overflow.
    """
    return (m / d / 2.0) * (1.0 + 1.0 / np.sqrt(m))


def closed_form_full(d: int) -> float:
    """Average success of the full protocol: (1 + 1/sqrt(d)) / 2."""
    d = float(check_int(d, "alphabet size d", 1, FLOAT_MAX))
    return float(_restricted_value(d, d))


def closed_form_restricted(d: int, r: int) -> float:
    """Average success of the restricted protocol at dimensional advantage r.

    Equals ((d - r) / (2 d)) * (1 + 1/sqrt(d - r)); reduces to the full
    closed form at r = 0.
    """
    d = check_int(d, "alphabet size d", 1, FLOAT_MAX)
    r = check_int(r, "dimensional advantage r", 0, d - 1)
    return float(_restricted_value(float(d), float(d - r)))

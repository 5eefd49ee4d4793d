"""Reference values computed apart from racsim, used to check its outputs.

Nothing here imports the package.  The quantum references use the closed
Born distributions of the encoded states: in dimension m the anchor state
(|0> + |e_0>)/N has amplitude (1 + 1/sqrt(m))/N at index 0 and (1/sqrt(m))/N
elsewhere, N^2 = 2 + 2/sqrt(m).  Shift^a Clock^b moves that peak to index a in
the computational basis and, because Clock^b |e_0> is the Fourier vector f_b,
to index b in the Fourier basis.  So every decoding measurement sees one
outcome with probability HI = (1 + 1/sqrt(m))^2 / N^2 and the others with
LO = (1/m) / N^2; the guess rule then maps outcome 0 uniformly onto
{0, m, ..., d-1}.  The classical references count in exact rationals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-12


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(got: float, want: float, what: str, tol: float = TOL) -> None:
    check(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# ------------------------------------------------------------- quantum ---


def r_ref(d: int) -> int:
    """Largest r with d > r^2 + 3r + 1, by plain integer search."""
    r = 0
    while d > (r + 1) ** 2 + 3 * (r + 1) + 1:
        r += 1
    return r


def full_value(d: int) -> float:
    return 0.5 * (1.0 + 1.0 / math.sqrt(d))


def restricted_value(d: int, m: int) -> float:
    return (m / (2.0 * d)) * (1.0 + 1.0 / math.sqrt(m))


def literal_6_5() -> float:
    return (13.5 + 12.5 / math.sqrt(5)) / 36.0


def _peak_levels(m: int) -> tuple[float, float]:
    norm2 = 2.0 + 2.0 / math.sqrt(m)
    return (1.0 + 1.0 / math.sqrt(m)) ** 2 / norm2, (1.0 / m) / norm2


def _peaks(d: int, m: int, literal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    x1, x2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    if literal:
        fits = (x1 < m) & (x2 < m)
        return x1, x2, np.where(fits, x1, 0), np.where(fits, x2, 0)
    return x1, x2, np.where(x1 < m, x1, 0), np.where(x2 < m, x2, 0)


def success_table(d: int, m: int, literal: bool = False) -> np.ndarray:
    """(d, d, 2) success probability of every (x1, x2, question) cell."""
    hi, lo = _peak_levels(m)
    fallback = d - m + 1
    x1, x2, p1, p2 = _peaks(d, m, literal)
    table = np.empty((d, d, 2))
    for q, (target, peak) in enumerate(((x1, p1), (x2, p2))):
        direct = np.where((target >= 1) & (target < m), np.where(peak == target, hi, lo), 0.0)
        via_zero = np.where((target == 0) | (target >= m), np.where(peak == 0, hi, lo) / fallback, 0.0)
        table[..., q] = direct + via_zero
    return table


def answer_table(d: int, m: int, literal: bool = False) -> np.ndarray:
    """(d, d, 2, d) exact distribution of the announced answer per cell."""
    hi, lo = _peak_levels(m)
    fallback = d - m + 1
    _, _, p1, p2 = _peaks(d, m, literal)
    answers = np.arange(d)
    table = np.zeros((d, d, 2, d))
    for q, peak in enumerate((p1, p2)):
        outcome = np.where(peak[..., None] == answers, hi, lo)  # outcome == answer
        zero = np.where(peak == 0, hi, lo)[..., None]
        direct = np.where((answers >= 1) & (answers < m), outcome, 0.0)
        via_zero = np.where((answers == 0) | (answers >= m), zero / fallback, 0.0)
        table[..., q, :] = direct + via_zero
    return table


# ----------------------------------------------------------- classical ---


def classical_optimum(n: int, d: int) -> Fraction:
    """(1 + 1/d)/2 for n = 2 and (1 + 3/d - 1/d^2)/3 for n = 3."""
    if n == 2:
        return (1 + Fraction(1, d)) / 2
    if n == 3:
        return (1 + Fraction(3, d) - Fraction(1, d * d)) / 3
    raise ValueError(f"no closed form for n={n}")


def python_score(n: int, d: int, encoder, decoders) -> Fraction:
    """Average success of a deterministic strategy by a plain Python count."""
    hits = 0
    for rank, x in enumerate(itertools.product(range(d), repeat=n)):
        message = encoder[rank]
        for y in range(n):
            hits += decoders[y][message] == x[y]
    return Fraction(hits, n * d**n)


def majority_hits(n: int, d: int) -> int:
    """Correct answers of majority-encoding identity-decoding, summed over inputs.

    With identity decoders the sent dit is answered correctly at every
    position holding it, so each input scores its largest value multiplicity.
    """
    inputs = np.indices((d,) * n).reshape(n, -1)
    best = np.zeros(inputs.shape[1], dtype=np.int64)
    for v in range(d):
        np.maximum(best, (inputs == v).sum(axis=0), out=best)
    return int(best.sum())


def majority_messages_ok(n: int, d: int, encoder) -> bool:
    """Every message is a value of largest multiplicity in its input string."""
    inputs = np.indices((d,) * n).reshape(n, -1)
    messages = np.asarray(encoder)
    sent = (inputs == messages).sum(axis=0)
    best = np.zeros_like(sent)
    for v in range(d):
        np.maximum(best, (inputs == v).sum(axis=0), out=best)
    return bool(np.array_equal(sent, best))


def binomial_ok(mean: float, p: float, trials: int, sigmas: float = 5.0) -> bool:
    """Sample mean within ``sigmas`` standard errors of the exact rate p."""
    return abs(mean - p) <= sigmas * math.sqrt(p * (1.0 - p) / trials)

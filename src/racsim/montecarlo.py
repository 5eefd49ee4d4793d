"""Seeded Monte Carlo execution of the random access game.

Every protocol the package evaluates exactly can also be *played*: a uniformly
random input string and a uniformly random question are drawn, the protocol
announces an answer, and the trial succeeds when the answer is the asked dit.
Estimates converge to the exact values and are bit-reproducible.  One
generator, numpy's default PCG64 seeded from ``TrialConfig.seed``, plays the
trials in chunks of at most ``_CHUNK``.  A chunk first draws each trial's
question and input string as one cell below n d^n (split by ``_words`` past
2^64), decoded by scalar floor division: the question is its least significant
digit, the rest is the input's rank, first dit most significant.  Then it draws
what the answer step uses: a quantum protocol one outcome uniform per trial and,
if its fallback set holds more than one dit, one fallback index per trial that
announces 0; a classical strategy nothing.  That order, with the chunk size, is
random stream ``STREAM_VERSION``.  Memory is set by the chunk.

The anchor's Born row, which exact evaluation reads for both questions as
two weights, is b0 followed by d' - 1 equal entries, so an outcome uniform u
is inverted in closed form from b0 alone: outcome 0 if u < b0, else
1 + min(floor((u - b0) s), d' - 2) with the float s = (d' - 1) / (1 - b0).
The outcome then moves by the asked question's power mod d', as Shift^a
Clock^b rolls the two distributions by a and b; nothing of size d or d' is built.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy
from .quantum import GatingVariant, ProtocolSpec, _anchor_born, _check_spec
from .report import check_int

#: Version of the seeded variate stream; it changes whenever a seed would
#: produce different trials.  Version 5 draws each trial's question and input as one cell.
STREAM_VERSION = 5

_CHUNK = 1 << 17


@dataclass(frozen=True)
class TrialConfig:
    """How many rounds to play and which seed to play them with."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_int(self.trials, "trial count", 1)
        check_int(self.seed, "seed", 0, 2**64 - 1)


@dataclass(frozen=True)
class Estimate:
    """Empirical success rate with its binomial standard error."""

    mean: float
    stderr: float
    trials: int


def _words(n: int, d: int) -> list[tuple[int, np.dtype, list[int]]]:
    """Bound, type and radices of the words a cell is drawn as: its digits, least significant
    first, packed greedily into as few words below 2^64 as hold them, each drawn in the smallest
    of uint16, uint32 and uint64 that holds it (numpy's bounded uint8 draws cost 3x as much)."""
    words = [[]]
    for radix in [n] + [d] * n:
        if math.prod(words[-1]) * radix > 2**64:
            words.append([])
        words[-1].append(radix)
    return [(math.prod(w), np.promote_types(np.uint16, np.min_scalar_type(math.prod(w) - 1)), w) for w in words]


def _play(protocol, config: TrialConfig) -> Iterator[tuple[list[np.ndarray], np.ndarray, np.ndarray]]:
    """Drawn words, asked dits and answers of each chunk of at most ``_CHUNK`` trials."""
    if not isinstance(protocol, (ProtocolSpec, DeterministicStrategy)):
        raise TypeError(f"cannot simulate {type(protocol).__name__}")
    d = check_int(protocol.d, "sampled alphabet size d", 1, 2**63)
    if isinstance(protocol, ProtocolSpec):
        n, m = 2, protocol.d_prime
        literal = protocol.variant is GatingVariant.BOTH_OR_NOTHING
        # The smallest unsigned type holding 2d - 1: an outcome plus a power cannot wrap.
        dtype = np.min_scalar_type(2 * d - 1)
        b0 = _anchor_born(m)[0]
        # The row past b0 holds m - 1 equal entries; at m = 1, b0 = 1 and every outcome is 0.
        scale = (m - 1) / (1 - b0) if m > 1 else 0.0
        # Reused: glibc returns a freed 1 MB array to the system, and faulting it back cost 25 %.
        buffer = np.empty(min(_CHUNK, config.trials))

        def answer(rng, words, y, dits, asked):
            u = rng.random(out=buffer[: len(y)])
            # u - b0 is exact, so each u < b0 is negative, clips into [-1, 0) and floors to -1: outcome 0.
            u -= b0
            u *= scale
            u.clip(-1.0, m - 2.0, out=u)
            np.floor(u, out=u)
            u += 1.0
            outcome = u.astype(dtype)
            # The asked question's power: the asked dit, zeroed where ``_powers``' gating shuts it.
            outcome += asked if m == d else asked * ((dits[0] < m) & (dits[1] < m) if literal else asked < m)
            # Both terms are below m, so the sum mod m is the lesser of it and its wrapped sum - m.
            np.minimum(outcome, outcome - dtype.type(m), out=outcome)
            if m < d:  # outcome 0 names 0 or one of the dits m..d-1, uniformly
                zero = (outcome == 0).nonzero()[0]
                pick = rng.integers(0, d - m + 1, len(zero), dtype=dtype)
                # Pick 0 names the dit 0, pick k >= 1 the dit m - 1 + k.
                outcome[zero] = pick + dtype.type(m - 1) * (pick > 0)
            return outcome

    else:
        n = protocol.n
        encoder, decoders = protocol._arrays

        def answer(rng, words, y, dits, asked):
            # A strategy's tables hold d^n messages, so its cell is always one word.
            return decoders[y, encoder[words[0] // n]]

    words = _words(n, d)
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.trials, _CHUNK):
        size = min(_CHUNK, config.trials - start)
        cells, digits = [rng.integers(0, bound, size, dtype=t) for bound, t, _ in words], []
        for cell, (_, _, radices) in zip(cells, words):
            for radix in radices[:-1]:
                rest = cell // radix
                digits.append(cell - rest * radix)
                cell = rest
            digits.append(cell)
        y, dits = digits[0], digits[:0:-1]
        # The asked dit is x[0] plus the steps x[j] - x[j-1] for j <= y; their unsigned wraps cancel.
        asked = dits[0]
        for j in range(1, n):
            asked = asked + (y >= j) * (dits[j] - dits[j - 1])
        yield cells, asked, answer(rng, cells, y, dits, asked)


def simulate(protocol: ProtocolSpec | DeterministicStrategy, config: TrialConfig) -> Estimate:
    """Play the game ``config.trials`` times and estimate the success rate.
    Identical (protocol, config) pairs reproduce identical estimates."""
    successes = sum(int(np.count_nonzero(answers == asked)) for _, asked, answers in _play(protocol, config))
    mean = successes / config.trials
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / config.trials), trials=config.trials)


def answer_counts(spec: ProtocolSpec, config: TrialConfig) -> np.ndarray:
    """Histogram of sampled answers, indexed by (x1, x2, question-1, answer).

    Uses the same variate stream as :func:`simulate`, so the histogram is the
    full record of an identically-seeded run.
    """
    shape = (_check_spec(spec).d, spec.d, 2, spec.d)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    for (cell,), _, answers in _play(spec, config):
        # The cell is (x1, x2, y)'s Horner rank, so one more int64 Horner step appends the answer.
        counts += np.bincount(cell.astype(np.int64) * spec.d + answers, minlength=counts.size)
    return counts.reshape(shape)

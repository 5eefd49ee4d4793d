"""Seeded Monte Carlo execution of the random access game.

Every protocol the package evaluates exactly can also be *played*: a uniformly
random input string and a uniformly random question are drawn, the protocol
announces an answer, and the trial succeeds when the answer is the asked dit.
Estimates converge to the exact values and are bit-reproducible.  One
generator, numpy's default PCG64 seeded from ``TrialConfig.seed``, plays the
trials in chunks of at most ``_CHUNK``; each chunk draws its (size, n) input
matrix, then its questions, then what the protocol's answer step needs.  A
quantum protocol draws outcome uniforms and then guess uniforms; a classical
strategy draws nothing more and looks its answer up in its tables.  That
order, with the chunk size, is random stream ``STREAM_VERSION``.  Memory is
set by the chunk, not by the trial count.

Outcome sampling binary-searches the anchor's cumulative Born row, the one
O(d′) vector exact evaluation reads for both questions, and moves the outcome
by the trial's power mod d′, as Shift^a Clock^b rolls the two distributions by
a and b; no state collapse is simulated.  That is stream 3.  Stream 2 searched
a row per (question, power), already rolled, so its seeds now give other
quantum estimates.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy
from .quantum import ProtocolSpec, _anchor_born, _check_spec, _guess_rule, _powers
from .report import check_int

#: Version of the seeded variate stream; it changes whenever a seed would
#: produce different trials.  Version 3 draws in chunks of ``_CHUNK`` trials.
STREAM_VERSION = 3

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


def _play(protocol, config: TrialConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Inputs, questions and answers of each chunk of at most ``_CHUNK`` trials."""
    if isinstance(protocol, ProtocolSpec):
        n, d, m = 2, protocol.d, protocol.d_prime
        # Forced to 1.0 at the end, so rounding cannot push a uniform past the last outcome.
        cdf = np.cumsum(_anchor_born(m))
        cdf[-1] = 1.0
        guess_set = _guess_rule(protocol)[0]

        def answer(rng, inputs, y):
            u_outcome = rng.random(len(y))
            u_guess = rng.random(len(y))
            a, b = _powers(protocol, inputs[:, 0], inputs[:, 1])
            # The anchor's outcome counts the row entries <= u; the power moves
            # it, and as both terms are below m one subtraction reduces it mod m.
            outcome = np.searchsorted(cdf, u_outcome, side="right") + np.where(y == 1, a, b)
            outcome -= m * (outcome >= m)
            guess_idx = np.minimum((u_guess * len(guess_set)).astype(np.int64), len(guess_set) - 1)
            return np.where(outcome == 0, guess_set[guess_idx], outcome)

    elif isinstance(protocol, DeterministicStrategy):
        n, d = protocol.n, protocol.d
        powers = d ** np.arange(n - 1, -1, -1)
        encoder, decoders = protocol._arrays

        def answer(rng, inputs, y):
            return decoders[y - 1, encoder[inputs @ powers]]

    else:
        raise TypeError(f"cannot simulate {type(protocol).__name__}")
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.trials, _CHUNK):
        size = min(_CHUNK, config.trials - start)
        inputs = rng.integers(0, d, (size, n))
        y = rng.integers(1, n + 1, size)
        yield inputs, y, answer(rng, inputs, y)


def simulate(protocol: ProtocolSpec | DeterministicStrategy, config: TrialConfig) -> Estimate:
    """Play the game ``config.trials`` times and estimate the success rate.

    Identical (protocol, config) pairs reproduce identical estimates.
    """
    successes = 0
    for inputs, y, answers in _play(protocol, config):
        successes += int(np.count_nonzero(answers == inputs[np.arange(len(y)), y - 1]))
    mean = successes / config.trials
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / config.trials), trials=config.trials)


def answer_counts(spec: ProtocolSpec, config: TrialConfig) -> np.ndarray:
    """Histogram of sampled answers, indexed by (x1, x2, question-1, answer).

    Uses the same variate stream as :func:`simulate`, so the histogram is the
    full record of an identically-seeded run.
    """
    shape = (_check_spec(spec).d, spec.d, 2, spec.d)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    for inputs, y, answers in _play(spec, config):
        # One expression: a named cell index would stay alive while the next chunk is drawn.
        counts += np.bincount(
            np.ravel_multi_index((inputs[:, 0], inputs[:, 1], y - 1, answers), shape), minlength=counts.size
        )
    return counts.reshape(shape)

"""Seeded Monte Carlo execution of the random access game.

Every protocol the package evaluates exactly can also be *played*: inputs are
drawn uniformly, the encoded system is measured by sampling the exact Born
distribution of the decoding basis, the guess rule is sampled, and the
empirical success rate is tallied.  Estimates converge to the exact values
and are bit-reproducible: the generator is numpy's default PCG64 seeded from
``TrialConfig.seed``, and all variates are drawn as whole arrays in a fixed
order.  Quantum protocols draw five arrays (first dits, second dits,
questions, outcome uniforms, guess uniforms); classical strategies draw the
input matrix and then the questions.

Outcome sampling inverts the cumulative Born distribution of the trial's
(input, question) cell, read from the rolled Born table that exact evaluation
uses; no state collapse is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy
from .quantum import ProtocolSpec, _born_table, _powers, guess_from_outcome
from .report import check_int

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


def _estimate(successes: int, trials: int) -> Estimate:
    mean = successes / trials
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)


def _play_quantum(spec: ProtocolSpec, config: TrialConfig) -> tuple[np.ndarray, ...]:
    """Trial columns (x1, x2, y, answer)."""
    d = spec.d
    rng = np.random.default_rng(config.seed)
    trials = config.trials
    x1 = rng.integers(0, d, trials)
    x2 = rng.integers(0, d, trials)
    y = rng.integers(1, 3, trials)
    u_outcome = rng.random(trials)
    u_guess = rng.random(trials)

    cdfs = np.cumsum(_born_table(spec), axis=-1)  # [y-1, power, outcome]
    # Guard against cumulative rounding pushing a uniform past the last level.
    cdfs[..., -1] = 1.0
    guess_set = np.array([a for a, _ in guess_from_outcome(0, spec).support], dtype=np.int64)
    fallback = len(guess_set)
    answers = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        chunk = slice(start, min(start + _CHUNK, trials))
        a, b = _powers(spec, x1[chunk], x2[chunk])
        rows = cdfs[y[chunk] - 1, np.where(y[chunk] == 1, a, b)]
        outcome = (u_outcome[chunk, None] >= rows).sum(axis=1)
        guess_idx = np.minimum((u_guess[chunk] * fallback).astype(np.int64), fallback - 1)
        answers[chunk] = np.where(outcome == 0, guess_set[guess_idx], outcome)
    return x1, x2, y, answers


def _play_classical(strategy: DeterministicStrategy, config: TrialConfig) -> np.ndarray:
    n, d = strategy.n, strategy.d
    rng = np.random.default_rng(config.seed)
    trials = config.trials
    xs = rng.integers(0, d, (trials, n))
    y = rng.integers(1, n + 1, trials)

    powers = d ** np.arange(n - 1, -1, -1)
    ranks = xs @ powers
    encoder = np.asarray(strategy.encoder)
    decoders = np.asarray(strategy.decoders)
    answers = decoders[y - 1, encoder[ranks]]
    targets = xs[np.arange(trials), y - 1]
    return (answers == targets).astype(np.int64)


def simulate(protocol: ProtocolSpec | DeterministicStrategy, config: TrialConfig) -> Estimate:
    """Play the game ``config.trials`` times and estimate the success rate.

    Identical (protocol, config) pairs reproduce identical estimates.
    """
    if isinstance(protocol, ProtocolSpec):
        x1, x2, y, answers = _play_quantum(protocol, config)
        successes = int(np.count_nonzero(answers == np.where(y == 1, x1, x2)))
    elif isinstance(protocol, DeterministicStrategy):
        successes = int(_play_classical(protocol, config).sum())
    else:
        raise TypeError(f"cannot simulate {type(protocol).__name__}")
    return _estimate(successes, config.trials)


def answer_counts(spec: ProtocolSpec, config: TrialConfig) -> np.ndarray:
    """Histogram of sampled answers, indexed by (x1, x2, question-1, answer).

    Uses the same variate stream as :func:`simulate`, so the histogram is the
    full record of an identically-seeded run.
    """
    d = spec.d
    x1, x2, y, answers = _play_quantum(spec, config)
    counts = np.zeros((d, d, 2, d), dtype=np.int64)
    np.add.at(counts, (x1, x2, y - 1, answers), 1)
    return counts

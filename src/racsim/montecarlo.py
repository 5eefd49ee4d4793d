"""Seeded Monte Carlo execution of the random access game.

Every protocol the package evaluates exactly can also be *played*: a uniformly
random input string and a uniformly random question are drawn, the protocol
announces an answer, and the trial succeeds when the answer is the asked dit.
Estimates converge to the exact values and are bit-reproducible.  One
generator, numpy's default PCG64 seeded from ``TrialConfig.seed``, plays the
trials in chunks of at most ``_CHUNK``; each chunk draws its position-major
(n, size) input matrix in the smallest unsigned type that holds 2d - 1, then
its questions 0..n-1 as uint8, then only what the protocol's answer step
uses.  A quantum protocol draws one outcome uniform per trial and, when its
fallback set holds more than one dit, one fallback index per trial that
announces 0; a classical strategy draws nothing more and looks its answer up
in its tables.  That order, with the chunk size, is random stream
``STREAM_VERSION``.  Memory is set by the chunk, not by the trial count.

The anchor's Born row, which exact evaluation reads for both questions as
two weights, is b0 followed by d' - 1 equal entries, so an outcome uniform u
is inverted in closed form from b0 alone: outcome 0 if u < b0, else
1 + min(floor((u - b0) s), d' - 2) with the float s = (d' - 1) / (1 - b0).
The outcome then moves by the asked question's power mod d', as Shift^a
Clock^b rolls the two distributions by a and b; no state collapse is
simulated, and nothing of size d or d' is built.  That is stream 4.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .classical import DeterministicStrategy
from .quantum import ProtocolSpec, _anchor_born, _check_spec, _powers
from .report import check_int

#: Version of the seeded variate stream; it changes whenever a seed would
#: produce different trials.  Version 4 draws in chunks of ``_CHUNK`` trials.
STREAM_VERSION = 4

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


def _asked(inputs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dit each trial asks for: x[0] plus the steps x[j] - x[j-1] for j <= y.
    Unsigned arithmetic wraps, but the telescoped sum is a dit, so it comes out exact."""
    asked = inputs[0]
    for j in range(1, len(inputs)):
        asked = asked + (y >= j) * (inputs[j] - inputs[j - 1])
    return asked


def _play(protocol, config: TrialConfig) -> Iterator[tuple[np.ndarray, ...]]:
    """Inputs (position-major), questions, asked dits and answers of each chunk
    of at most ``_CHUNK`` trials."""
    if not isinstance(protocol, (ProtocolSpec, DeterministicStrategy)):
        raise TypeError(f"cannot simulate {type(protocol).__name__}")
    d = check_int(protocol.d, "sampled alphabet size d", 1, 2**63)
    # The smallest unsigned type holding 2d - 1: an outcome plus a power cannot wrap.
    dtype = np.min_scalar_type(2 * d - 1)
    if isinstance(protocol, ProtocolSpec):
        n, m = 2, protocol.d_prime
        b0 = _anchor_born(m)[0]
        # The row past b0 holds m - 1 equal entries; at m = 1, b0 = 1 and every outcome is 0.
        scale = (m - 1) / (1 - b0) if m > 1 else 0.0

        def answer(rng, inputs, y):
            u = rng.random(len(y))
            a, b = _powers(protocol, inputs[0], inputs[1])
            # u - b0 is exact, so every u < b0 is negative here, clips into [-1, 0)
            # and floors to -1: outcome 0.
            u -= b0
            u *= scale
            u.clip(-1.0, m - 2.0, out=u)
            np.floor(u, out=u)
            u += 1.0
            outcome = u.astype(dtype)
            # Both terms are below m, so one subtraction reduces the sum mod m.
            outcome += a + y * (b - a)
            outcome -= dtype.type(m) * (outcome >= m)
            if m < d:  # outcome 0 names 0 or one of the dits m..d-1, uniformly
                zero = (outcome == 0).nonzero()[0]
                pick = rng.integers(0, d - m + 1, len(zero), dtype=dtype)
                # Pick 0 names the dit 0, pick k >= 1 the dit m - 1 + k.
                outcome[zero] = pick + dtype.type(m - 1) * (pick > 0)
            return outcome

    else:
        n = protocol.n
        encoder, decoders = protocol._arrays

        def answer(rng, inputs, y):
            rank = inputs[0].astype(np.int64)
            for row in inputs[1:]:
                rank *= d
                rank += row
            return decoders[y, encoder[rank]]

    rng = np.random.default_rng(config.seed)
    for start in range(0, config.trials, _CHUNK):
        size = min(_CHUNK, config.trials - start)
        inputs = rng.integers(0, d, (n, size), dtype=dtype)
        y = rng.integers(0, n, size, dtype=np.uint8)
        yield inputs, y, _asked(inputs, y), answer(rng, inputs, y)


def simulate(protocol: ProtocolSpec | DeterministicStrategy, config: TrialConfig) -> Estimate:
    """Play the game ``config.trials`` times and estimate the success rate.

    Identical (protocol, config) pairs reproduce identical estimates.
    """
    successes = 0
    for _, _, asked, answers in _play(protocol, config):
        successes += int(np.count_nonzero(answers == asked))
    mean = successes / config.trials
    return Estimate(mean=mean, stderr=math.sqrt(mean * (1.0 - mean) / config.trials), trials=config.trials)


def answer_counts(spec: ProtocolSpec, config: TrialConfig) -> np.ndarray:
    """Histogram of sampled answers, indexed by (x1, x2, question-1, answer).

    Uses the same variate stream as :func:`simulate`, so the histogram is the
    full record of an identically-seeded run.
    """
    shape = (_check_spec(spec).d, spec.d, 2, spec.d)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    for inputs, y, _, answers in _play(spec, config):
        # One expression: a named cell index would stay alive while the next chunk is drawn.
        counts += np.bincount(
            np.ravel_multi_index((inputs[0], inputs[1], y, answers), shape), minlength=counts.size
        )
    return counts.reshape(shape)

"""Independent reference implementations used as test oracles.

Everything here recomputes the protocols from first principles with dense
matrices, numpy matrix powers, explicit projectors, and numeric
normalization, deliberately sharing no code path with the package under
test.  Values frozen into the test modules were produced by these functions.
The one exception is the Monte Carlo stream replay, which takes the top entry
of the package's Born row of the anchor as an argument: drawing the same
outcomes needs the same float.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from numpy.linalg import matrix_power


def shift_matrix(d: int) -> np.ndarray:
    mat = np.zeros((d, d), dtype=complex)
    for k in range(d):
        mat[(k + 1) % d, k] = 1.0
    return mat


def clock_matrix(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def fourier_matrix(d: int) -> np.ndarray:
    """Rows are the Fourier basis vectors."""
    omega = np.exp(2j * np.pi / d)
    return np.array([[omega ** (k * l) for k in range(d)] for l in range(d)]) / np.sqrt(d)


def dense_anchor(d: int) -> np.ndarray:
    zero = np.zeros(d, dtype=complex)
    zero[0] = 1.0
    vec = zero + fourier_matrix(d)[0]
    return vec / np.linalg.norm(vec)


def dense_encode(d: int, d_prime: int, x1: int, x2: int, variant: str) -> np.ndarray:
    if variant == "canonical":
        a = x1 if x1 < d_prime else 0
        b = x2 if x2 < d_prime else 0
    elif variant == "literal":
        a, b = (x1, x2) if (x1 < d_prime and x2 < d_prime) else (0, 0)
    else:
        raise ValueError(variant)
    op = matrix_power(shift_matrix(d_prime), a) @ matrix_power(clock_matrix(d_prime), b)
    return op @ dense_anchor(d_prime)


def dense_game(d: int, d_prime: int, variant: str) -> tuple[float, float, np.ndarray]:
    """(average, worst-input average, per-(x1,x2,y) matrix) of the quantum game."""
    fourier = fourier_matrix(d_prime)
    fallback = [0] + list(range(d_prime, d))
    per = np.zeros((d, d, 2))
    for x1 in range(d):
        for x2 in range(d):
            state = dense_encode(d, d_prime, x1, x2, variant)
            for yi, basis in enumerate((np.eye(d_prime, dtype=complex), fourier)):
                target = x1 if yi == 0 else x2
                success = 0.0
                for outcome in range(d_prime):
                    projector = np.outer(basis[outcome], basis[outcome].conj())
                    prob = np.vdot(state, projector @ state).real
                    if outcome >= 1:
                        success += prob * (1.0 if target == outcome else 0.0)
                    else:
                        success += prob * fallback.count(target) / len(fallback)
                per[x1, x2, yi] = success
    return float(per.mean()), float(per.mean(axis=-1).min()), per


def dense_answer_distribution(d: int, d_prime: int, x1: int, x2: int, y: int, variant: str) -> np.ndarray:
    """Distribution of the announced answer for one (input, question) cell."""
    state = dense_encode(d, d_prime, x1, x2, variant)
    basis = np.eye(d_prime, dtype=complex) if y == 1 else fourier_matrix(d_prime)
    fallback = [0] + list(range(d_prime, d))
    dist = np.zeros(d)
    for outcome in range(d_prime):
        projector = np.outer(basis[outcome], basis[outcome].conj())
        prob = np.vdot(state, projector @ state).real
        if outcome >= 1:
            dist[outcome] += prob
        else:
            for answer in fallback:
                dist[answer] += prob / len(fallback)
    return dist


def r_max_by_strict_search(d: int) -> int:
    """Largest r with d > r^2 + 3r + 1, found by walking r upward in integers."""
    r = 0
    while d > (r + 1) ** 2 + 3 * (r + 1) + 1:
        r += 1
    return r


def table_statistics(per_input) -> tuple[float, float]:
    """(average, worst case) of a success table whose last axis is the question:
    the mean of every cell, and the least per-input sum of the question planes,
    added in order, over the number of questions."""
    per_input = np.asarray(per_input, dtype=float)
    planes = [per_input[..., q] for q in range(per_input.shape[-1])]
    return float(per_input.mean()), float(sum(planes).min()) / len(planes)


def classical_average(n: int, d: int, encoder: dict, decoders: list[dict]) -> float:
    hits = 0
    for x in itertools.product(range(d), repeat=n):
        message = encoder[x]
        for y in range(n):
            hits += decoders[y][message] == x[y]
    return hits / (n * d**n)


def classical_optimum_full_enumeration(n: int, d: int) -> float:
    """Maximum over every encoder and every decoder tuple.  Tiny sizes only."""
    inputs = list(itertools.product(range(d), repeat=n))
    best = 0.0
    decoder_tables = list(itertools.product(range(d), repeat=d))
    for encoder_values in itertools.product(range(d), repeat=len(inputs)):
        encoder = dict(zip(inputs, encoder_values))
        for decoder_choice in itertools.product(decoder_tables, repeat=n):
            decoders = [dict(enumerate(table)) for table in decoder_choice]
            best = max(best, classical_average(n, d, encoder, decoders))
    return best


def classical_optimum_by_column_multisets(n: int, d: int) -> tuple[Fraction, tuple, tuple]:
    """Optimum, smallest optimal decoder tuple and its greedy encoder.

    Scores every multiset of d decoder columns (f_1(m), ..., f_n(m)), each input
    taking its best column; columns drawn in lexicographic order read as the
    multiset's smallest decoder tuple.  The encoder sends, per input, the
    smallest message with the most right answers.  Small sizes only.
    """
    inputs = list(itertools.product(range(d), repeat=n))

    def right(column, x):
        return sum(column[y] == x[y] for y in range(n))

    best_hits, best_decoders = -1, None
    for columns in itertools.combinations_with_replacement(inputs, d):
        hits = sum(max(right(c, x) for c in columns) for x in inputs)
        decoders = tuple(tuple(c[y] for c in columns) for y in range(n))
        if hits > best_hits or (hits == best_hits and decoders < best_decoders):
            best_hits, best_decoders = hits, decoders
    columns = list(zip(*best_decoders))
    encoder = tuple(max(range(d), key=lambda m: right(columns[m], x)) for x in inputs)
    return Fraction(best_hits, n * d**n), best_decoders, encoder


def majority_hits_by_multiplicity_patterns(n: int, d: int) -> tuple[int, int]:
    """(sum over the d^n strings of the largest dit count, number of strings counted).

    Sums over the partitions of n: a string's dit counts, sorted, are a partition with
    k <= d parts, and d!/((d - k)! prod_j m_j!) * n!/prod_i part_i! strings have it, where
    m_j is how many parts equal j.  The count returned beside the sum should be d^n.
    """

    def partitions(rest: int, top: int):
        if rest == 0:
            yield ()
        for part in range(min(rest, top), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part, *tail)

    hits = strings = 0
    for parts in partitions(n, n):
        if len(parts) > d:
            continue
        letters = math.perm(d, len(parts)) // math.prod(map(math.factorial, Counter(parts).values()))
        count = letters * math.factorial(n) // math.prod(map(math.factorial, parts))
        hits, strings = hits + parts[0] * count, strings + count
    return hits, strings


def _stream_dtype(bound: int, floor: type = np.uint8) -> type:
    """The smallest unsigned integer type, from ``floor`` up, that holds ``bound``."""
    types = (np.uint8, np.uint16, np.uint32, np.uint64)
    return next(t for t in types[types.index(floor):] if bound <= np.iinfo(t).max)


def _anchor_outcomes(u: np.ndarray, b0: float, d_prime: int) -> np.ndarray:
    """The anchor's outcome for each uniform u, in the stream's float steps:
    0 when u < b0, else 1 + min(floor((u - b0) s), d_prime - 2) with s = (d_prime - 1) / (1 - b0)."""
    if d_prime == 1:
        return np.zeros(len(u), dtype=np.uint64)
    s = (d_prime - 1) / (1 - b0)
    return np.where(u < b0, 0, 1 + np.minimum(np.floor((u - b0) * s), d_prime - 2)).astype(np.uint64)


def stream_five_answer_counts(
    d: int, d_prime: int, variant: str, trials: int, seed: int, b0: float, chunk: int
) -> np.ndarray:
    """Answer histogram [x1, x2, y-1, answer] of random stream 5.

    Replays ``default_rng(seed)`` chunk by chunk in the stream's order: one
    cell below 2 d^2 per trial, drawn in the smallest of uint16, uint32 and
    uint64 that holds it and read as ``np.unravel_index(cell, (d, d, 2))`` =
    (x1, x2, y), so the question is the least significant digit; then one
    outcome uniform u per trial; then, when the fallback set {0, d_prime, ...,
    d-1} has more than one dit, one index into it per trial that announces 0,
    in trial order, in the smallest unsigned type that holds 2d - 1.  The
    announced outcome adds the asked question's power to the anchor's, mod
    d_prime.  ``b0`` is the top entry of the sampler's Born row of the anchor.
    """
    cell_type, pick_type = _stream_dtype(2 * d * d - 1, np.uint16), _stream_dtype(2 * d - 1)
    fallback = np.array([0] + list(range(d_prime, d)))
    counts = np.zeros((d, d, 2, d), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        x1, x2, y = np.unravel_index(rng.integers(0, 2 * d * d, size, dtype=cell_type), (d, d, 2))
        u = rng.random(size)
        fits1, fits2 = x1 < d_prime, x2 < d_prime
        if variant == "literal":
            fits1 = fits2 = fits1 & fits2
        power = np.where(y == 0, np.where(fits1, x1, 0), np.where(fits2, x2, 0))
        answers = (_anchor_outcomes(u, b0, d_prime).astype(np.int64) + power) % d_prime
        if len(fallback) > 1:
            zero = np.flatnonzero(answers == 0)
            answers[zero] = fallback[rng.integers(0, len(fallback), len(zero), dtype=pick_type)]
        np.add.at(counts, (x1, x2, y, answers), 1)
    return counts


def stream_five_classical_successes(
    n: int, d: int, encoder, decoders, trials: int, seed: int, chunk: int
) -> int:
    """Successes of a deterministic strategy played on random stream 5.

    Each chunk draws one cell below n d^n per trial, in the smallest of
    uint16, uint32 and uint64 that holds it, and nothing more.  The cell is read
    as ``np.unravel_index(cell, (d,) * n + (n,))`` = (x_1, ..., x_n, y).
    ``encoder`` is indexed by the input's lexicographic rank (first dit most
    significant), ``decoders[y]`` by the message.
    """
    encoder, decoders = np.array(encoder), np.array(decoders)
    shape = (d,) * n
    hits = 0
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        cell = rng.integers(0, n * d**n, size, dtype=_stream_dtype(n * d**n - 1, np.uint16))
        *inputs, y = np.unravel_index(cell, shape + (n,))
        answers = decoders[y, encoder[np.ravel_multi_index(inputs, shape)]]
        hits += int(np.count_nonzero(answers == np.array(inputs)[y, np.arange(size)]))
    return hits


def stream_five_full_answers(d: int, trials: int, seed: int, b0: float) -> tuple[list[int], list[int]]:
    """Asked dits and answers of the full protocol at dimension d on random
    stream 5, for at most one chunk of trials, decoded trial by trial in Python
    integers.

    The digits y (radix 2), x2 and x1 (radix d), least significant first, go
    greedily into words whose radix product is at most 2^64; each word is one
    draw per trial below that product, in the smallest of uint16, uint32 and
    uint64 that holds it, the words in digit order.  The outcome uniforms
    follow; no fallback index is drawn, as the fallback set is {0}.
    """
    words = [[]]
    for radix in (2, d, d):
        if math.prod(words[-1]) * radix > 2**64:
            words.append([])
        words[-1].append(radix)
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, math.prod(w), trials, dtype=_stream_dtype(math.prod(w) - 1, np.uint16)).tolist()
             for w in words]
    outcomes = _anchor_outcomes(rng.random(trials), b0, d).tolist()
    asked, answers = [], []
    for trial, outcome in enumerate(outcomes):
        digits = []
        for radices, draw in zip(words, draws):
            value = draw[trial]
            for radix in radices:
                value, digit = divmod(value, radix)
                digits.append(digit)
        y, x2, x1 = digits
        asked.append((x1, x2)[y])
        answers.append((outcome + asked[-1]) % d)
    return asked, answers

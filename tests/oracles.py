"""Independent reference implementations used as test oracles.

Everything here recomputes the protocols from first principles with dense
matrices, numpy matrix powers, explicit projectors, and numeric
normalization, deliberately sharing no code path with the package under
test.  Values frozen into the test modules were produced by these functions.
"""

from __future__ import annotations

import itertools
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

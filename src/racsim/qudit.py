"""Exact linear algebra for single qudits of small dimension.

Conventions used throughout the package:

* a state vector is a 1-D complex numpy array of unit norm;
* a basis is a (dim, dim) complex array whose *rows* are the basis vectors;
* dit and basis labels are 0-based, running over {0, ..., dim-1}.

The shift and clock operators are applied structurally (an index roll and a
diagonal phase), never as dense matrices, so a single application costs O(dim)
and stays exact up to floating-point phase evaluation.
"""

from __future__ import annotations

import numpy as np

from .report import check_int

#: Tolerance for norm / orthogonality assertions.  Double precision keeps the
#: error of every operation in this package far below this for dim <= ~100.
ATOL = 1e-12


def _check_state(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1 or state.shape[0] < 1:
        raise ValueError(f"state must be a nonempty 1-D vector, got shape {state.shape}")
    return state


def root_of_unity(dim: int) -> complex:
    """Primitive dim-th root of unity exp(2*pi*i/dim)."""
    dim = check_int(dim, "dimension", 1)
    return complex(np.exp(2j * np.pi / dim))


def computational_basis(dim: int) -> np.ndarray:
    """The standard basis {|0>, ..., |dim-1>} as rows of the identity."""
    dim = check_int(dim, "dimension", 1)
    return np.eye(dim, dtype=complex)


def fourier_basis(dim: int) -> np.ndarray:
    """Discrete-Fourier basis: row l has amplitude omega^(k*l)/sqrt(dim) at index k."""
    k = np.arange(check_int(dim, "dimension", 1))
    # Exponentiate the dim distinct phases once, then gather them by k*l mod
    # dim, which also keeps the phases exact for large k*l products.  The
    # dim x dim index is built first, so a basis too large to hold fails
    # before the phases are.
    index = np.outer(k, k) % dim
    return (np.exp(2j * np.pi * k / dim) / np.sqrt(dim))[index]


def anchor_state(dim: int) -> np.ndarray:
    """Normalized superposition of |0> and the uniform vector |e_0>.

    The normalization constant is sqrt(2 + 2/sqrt(dim)).
    """
    dim = check_int(dim, "dimension", 1)
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    amps[0] += 1.0
    return amps / np.sqrt(2.0 + 2.0 / np.sqrt(dim))


def clock_phases(dim: int, power: int) -> np.ndarray:
    """Diagonal of Clock^power: entry k is omega^(k*power)."""
    dim = check_int(dim, "dimension", 1)
    power = check_int(power, "power")
    exponents = (np.arange(dim) * (power % dim)) % dim
    return np.exp(2j * np.pi * exponents / dim)


def apply_shift(state: np.ndarray, power: int) -> np.ndarray:
    """Cyclically move the amplitude at index k to index (k + power) mod dim."""
    state = _check_state(state)
    return np.roll(state, check_int(power, "power") % state.shape[0])


def apply_clock(state: np.ndarray, power: int) -> np.ndarray:
    """Multiply the amplitude at index k by omega^(k*power)."""
    state = _check_state(state)
    return state * clock_phases(state.shape[0], power)


def born_distribution(state: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Outcome probabilities |<basis_l|state>|^2 of a projective measurement."""
    state = _check_state(state)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError(f"basis must be a square matrix of row vectors, got shape {basis.shape}")
    if basis.shape[1] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: basis is {basis.shape[0]}-dimensional, "
            f"state is {state.shape[0]}-dimensional"
        )
    # |<b|s>| = |b . conj(s)|: conjugating the state spares a dim x dim copy of the basis.
    return np.abs(basis @ state.conj()) ** 2


def is_unit_norm(state: np.ndarray, atol: float = ATOL) -> bool:
    state = _check_state(state)
    return abs(np.vdot(state, state).real - 1.0) <= atol


def is_orthonormal(basis: np.ndarray, atol: float = ATOL) -> bool:
    """True when the rows of ``basis`` form a complete orthonormal set."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        return False
    gram = basis.conj() @ basis.T
    return bool(np.max(np.abs(gram - np.eye(basis.shape[0]))) <= atol)

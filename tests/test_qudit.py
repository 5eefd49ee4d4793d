"""Qudit primitives: bases, operators, anchor state, Born rule."""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from racsim import qudit

RNG = np.random.default_rng(90125)


def random_state(dim: int) -> np.ndarray:
    vec = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
    return vec / np.linalg.norm(vec)


class TestRootOfUnity:
    def test_identity_case(self):
        assert qudit.root_of_unity(1) == pytest.approx(1.0)

    def test_dim_two(self):
        assert qudit.root_of_unity(2) == pytest.approx(-1.0)

    def test_dim_four(self):
        assert qudit.root_of_unity(4) == pytest.approx(1j)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            qudit.root_of_unity(0)


class TestComputationalBasis:
    def test_is_the_identity(self):
        np.testing.assert_allclose(qudit.computational_basis(5), np.eye(5), atol=1e-15)


class TestFourierBasis:
    def test_two_point_transform(self):
        basis = qudit.fourier_basis(2)
        np.testing.assert_allclose(basis[0], [1, 1] / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(basis[1], [1, -1] / np.sqrt(2), atol=1e-15)

    def test_dim_three_row_one(self):
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(
            qudit.fourier_basis(3)[1], np.array([1, omega, omega**2]) / np.sqrt(3), atol=1e-15
        )

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_gram_matrix_is_identity(self, dim):
        basis = qudit.fourier_basis(dim)
        gram = basis.conj() @ basis.T
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_mutually_unbiased_with_computational(self, dim):
        """|<l|e_m>|^2 = 1/dim for every pair of labels."""
        overlaps = np.abs(qudit.fourier_basis(dim)) ** 2
        np.testing.assert_allclose(overlaps, np.full((dim, dim), 1 / dim), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            qudit.fourier_basis(0)

    def test_oversized_basis_fails_before_building_phases(self):
        """The dim x dim index is allocated first, so a basis too large to hold
        raises MemoryError having touched no more than the index vector."""
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from racsim import qudit
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                qudit.fourier_basis(10**6)
            except MemoryError:
                print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
            """
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        # ru_maxrss is in KiB: the 8 MB int64 vector k, not the 16 MB phases beside it.
        assert int(result.stdout) < 12 * 1024

    @pytest.mark.parametrize("dim", [*range(1, 129), 1024])
    def test_matches_dense_exponentiation_bit_for_bit(self, dim):
        k = np.arange(dim)
        expected = np.exp(2j * np.pi * (np.outer(k, k) % dim) / dim) / np.sqrt(dim)
        assert np.array_equal(qudit.fourier_basis(dim), expected)


class TestApplyPauli:
    def test_shift_wraps_cyclically(self):
        state = np.zeros(3, dtype=complex)
        state[2] = 1.0
        shifted = qudit.apply_shift(state, 1)
        np.testing.assert_allclose(shifted, [1, 0, 0], atol=1e-15)

    def test_clock_is_pauli_z_for_qubits(self):
        state = np.array([0, 1], dtype=complex)
        np.testing.assert_allclose(qudit.apply_clock(state, 1), [0, -1], atol=1e-15)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qudit.apply_clock(random_state(3), 0.5),
            lambda: qudit.apply_clock(random_state(3), True),
            lambda: qudit.apply_shift(random_state(3), 1.5),
            lambda: qudit.apply_shift(random_state(3), True),
        ],
        ids=["clock-half", "clock-bool", "shift-float", "shift-bool"],
    )
    def test_rejects_non_integers(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_shift_has_period_dim(self, dim):
        state = random_state(dim)
        np.testing.assert_allclose(qudit.apply_shift(state, dim), state, atol=1e-12)
        np.testing.assert_allclose(qudit.apply_clock(state, dim), state, atol=1e-12)

    def test_unitarity_randomized(self):
        """Norm preservation over 1000 random (dim, power, state) cases."""
        for _ in range(1000):
            dim = int(RNG.integers(1, 65))
            power = int(RNG.integers(-3 * dim, 3 * dim + 1))
            state = random_state(dim)
            for op in (qudit.apply_shift, qudit.apply_clock):
                assert qudit.is_unit_norm(op(state, power))

    def test_weyl_commutation(self):
        """ZX = omega XZ, amplitude-wise on every basis vector."""
        for dim in range(2, 17):
            omega = qudit.root_of_unity(dim)
            for k in range(dim):
                basis_vec = np.zeros(dim, dtype=complex)
                basis_vec[k] = 1.0
                clock_after_shift = qudit.apply_clock(qudit.apply_shift(basis_vec, 1), 1)
                shift_after_clock = qudit.apply_shift(qudit.apply_clock(basis_vec, 1), 1)
                np.testing.assert_allclose(
                    clock_after_shift, omega * shift_after_clock, atol=1e-12
                )

    def test_fourier_diagonalization(self):
        """Clock advances Fourier labels; shift only phases them by omega^-l."""
        for dim in range(2, 17):
            basis = qudit.fourier_basis(dim)
            omega = qudit.root_of_unity(dim)
            for label in range(dim):
                clocked = qudit.apply_clock(basis[label], 1)
                np.testing.assert_allclose(clocked, basis[(label + 1) % dim], atol=1e-12)
                shifted = qudit.apply_shift(basis[label], 1)
                np.testing.assert_allclose(shifted, omega ** (-label) * basis[label], atol=1e-12)


class TestAnchorState:
    def test_qubit_form(self):
        """(|0> + |0_X>)/sqrt(2 + sqrt(2)) for dimension two."""
        plus = np.array([1, 1]) / np.sqrt(2)
        zero = np.array([1, 0])
        expected = (zero + plus) / np.sqrt(2 + np.sqrt(2))
        np.testing.assert_allclose(qudit.anchor_state(2), expected, atol=1e-15)

    @pytest.mark.parametrize("dim", range(1, 33))
    def test_unit_norm(self, dim):
        assert qudit.is_unit_norm(qudit.anchor_state(dim))

    def test_zero_overlap_at_dim_four(self):
        # oracle: |<0|psi>|^2 = (1 + 1/sqrt(dim))/2, and independently the
        # amplitude (1 + 1/2)/sqrt(2 + 2/2) squared
        state = qudit.anchor_state(4)
        assert abs(state[0]) ** 2 == pytest.approx(0.75, abs=1e-12)
        assert abs(state[0]) ** 2 == pytest.approx((1.5 / np.sqrt(3)) ** 2, abs=1e-12)

    def test_matches_dense_construction(self):
        from oracles import dense_anchor

        for dim in range(1, 17):
            np.testing.assert_allclose(qudit.anchor_state(dim), dense_anchor(dim), atol=1e-12)


class TestBornDistribution:
    def test_point_mass_on_own_basis(self):
        basis = qudit.fourier_basis(5)
        probs = qudit.born_distribution(basis[3], basis)
        expected = np.zeros(5)
        expected[3] = 1.0
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_completeness_randomized(self):
        for _ in range(200):
            dim = int(RNG.integers(1, 33))
            probs = qudit.born_distribution(random_state(dim), qudit.fourier_basis(dim))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_anchor_in_computational_basis(self, dim):
        probs = qudit.born_distribution(qudit.anchor_state(dim), qudit.computational_basis(dim))
        assert probs[0] == pytest.approx(0.5 * (1 + 1 / np.sqrt(dim)), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qudit.born_distribution(random_state(3), qudit.computational_basis(4))

    def test_matches_conjugated_basis_product(self):
        for dim in range(1, 65):
            state, basis = random_state(dim), qudit.fourier_basis(dim)
            want = np.abs(basis.conj() @ state) ** 2
            np.testing.assert_allclose(qudit.born_distribution(state, basis), want, rtol=0, atol=1e-15)

    def test_makes_no_copy_of_the_basis(self):
        """A conjugated copy of the 1024 x 1024 basis would take 16.8 MB."""
        state, basis = qudit.anchor_state(1024), qudit.fourier_basis(1024)
        tracemalloc.start()
        try:
            qudit.born_distribution(state, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

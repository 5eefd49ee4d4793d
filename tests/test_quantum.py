"""Quantum protocol encoders, decoders, and exact success evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from racsim import qudit
from racsim.advantage import r_max
from racsim.quantum import (
    GatingVariant,
    GuessDistribution,
    ProtocolSpec,
    _anchor_born,
    _powers,
    answer_distribution,
    closed_form_full,
    closed_form_restricted,
    encode_restricted,
    exact_success,
    guess_from_outcome,
)

from racsim.montecarlo import TrialConfig, answer_counts, simulate

from oracles import dense_answer_distribution, dense_encode, dense_game

RNG = np.random.default_rng(424242)

# frozen by the dense-matrix oracle in tests/oracles.py
LITERAL_6_5_AVERAGE = 0.5302824984374854


class TestProtocolSpec:
    def test_r_is_the_dimension_gap(self):
        assert ProtocolSpec(6, 5).r == 1
        assert ProtocolSpec.full(6).r == 0

    @pytest.mark.parametrize("d, dprime", [(5, 6), (5, 0), (0, 0), (6.5, 5), (True, 1), (6, 5.0)])
    def test_rejects_bad_dimensions(self, d, dprime):
        with pytest.raises(ValueError):
            ProtocolSpec(d, dprime)


class TestEncodeFull:
    """encode_restricted on a full spec: Shift^x1 Clock^x2 on the anchor."""

    def test_zero_string_is_anchor(self):
        for d in (2, 3, 7):
            np.testing.assert_allclose(
                encode_restricted(ProtocolSpec.full(d), 0, 0), qudit.anchor_state(d), atol=1e-15
            )

    def test_qubit_bitflip_encoding(self):
        np.testing.assert_allclose(
            encode_restricted(ProtocolSpec.full(2), 1, 0),
            qudit.apply_shift(qudit.anchor_state(2), 1),
            atol=1e-15,
        )

    def test_first_dit_overlap_is_closed_form(self):
        """|<x1|psi_x1x2>|^2 = (1 + 1/sqrt(d))/2 for every input."""
        for d in (2, 3, 5, 8):
            for x1 in range(d):
                for x2 in range(d):
                    state = encode_restricted(ProtocolSpec.full(d), x1, x2)
                    assert abs(state[x1]) ** 2 == pytest.approx(
                        0.5 * (1 + 1 / math.sqrt(d)), abs=1e-12
                    )

    def test_matches_dense_oracle(self):
        for d in (2, 3, 6):
            for x1 in range(d):
                for x2 in range(d):
                    np.testing.assert_allclose(
                        encode_restricted(ProtocolSpec.full(d), x1, x2),
                        dense_encode(d, d, x1, x2, "canonical"),
                        atol=1e-12,
                    )

    def test_unit_norm_randomized(self):
        for _ in range(300):
            d = int(RNG.integers(1, 17))
            x1, x2 = int(RNG.integers(0, d)), int(RNG.integers(0, d))
            state = encode_restricted(ProtocolSpec.full(d), x1, x2)
            assert qudit.is_unit_norm(state)

    def test_rejects_out_of_range_dit(self):
        with pytest.raises(ValueError):
            encode_restricted(ProtocolSpec.full(3), 3, 0)


class TestEncodeRestricted:
    def test_reduces_to_full_when_r_is_zero(self):
        for variant in GatingVariant:
            spec = ProtocolSpec(6, 6, variant)
            for x1 in range(6):
                for x2 in range(6):
                    np.testing.assert_allclose(
                        encode_restricted(spec, x1, x2),
                        encode_restricted(ProtocolSpec.full(6), x1, x2),
                        atol=1e-15,
                    )

    def test_literal_gating_sends_anchor_when_either_dit_overflows(self):
        spec = ProtocolSpec(6, 5, GatingVariant.BOTH_OR_NOTHING)
        np.testing.assert_allclose(
            encode_restricted(spec, 5, 3), qudit.anchor_state(5), atol=1e-15
        )

    def test_independent_gating_applies_clock_alone(self):
        spec = ProtocolSpec(6, 5)
        expected = qudit.apply_clock(qudit.anchor_state(5), 3)
        np.testing.assert_allclose(encode_restricted(spec, 5, 3), expected, atol=1e-15)

    def test_matches_dense_oracle_both_variants(self):
        for d, m in [(4, 3), (6, 5), (7, 4)]:
            for variant in GatingVariant:
                spec = ProtocolSpec(d, m, variant)
                for x1 in range(d):
                    for x2 in range(d):
                        np.testing.assert_allclose(
                            encode_restricted(spec, x1, x2),
                            dense_encode(d, m, x1, x2, variant.value),
                            atol=1e-12,
                        )

    def test_encoded_states_have_unit_norm(self):
        for _ in range(300):
            d = int(RNG.integers(2, 13))
            m = int(RNG.integers(1, d + 1))
            variant = GatingVariant.INDEPENDENT if RNG.random() < 0.5 else GatingVariant.BOTH_OR_NOTHING
            spec = ProtocolSpec(d, m, variant)
            state = encode_restricted(spec, int(RNG.integers(0, d)), int(RNG.integers(0, d)))
            assert qudit.is_unit_norm(state)


class TestGuessFromOutcome:
    def test_nonzero_outcome_is_announced_verbatim(self):
        dist = guess_from_outcome(2, ProtocolSpec(6, 5))
        assert dist.support == ((2, 1.0),)

    def test_outcome_zero_spreads_over_ambiguous_values(self):
        dist = guess_from_outcome(0, ProtocolSpec(6, 5))
        assert dist.support == ((0, 0.5), (5, 0.5))

    def test_degenerates_to_point_mass_at_full_dimension(self):
        dist = guess_from_outcome(0, ProtocolSpec.full(4))
        assert dist.support == ((0, 1.0),)

    def test_normalization_randomized(self):
        for _ in range(1000):
            d = int(RNG.integers(2, 17))
            m = int(RNG.integers(1, d + 1))
            spec = ProtocolSpec(d, m)
            dist = guess_from_outcome(int(RNG.integers(0, m)), spec)
            assert sum(p for _, p in dist.support) == pytest.approx(1.0, abs=1e-12)
            assert all(0 <= a < d for a, _ in dist.support)

    def test_rejects_outcome_beyond_quantum_dimension(self):
        with pytest.raises(ValueError):
            guess_from_outcome(5, ProtocolSpec(6, 5))

    @pytest.mark.parametrize(
        "answer",
        [
            pytest.param(0.5, id="float"),
            pytest.param(1.0, id="integral-float"),
            pytest.param(np.float64(1), id="numpy-float"),
            pytest.param(True, id="bool"),
            pytest.param("1", id="str"),
            pytest.param(-1, id="negative"),
        ],
    )
    def test_guess_distribution_rejects_non_dit_answers(self, answer):
        with pytest.raises(ValueError):
            GuessDistribution(((answer, 1.0),))

    @pytest.mark.parametrize(
        "prob",
        [
            pytest.param(float("nan"), id="nan"),
            pytest.param(float("inf"), id="inf"),
            pytest.param("1", id="str"),
            pytest.param(True, id="bool"),
        ],
    )
    def test_guess_distribution_rejects_non_finite_probabilities(self, prob):
        with pytest.raises(ValueError):
            GuessDistribution(((0, prob),))


class TestExactSuccess:
    def test_qubit_protocol_value(self):
        report = exact_success(ProtocolSpec.full(2))
        expected = 0.5 * (1 + 1 / math.sqrt(2))
        assert report.average == pytest.approx(expected, abs=1e-12)
        assert report.worst_case == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [*range(2, 65), 512])
    def test_full_protocol_matches_closed_form(self, d):
        report = exact_success(ProtocolSpec.full(d))
        assert report.average == pytest.approx(closed_form_full(d), abs=1e-12)
        # worst case equals average: per-input success is constant
        assert np.ptp(report.per_input) <= 1e-12

    def test_restricted_matches_closed_form_everywhere(self):
        for d in range(2, 33):
            for r in range(1, d - 1):
                got = exact_success(ProtocolSpec(d, d - r)).average
                assert got == pytest.approx(closed_form_restricted(d, r), abs=1e-12), (d, r)

    def test_boundary_case_ties_classical_value(self):
        assert exact_success(ProtocolSpec(5, 4)).average == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("d", [2**40, 10**400])
    def test_oversized_game_fails_before_any_table(self, d, monkeypatch):
        """The (d, d, 2) output is allocated first, so numpy refuses it before the anchor is built."""
        calls = []
        anchor_state = qudit.anchor_state
        monkeypatch.setattr(qudit, "anchor_state", lambda dim: calls.append(dim) or anchor_state(dim))
        with pytest.raises(ValueError):
            exact_success(ProtocolSpec.full(d))
        assert calls == []
        assert exact_success(ProtocolSpec.full(3)).average == pytest.approx(closed_form_full(3), abs=1e-15)
        assert calls == [3]

    def test_literal_gating_value_and_ordering(self):
        report = exact_success(ProtocolSpec(6, 5, GatingVariant.BOTH_OR_NOTHING))
        assert report.average == pytest.approx(LITERAL_6_5_AVERAGE, abs=1e-12)
        assert report.average < 7 / 12 < closed_form_restricted(6, 1)

    def test_literal_is_strictly_below_independent(self):
        for d in range(2, 33):
            for r in range(1, d - 1):
                literal = exact_success(ProtocolSpec(d, d - r, GatingVariant.BOTH_OR_NOTHING))
                independent = exact_success(ProtocolSpec(d, d - r))
                assert literal.average < independent.average, (d, r)

    def test_matches_dense_oracle(self):
        for d, m, variant in [
            (2, 2, "canonical"), (6, 5, "canonical"), (6, 5, "literal"), (7, 4, "literal"),
            (13, 9, "canonical"), (13, 9, "literal"), (16, 16, "canonical"),
        ]:
            avg, worst, per = dense_game(d, m, variant)
            report = exact_success(ProtocolSpec(d, m, GatingVariant(variant)))
            assert report.average == pytest.approx(avg, abs=1e-12)
            assert report.worst_case == pytest.approx(worst, abs=1e-12)
            np.testing.assert_allclose(report.per_input, per, atol=1e-12)

    def test_full_protocol_question_symmetry(self):
        """Success on the first dit via the computational basis equals success
        on the second via the Fourier basis, input by input."""
        for d in (2, 3, 6, 11):
            per = exact_success(ProtocolSpec.full(d)).per_input
            np.testing.assert_allclose(per[..., 0], per[..., 1], atol=1e-12)

    def test_answer_distribution_recovers_per_input_success(self):
        spec = ProtocolSpec(6, 5)
        per = exact_success(spec).per_input
        for x1 in range(6):
            for x2 in range(6):
                for y in (1, 2):
                    dist = answer_distribution(spec, x1, x2, y)
                    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
                    target = x1 if y == 1 else x2
                    assert per[x1, x2, y - 1] == pytest.approx(dist[target], abs=1e-12)

    @pytest.mark.parametrize("d, m", [(6, 5), (7, 4), (9, 9)])
    @pytest.mark.parametrize("variant", list(GatingVariant), ids=lambda v: v.value)
    def test_answer_distribution_matches_dense_oracle(self, d, m, variant):
        spec = ProtocolSpec(d, m, variant)
        for x1 in range(d):
            for x2 in range(d):
                for y in (1, 2):
                    np.testing.assert_allclose(
                        answer_distribution(spec, x1, x2, y),
                        dense_answer_distribution(d, m, x1, x2, y, variant.value),
                        atol=1e-12,
                    )


def rolled_born_table(m):
    """T[p, l]: the anchor's Born distribution rolled by power p, the same in both bases."""
    rolls = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [p, l] -> l - p
    return _anchor_born(m)[rolls]


def reference_per_input(spec):
    """Answer table and per_input from the rolled Born table @ a guess matrix built from guess_from_outcome."""
    guess = np.zeros((spec.d_prime, spec.d))
    for outcome in range(spec.d_prime):
        for a, p in guess_from_outcome(outcome, spec).support:
            guess[outcome, a] += p
    answers = rolled_born_table(spec.d_prime) @ guess  # [power, answer], either question
    x1, x2 = np.meshgrid(np.arange(spec.d), np.arange(spec.d), indexing="ij")
    a, b = _powers(spec, x1, x2)
    return answers, np.stack([answers[a, x1], answers[b, x2]], axis=-1)


class TestBitIdentity:
    """The direct read gives the table-times-guess-matrix numbers exactly, so golden files hold."""

    @pytest.mark.parametrize("variant", list(GatingVariant), ids=lambda v: v.value)
    def test_exact_success_and_answer_distribution_match_reference(self, variant):
        for d in range(1, 25):
            for m in range(1, d + 1):
                spec = ProtocolSpec(d, m, variant)
                answers, per = reference_per_input(spec)
                np.testing.assert_array_equal(exact_success(spec).per_input, per)
                # (p, p) selects power p for both questions; the rest gate dits out of range.
                for x1, x2 in [*((p, p) for p in range(m)), (d - 1, 0), (0, d - 1), (d - 1, d - 1)]:
                    a, b = _powers(spec, x1, x2)
                    for y, power in ((1, a), (2, b)):
                        np.testing.assert_array_equal(answer_distribution(spec, x1, x2, y), answers[power])

    def test_anchor_computational_distribution_matches_identity_measurement(self):
        """|anchor|^2 is, bit for bit, the Born rule in the identity basis it replaced."""
        for m in [*range(1, 300), 512, 1024]:
            anchor = qudit.anchor_state(m)
            expected = qudit.born_distribution(anchor, qudit.computational_basis(m))
            np.testing.assert_array_equal(_anchor_born(m), expected)

    def test_anchor_fourier_distribution_equals_computational_one(self):
        """The Fourier basis swaps |0> and the uniform vector, so the anchor's two distributions agree."""
        for m in [*range(1, 301), 512, 1024, 2048]:
            anchor = qudit.anchor_state(m)
            for basis in (qudit.fourier_basis(m), qudit.computational_basis(m)):
                expected = qudit.born_distribution(anchor, basis)
                np.testing.assert_allclose(_anchor_born(m), expected, rtol=0, atol=1e-14)

    def test_hot_paths_build_no_fourier_basis(self, monkeypatch):
        def refuse(dim):
            raise AssertionError("dense Fourier basis built")

        monkeypatch.setattr(qudit, "fourier_basis", refuse)
        spec = ProtocolSpec(6, 5)
        assert exact_success(spec).average == pytest.approx(closed_form_restricted(6, 1), abs=1e-12)
        assert answer_distribution(spec, 2, 3, 2).sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < simulate(spec, TrialConfig(1000, 0)).mean < 1.0
        assert answer_counts(spec, TrialConfig(1000, 0)).sum() == 1000

    def test_peak_memory_at_d_1024(self):
        d = 1024
        spec = ProtocolSpec(d, d - r_max(d))
        tracemalloc.start()
        try:
            report = exact_success(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6
        assert report.average == pytest.approx(closed_form_restricted(d, r_max(d)), abs=1e-12)


class TestClosedForms:
    def test_full_values(self):
        assert closed_form_full(2) == pytest.approx(0.8535533905932737, abs=1e-12)
        assert closed_form_full(4) == pytest.approx(0.75, abs=1e-12)
        assert closed_form_full(9) == pytest.approx(2 / 3, abs=1e-12)

    def test_restricted_reduces_to_full_at_r_zero(self):
        for d in range(1, 40):
            assert closed_form_restricted(d, 0) == closed_form_full(d)

    def test_restricted_values(self):
        assert closed_form_restricted(6, 1) == pytest.approx(0.6030056647916492, abs=1e-12)
        assert closed_form_restricted(11, 2) == pytest.approx(6 / 11, abs=1e-12)

    def test_scalar_forms_are_python_floats_of_the_textbook_expressions(self):
        # Rendered output depends on these being the same doubles as plain math.sqrt arithmetic.
        for d in [*range(1, 300), 1024, 2005, 10**6 + 7, 2**53 + 1, 10**20]:
            full = closed_form_full(d)
            assert type(full) is float and full == 0.5 * (1.0 + 1.0 / math.sqrt(d)), d
            for r in {0, d // 3, d - 1}:
                m = d - r
                restricted = closed_form_restricted(d, r)
                assert type(restricted) is float
                assert restricted == (m / (2.0 * d)) * (1.0 + 1.0 / math.sqrt(m)), (d, r)

    def test_rejects_r_at_least_d(self):
        with pytest.raises(ValueError):
            closed_form_restricted(4, 4)

    @pytest.mark.parametrize(
        "form, args",
        [(closed_form_full, (2.5,)), (closed_form_full, (True,)), (closed_form_restricted, (6, 1.5))],
        ids=["full-float", "full-bool", "restricted-float-r"],
    )
    def test_rejects_non_integers(self, form, args):
        with pytest.raises(ValueError):
            form(*args)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: exact_success("x"), id="exact_success"),
        pytest.param(lambda: answer_distribution("x", 0, 0, 1), id="answer_distribution"),
        pytest.param(lambda: guess_from_outcome(0, "x"), id="guess_from_outcome"),
        pytest.param(lambda: encode_restricted("x", 0, 0), id="encode_restricted"),
    ],
)
def test_rejects_non_spec(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda spec: qudit.root_of_unity(spec.d), id="root_of_unity"),
        pytest.param(lambda spec: qudit.anchor_state(spec.d_prime), id="anchor_state"),
        pytest.param(lambda spec: encode_restricted(spec, 0, 0), id="encode_restricted"),
        pytest.param(lambda spec: answer_distribution(spec, 0, 0, 1), id="answer_distribution"),
        pytest.param(lambda spec: simulate(spec, TrialConfig(10, 0)), id="simulate"),
    ],
)
def test_dimension_past_numpy_limits_is_a_value_error(call):
    """A 401-digit dimension is refused with ValueError, not numpy's TypeError or an OverflowError."""
    with pytest.raises(ValueError):
        call(ProtocolSpec.full(10**400))

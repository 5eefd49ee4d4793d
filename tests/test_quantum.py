"""Quantum protocol encoders, decoders, and exact success evaluation."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from racsim import quantum, qudit
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
from racsim.report import FLOAT_MAX, SuccessReport

from oracles import dense_answer_distribution, dense_encode, dense_game, table_statistics

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

    def test_rejects_a_variant_given_by_its_name(self):
        with pytest.raises(ValueError, match="variant must be a GatingVariant, got 'canonical'"):
            ProtocolSpec(6, 5, "canonical")


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

    def test_many_equal_chances_sum_to_one(self):
        """10^5 chances of 1/10^5 add to 1 - 1.9e-12 in order; their correctly rounded sum is 1."""
        dist = guess_from_outcome(0, ProtocolSpec(10**5, 1))
        assert len(dist.support) == 10**5
        assert math.fsum(p for _, p in dist.support) == 1.0

    @pytest.mark.parametrize("d", [2**63 + 4, 10**400])
    def test_fallback_set_past_numpy_limits_is_refused_by_size(self, d):
        """np.arange(5, 2**63 + 4) is an empty array; the set is allocated with np.empty first."""
        with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
            guess_from_outcome(0, ProtocolSpec(d, 5))

    def test_guess_distribution_refuses_a_total_of_one_half(self):
        with pytest.raises(ValueError, match="guess probabilities must sum to 1, got 0.5$"):
            GuessDistribution(((0, 0.5),))

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

    @pytest.mark.parametrize(
        "support, message",
        [
            pytest.param(((0, math.nan), (-1, 0.5)), "finite nonnegative", id="probability-first"),
            pytest.param(((-1, 0.5), (0, math.nan)), "at least 0, got -1$", id="answer-first"),
            pytest.param(((0, -0.5), (1.0, 0.5)), "finite nonnegative", id="negative-then-float"),
        ],
    )
    def test_guess_distribution_reports_the_first_bad_entry(self, support, message):
        with pytest.raises(ValueError, match=message):
            GuessDistribution(support)

    def test_guess_distribution_reports_a_bad_entry_before_a_later_non_pair(self):
        with pytest.raises(ValueError, match="at least 0, got -1$"):
            GuessDistribution(((-1, 0.5), (0, 0.25, 0.25)))

    @pytest.mark.parametrize(
        "support",
        [
            pytest.param(((np.int64(0), np.float64(0.5)), (5, 0.5)), id="numpy-scalars"),
            pytest.param(((0, 0.5), (5, 0.5), (7, -0.0)), id="negative-zero"),
            pytest.param(((0, Fraction(1, 4)), (5, 0.75)), id="fraction"),
            pytest.param([[0, 0.25], [5, 0.75]], id="lists"),
        ],
    )
    def test_guess_distribution_accepts_every_entry_the_entry_checks_accept(self, support):
        assert GuessDistribution(support).support == support


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
        """No table is built before the failure: at 2**40 the statistics are read and only the read of the
        (d, d, 2) table is refused, by numpy; a 401-digit d, past what a float divides by, is refused
        before the Born weights."""
        calls = []
        monkeypatch.setattr(quantum, "_anchor_born", lambda m: calls.append(m) or _anchor_born(m))
        if d > FLOAT_MAX:
            with pytest.raises(ValueError, match="needs d <= 1.798e[+]308, got d of 1329 bits$"):
                exact_success(ProtocolSpec.full(d))
            assert calls == []
        else:
            report = exact_success(ProtocolSpec.full(d))
            assert report.average == pytest.approx(closed_form_full(d), abs=1e-15)
            with pytest.raises(ValueError):
                report.per_input
            assert calls == [d]
        calls.clear()
        assert exact_success(ProtocolSpec.full(3)).average == pytest.approx(closed_form_full(3), abs=1e-15)
        assert calls == [3]

    @pytest.mark.parametrize("variant", list(GatingVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("d", [2**40, 2**63, 10**154, 10**200, 10**308, 10**400], ids=lambda d: f"{d.bit_length()}-bits")
    def test_huge_alphabets_give_finite_values_or_a_value_error(self, d, variant):
        """Past d = 1.8e308 (d * d under literal gating) the average's float division would overflow."""
        limit = FLOAT_MAX if variant is GatingVariant.INDEPENDENT else math.isqrt(int(FLOAT_MAX))
        for m in (1, 2, d // 3, d - 1, d):
            if d > limit and not (m == d and d <= FLOAT_MAX):
                with pytest.raises(ValueError, match=f"got d of {d.bit_length()} bits$"):
                    exact_success(ProtocolSpec(d, m, variant))
            else:
                report = exact_success(ProtocolSpec(d, m, variant))
                assert math.isfinite(report.average) and math.isfinite(report.worst_case), (m, variant)
                assert 0 < report.worst_case <= 1 and 0 < report.average <= 1, (m, variant)

    @pytest.mark.parametrize("variant", list(GatingVariant), ids=lambda v: v.value)
    def test_size_limit_is_exact(self, variant):
        limit = int(FLOAT_MAX) if variant is GatingVariant.INDEPENDENT else math.isqrt(int(FLOAT_MAX))
        for m in (1, limit // 2, limit - 1):
            assert math.isfinite(exact_success(ProtocolSpec(limit, m, variant)).average)
            with pytest.raises(ValueError):
                exact_success(ProtocolSpec(limit + 1, m, variant))

    def test_table_is_built_once(self):
        builds = []
        report = SuccessReport(0.5, 0.5, lambda: builds.append(1) or np.full((2, 2, 2), 0.5))
        assert builds == []
        assert report.per_input is report.per_input
        assert builds == [1]
        report = exact_success(ProtocolSpec(6, 5, GatingVariant.BOTH_OR_NOTHING))
        assert report.per_input is report.per_input

    def test_report_refuses_a_table_in_place_of_its_builder(self):
        with pytest.raises(TypeError, match="function that makes the table, got ndarray$"):
            SuccessReport(0.5, 0.5, np.full((2, 2, 2), 0.5))

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


def all_specs(dmax):
    return [ProtocolSpec(d, m, v) for d in range(1, dmax + 1) for m in range(1, d + 1) for v in GatingVariant]


class TestSeparableEvaluation:
    """Average and worst case come from two length-d vectors, not from the table they fill."""

    def test_worst_case_is_the_table_minimum_bit_for_bit(self):
        for spec in all_specs(40):
            report = exact_success(spec)
            assert report.worst_case == table_statistics(report.per_input)[1], spec

    def test_average_is_the_table_mean(self):
        for spec in all_specs(40):
            report = exact_success(spec)
            assert abs(report.average - report.per_input.mean()) <= 1e-15, spec

    def test_statistics_are_the_vector_formulas_bit_for_bit(self):
        """fsum over the table's fit row (x1 = 0, question 2) and gated row (x1 = d - 1), weighted by how
        often the other dit fits, and the least block sum: every spec with d <= 96 and a seeded sample to 2048."""
        rng = np.random.default_rng(2048)
        sample = [ProtocolSpec(int(d), int(rng.integers(1, d + 1)), GatingVariant(v))
                  for d, v in zip(rng.integers(97, 2049, 12), rng.choice(["canonical", "literal"], 12))]
        for spec in all_specs(96) + sample:
            d, m, report = spec.d, spec.d_prime, exact_success(spec)
            fit, gated = report.per_input[0, :, 1], report.per_input[-1, :, 1]
            if spec.variant is GatingVariant.INDEPENDENT or m == d:
                want = (math.fsum(fit.tolist()) / d, fit[0])
            else:
                average = (m * math.fsum(fit.tolist()) + (d - m) * math.fsum(gated.tolist())) / (d * d)
                want = (average, (gated[:m].min() + fit[0]) / 2)
            assert (report.average, report.worst_case) == want, spec

    def test_canonical_average_is_within_rounding_of_the_closed_form(self):
        """Against (d'/(2d))(1 + 1/sqrt(d')) to 50 digits."""
        with localcontext() as ctx:
            ctx.prec = 50
            for d in range(1, 65):
                for m in range(1, d + 1):
                    exact = Decimal(m) / (2 * Decimal(d)) * (1 + 1 / Decimal(m).sqrt())
                    got = exact_success(ProtocolSpec(d, m)).average
                    assert abs(Decimal(got) - exact) <= Decimal(4e-16), (d, m)


def rolled_born_table(m):
    """T[p, l]: the anchor's Born distribution rolled by power p, the same in both bases."""
    rolls = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m  # [p, l] -> l - p
    return (np.abs(qudit.anchor_state(m)) ** 2)[rolls]


def born_row(m):
    """The length-m row the weights (b0, b1) stand for: b0, then m - 1 copies of b1."""
    b0, b1 = _anchor_born(m)
    row = np.full(m, b1)
    row[0] = b0
    return row


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

    def test_born_weights_are_the_anchor_vector_squared(self):
        """(b0, b1) take the anchor's IEEE steps, so they equal |anchor|^2 bit for bit."""
        for m in [*range(1, 301), 512, 1024, 2**20]:
            born = np.abs(qudit.anchor_state(m)) ** 2
            b0, b1 = _anchor_born(m)
            assert type(b0) is float and type(b1) is float
            assert b0 == born[0], m
            assert np.all(born[1:] == b1), m

    def test_anchor_computational_distribution_matches_identity_measurement(self):
        """The weights give, bit for bit, the Born rule in the identity basis they replaced."""
        for m in [*range(1, 300), 512, 1024]:
            anchor = qudit.anchor_state(m)
            expected = qudit.born_distribution(anchor, qudit.computational_basis(m))
            np.testing.assert_array_equal(born_row(m), expected)

    def test_anchor_fourier_distribution_equals_computational_one(self):
        """The Fourier basis swaps |0> and the uniform vector, so the anchor's two distributions agree."""
        for m in [*range(1, 301), 512, 1024, 2048]:
            anchor = qudit.anchor_state(m)
            for basis in (qudit.fourier_basis(m), qudit.computational_basis(m)):
                expected = qudit.born_distribution(anchor, basis)
                np.testing.assert_allclose(born_row(m), expected, rtol=0, atol=1e-14)

    def test_hot_paths_build_no_fourier_basis(self, monkeypatch):
        def refuse(dim):
            raise AssertionError("dense Fourier basis built")

        monkeypatch.setattr(qudit, "fourier_basis", refuse)
        spec = ProtocolSpec(6, 5)
        assert exact_success(spec).average == pytest.approx(closed_form_restricted(6, 1), abs=1e-12)
        assert answer_distribution(spec, 2, 3, 2).sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < simulate(spec, TrialConfig(1000, 0)).mean < 1.0
        assert answer_counts(spec, TrialConfig(1000, 0)).sum() == 1000

    @pytest.mark.parametrize("variant", list(GatingVariant), ids=lambda v: v.value)
    def test_peak_memory_at_d_1024(self, variant):
        """The call and the read of its table: the (d, d, 2) float table alone takes 16.8 MB, under
        either gating, as literal gating overwrites its gated cells in place."""
        d = 1024
        spec = ProtocolSpec(d, d - r_max(d), variant)
        tracemalloc.start()
        try:
            report = exact_success(spec)
            per_input = report.per_input
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6
        assert per_input.mean() == pytest.approx(report.average, abs=1e-12)
        if variant is GatingVariant.INDEPENDENT:
            assert report.average == pytest.approx(closed_form_restricted(d, r_max(d)), abs=1e-12)

    def test_no_table_is_built_until_read_at_d_4096(self):
        d = 4096
        spec = ProtocolSpec(d, d - r_max(d))
        tracemalloc.start()
        try:
            report = exact_success(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 vector of d entries alone would take 8 d = 32 KB
        assert peak < min(64_000, 8 * d)
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

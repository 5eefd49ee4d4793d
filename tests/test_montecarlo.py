"""Seeded Monte Carlo: reproducibility, convergence, distribution-level checks."""

import math
import tracemalloc

import pytest
from scipy import stats

from racsim.classical import ClassicalTask, majority_identity_strategy
from racsim.montecarlo import _CHUNK, TrialConfig, answer_counts, simulate
from racsim.quantum import (
    GatingVariant,
    ProtocolSpec,
    answer_distribution,
    closed_form_full,
    closed_form_restricted,
    exact_success,
)


def reference_protocols():
    literal = ProtocolSpec(6, 5, GatingVariant.BOTH_OR_NOTHING)
    return [
        ("full d=2", ProtocolSpec.full(2), closed_form_full(2)),
        ("full d=6", ProtocolSpec.full(6), closed_form_full(6)),
        ("restricted 6/5 canonical", ProtocolSpec(6, 5), closed_form_restricted(6, 1)),
        ("restricted 6/5 literal", literal, exact_success(literal).average),
        (
            "classical majority d=6",
            majority_identity_strategy(ClassicalTask(2, 6)),
            7 / 12,
        ),
    ]


class TestTrialConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0, seed=1)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=1, seed=2**64)

    @pytest.mark.parametrize("trials, seed", [(1.5, 0), (True, 0), (10, 0.5), (10, False)])
    def test_rejects_non_integers(self, trials, seed):
        with pytest.raises(ValueError):
            TrialConfig(trials=trials, seed=seed)


class TestReproducibility:
    def test_identical_config_identical_estimate(self):
        config = TrialConfig(trials=50_000, seed=123456789)
        spec = ProtocolSpec(6, 5)
        assert simulate(spec, config) == simulate(spec, config)

    def test_different_seeds_differ(self):
        spec = ProtocolSpec(6, 5)
        a = simulate(spec, TrialConfig(trials=50_000, seed=1))
        b = simulate(spec, TrialConfig(trials=50_000, seed=2))
        assert a.mean != b.mean

    def test_classical_stream_reproducible(self):
        strategy = majority_identity_strategy(ClassicalTask(2, 6))
        config = TrialConfig(trials=50_000, seed=99)
        assert simulate(strategy, config) == simulate(strategy, config)


class TestEstimates:
    def test_single_trial_is_bernoulli(self):
        for seed in range(32):
            estimate = simulate(ProtocolSpec.full(2), TrialConfig(trials=1, seed=seed))
            assert estimate.mean in (0.0, 1.0)
            assert estimate.stderr == 0.0

    def test_stderr_formula(self):
        estimate = simulate(ProtocolSpec.full(2), TrialConfig(trials=10_000, seed=5))
        expected = math.sqrt(estimate.mean * (1 - estimate.mean) / estimate.trials)
        assert estimate.stderr == pytest.approx(expected, abs=1e-15)

    def test_deterministic_strategy_sampling_matches_exact_counting(self):
        strategy = majority_identity_strategy(ClassicalTask(3, 4))
        estimate = simulate(strategy, TrialConfig(trials=400_000, seed=2024))
        from racsim.classical import evaluate_strategy

        exact = evaluate_strategy(ClassicalTask(3, 4), strategy).average
        assert abs(estimate.mean - exact) <= 4 * estimate.stderr

    def test_unknown_protocol_rejected(self):
        with pytest.raises(TypeError):
            simulate(object(), TrialConfig(trials=10, seed=0))

    def test_memory_is_flat_in_trials(self):
        """Trials are played in chunks, so 2e6 trials never hold 2e6-long arrays."""
        tracemalloc.start()
        try:
            simulate(ProtocolSpec.full(6), TrialConfig(trials=2_000_000, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestConvergence:
    def test_million_trial_estimates_hit_exact_values(self):
        config = TrialConfig(trials=1_000_000, seed=20260809)
        for name, protocol, exact in reference_protocols():
            estimate = simulate(protocol, config)
            assert abs(estimate.mean - exact) <= 5 * estimate.stderr, name

    def test_twenty_seed_consistency(self):
        """At least 19 of 20 seeds land within 3 stderr, per reference protocol."""
        for name, protocol, exact in reference_protocols():
            misses = 0
            for seed in range(20):
                estimate = simulate(protocol, TrialConfig(trials=100_000, seed=seed))
                if abs(estimate.mean - exact) > 3 * estimate.stderr:
                    misses += 1
            assert misses <= 1, name


class TestAnswerFrequencies:
    def test_chi_square_against_exact_distribution(self):
        """Sampled answer frequencies per (input, question) cell follow the
        exact measurement-plus-guess distribution."""
        spec = ProtocolSpec(6, 5)
        counts = answer_counts(spec, TrialConfig(trials=1_000_000, seed=31337))
        observed, expected = [], []
        for x1 in range(6):
            for x2 in range(6):
                for y in (1, 2):
                    cell = counts[x1, x2, y - 1]
                    dist = answer_distribution(spec, x1, x2, y)
                    support = dist > 1e-15
                    observed.extend(cell[support])
                    expected.extend(cell.sum() * dist[support])
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 1e-3

    @pytest.mark.parametrize("trials", [10_000, 2 * _CHUNK + 3])
    def test_counts_total_matches_trials(self, trials):
        spec = ProtocolSpec(4, 3)
        counts = answer_counts(spec, TrialConfig(trials=trials, seed=8))
        assert counts.sum() == trials

    @pytest.mark.parametrize("trials", [40_000, 2 * _CHUNK + 3])
    def test_counts_agree_with_simulate_success(self, trials):
        spec = ProtocolSpec(5, 4)
        config = TrialConfig(trials=trials, seed=77)
        counts = answer_counts(spec, config)
        hits = 0
        for x1 in range(5):
            for x2 in range(5):
                hits += counts[x1, x2, 0, x1] + counts[x1, x2, 1, x2]
        assert hits / config.trials == simulate(spec, config).mean

    def test_counts_reject_classical_strategies(self):
        strategy = majority_identity_strategy(ClassicalTask(2, 4))
        with pytest.raises(TypeError):
            answer_counts(strategy, TrialConfig(trials=10, seed=0))

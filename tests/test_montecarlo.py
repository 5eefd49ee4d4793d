"""Seeded Monte Carlo: reproducibility, convergence, distribution-level checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from racsim import qudit
from racsim.classical import ClassicalTask, DeterministicStrategy, majority_identity_strategy
from racsim.montecarlo import _CHUNK, STREAM_VERSION, TrialConfig, answer_counts, simulate
from racsim.quantum import (
    GatingVariant,
    ProtocolSpec,
    _anchor_born,
    answer_distribution,
    closed_form_full,
    closed_form_restricted,
    exact_success,
)

from oracles import stream_four_answer_counts, stream_four_classical_successes


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

    @pytest.mark.parametrize("variant", list(GatingVariant))
    @pytest.mark.parametrize(
        "d, d_prime, trials",
        [(3, 1, 20_000), (6, 1, 20_000), (2, 2, 20_000), (6, 2, 20_000), (4, 3, 20_000), (6, 5, 2 * _CHUNK + 3),
         (10, 8, 20_000), (6, 6, 20_000), (9, 9, 20_000), (70, 64, 30_000), (128, 2, 20_000),
         (128, 128, 20_000), (129, 2, 20_000), (129, 129, 20_000)],
    )
    def test_answer_counts_replay_stream(self, d, d_prime, trials, variant):
        """The sampler draws exactly the answers of the stream-4 definition,
        replayed plainly: uint8 dits up to d = 128, uint16 from d = 129."""
        assert STREAM_VERSION == 4
        spec = ProtocolSpec(d, d_prime, variant)
        seed = 1000 * d + d_prime
        expected = stream_four_answer_counts(d, d_prime, variant.value, trials, seed, _anchor_born(d_prime)[0], _CHUNK)
        np.testing.assert_array_equal(answer_counts(spec, TrialConfig(trials, seed)), expected)

    @pytest.mark.parametrize("n, d, trials", [(1, 7, 20_000), (2, 5, 2 * _CHUNK + 3), (3, 4, 20_000), (2, 129, 20_000)])
    def test_classical_replay_stream(self, n, d, trials):
        """A strategy with arbitrary tables scores exactly the successes of the
        stream-4 definition, replayed plainly."""
        assert STREAM_VERSION == 4
        rng = np.random.default_rng(n * d)
        strategy = DeterministicStrategy(n, d, rng.integers(0, d, d**n), rng.integers(0, d, (n, d)))
        seed = 1000 * n + d
        hits = stream_four_classical_successes(n, d, strategy.encoder, strategy.decoders, trials, seed, _CHUNK)
        assert simulate(strategy, TrialConfig(trials, seed)).mean == hits / trials


class TestOutcomeSampling:
    def test_anchor_born_row_is_b0_then_equal_entries(self):
        """The closed-form inverse CDF assumes the anchor's Born row is b0
        followed by m - 1 equal entries (1 - b0) / (m - 1).  The subtraction
        1 - b0 cancels, so the entries sit up to 10 of their ulps (at m = 4) away."""
        for m in [*range(2, 1025), 2**20]:
            born = np.abs(qudit.anchor_state(m)) ** 2
            b0, b1 = _anchor_born(m)
            assert born[0] == b0 and np.all(born[1:] == b1), m
            rest = (1 - b0) / (m - 1)
            assert abs(b1 - rest) <= 16 * np.spacing(rest), m


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

    def test_memory_at_two_million_trials_is_a_few_narrow_chunks(self):
        """A chunk holds uint8 dits and one float64 uniform per trial, about
        3 MB traced; stream 3's int64 draws and selections peaked at 17 MB."""
        tracemalloc.start()
        try:
            simulate(ProtocolSpec.full(6), TrialConfig(trials=2_000_000, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_memory_is_bounded_at_large_quantum_dimension(self):
        """Outcome sampling holds no (chunk x d') array: 1e5 trials at d' = 1024
        needed about 900 MB of cumulative rows when compared row by row."""
        tracemalloc.start()
        try:
            simulate(ProtocolSpec.full(1024), TrialConfig(trials=100_000, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_memory_is_flat_in_quantum_dimension(self):
        """The sampler reads two Born weights, not the anchor's O(d') row, which
        at d' = 2^20 set a 32 MB peak; the stream, and so the mean, is the same."""
        tracemalloc.start()
        try:
            estimate = simulate(ProtocolSpec.full(2**20), TrialConfig(trials=10**5, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert estimate.mean == 0.49756

    def test_quantum_dimension_past_any_table_is_sampled(self):
        """At d = 2^40 no Born row could be allocated; the two weights need none."""
        estimate = simulate(ProtocolSpec.full(2**40), TrialConfig(trials=10**5, seed=40))
        assert abs(estimate.mean - closed_form_full(2**40)) <= 5 * estimate.stderr

    def test_alphabet_past_sixty_three_bits_is_refused(self):
        """Dits are drawn in uint64 and an outcome plus a power reaches 2d - 2, so d stops at 2^63."""
        assert 0.0 <= simulate(ProtocolSpec.full(2**63), TrialConfig(trials=100, seed=1)).mean <= 1.0
        with pytest.raises(ValueError, match=rf"sampled alphabet size d must be in 1\.\.{2**63}, got {2**63 + 1}"):
            simulate(ProtocolSpec.full(2**63 + 1), TrialConfig(trials=100, seed=1))


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
        exact measurement-plus-guess distribution, under both gatings and at
        d' = 1 (only guesses), d' = 2 and d' = d (no guesses)."""
        specs = [
            ProtocolSpec(6, 5),
            ProtocolSpec(6, 5, GatingVariant.BOTH_OR_NOTHING),
            ProtocolSpec(6, 1),
            ProtocolSpec(6, 2),
            ProtocolSpec.full(6),
        ]
        for spec in specs:
            counts = answer_counts(spec, TrialConfig(trials=1_000_000, seed=31337))
            observed, expected, cells = [], [], 0
            for x1 in range(6):
                for x2 in range(6):
                    for y in (1, 2):
                        cell = counts[x1, x2, y - 1]
                        dist = answer_distribution(spec, x1, x2, y)
                        support = dist > 1e-15
                        assert not cell[~support].any(), spec
                        observed.extend(cell[support])
                        expected.extend(cell.sum() * dist[support])
                        cells += 1
            # Each cell's expected counts are scaled to its own total: one constraint per cell.
            _, p_value = stats.chisquare(observed, expected, ddof=cells - 1)
            assert p_value > 1e-3, spec

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

"""Seeded Monte Carlo: reproducibility, convergence, distribution-level checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from racsim import qudit
from racsim.classical import ClassicalTask, DeterministicStrategy, majority_identity_strategy
from racsim.montecarlo import _CHUNK, STREAM_VERSION, TrialConfig, _play, _words, answer_counts, simulate
from racsim.quantum import (
    GatingVariant,
    ProtocolSpec,
    _anchor_born,
    answer_distribution,
    closed_form_full,
    closed_form_restricted,
    exact_success,
)

from oracles import stream_five_answer_counts, stream_five_classical_successes, stream_five_full_answers


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
        """The sampler draws exactly the answers of the stream-5 definition,
        replayed plainly: uint16 cells, and uint8 fallback picks up to d = 128, uint16 from d = 129."""
        assert STREAM_VERSION == 5
        spec = ProtocolSpec(d, d_prime, variant)
        seed = 1000 * d + d_prime
        expected = stream_five_answer_counts(d, d_prime, variant.value, trials, seed, _anchor_born(d_prime)[0], _CHUNK)
        np.testing.assert_array_equal(answer_counts(spec, TrialConfig(trials, seed)), expected)

    @pytest.mark.parametrize(
        "n, d, trials",
        [(1, 7, 20_000), (2, 5, 2 * _CHUNK + 3), (3, 4, 20_000), (2, 129, 20_000), (2, 182, 20_000), (3, 41, 20_000)],
    )
    def test_classical_replay_stream(self, n, d, trials):
        """A strategy with arbitrary tables scores exactly the successes of the
        stream-5 definition, replayed plainly; (2, 182) and (3, 41) draw uint32 cells."""
        assert STREAM_VERSION == 5
        rng = np.random.default_rng(n * d)
        strategy = DeterministicStrategy(n, d, rng.integers(0, d, d**n), rng.integers(0, d, (n, d)))
        seed = 1000 * n + d
        hits = stream_five_classical_successes(n, d, strategy.encoder, strategy.decoders, trials, seed, _CHUNK)
        assert simulate(strategy, TrialConfig(trials, seed)).mean == hits / trials

    @pytest.mark.parametrize("d", [2**20, 3_037_000_499, 3_037_000_500, 2**32 + 1, 2**40, 2**63])
    def test_full_replay_stream_in_one_or_two_words(self, d):
        """Past 2 d^2 = 2^64 the cell is split into the words (y, x2) and (x1):
        d = 3,037,000,499 is the last size drawn as one uint64 word, 3,037,000,500
        draws a uint64 and a uint32 word, 2^32 + 1 on two uint64 words.  A full
        protocol succeeds exactly when the anchor's outcome is 0, so the mean checks
        only where the uniforms start; the asked dits and answers check the digits."""
        trials, seed = 300, d % 997
        asked, answers = stream_five_full_answers(d, trials, seed, _anchor_born(d)[0])
        config = TrialConfig(trials, seed)
        hits = sum(a == b for a, b in zip(asked, answers))
        assert simulate(ProtocolSpec.full(d), config).mean == hits / trials
        [(_, got_asked, got_answers)] = _play(ProtocolSpec.full(d), config)
        assert got_asked.tolist() == asked and got_answers.tolist() == answers

    @pytest.mark.parametrize(
        "n, d, words",
        [
            (2, 6, [(72, np.uint16, [2, 6, 6])]),
            (1, 1, [(1, np.uint16, [1, 1])]),
            (2, 181, [(2 * 181**2, np.uint16, [2, 181, 181])]),
            (2, 182, [(2 * 182**2, np.uint32, [2, 182, 182])]),
            (2, 46_341, [(2 * 46_341**2, np.uint64, [2, 46_341, 46_341])]),
            (2, 3_037_000_500, [(6_074_001_000, np.uint64, [2, 3_037_000_500]), (3_037_000_500, np.uint32, [3_037_000_500])]),
            (2, 2**63, [(2**64, np.uint64, [2, 2**63]), (2**63, np.uint64, [2**63])]),
            (3, 4, [(192, np.uint16, [3, 4, 4, 4])]),
        ],
    )
    def test_cell_words(self, n, d, words):
        """Cells below 2^16 are drawn as uint16, never uint8: numpy's bounded
        uint8 draws cost several times its uint16 ones."""
        assert _words(n, d) == words


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
        """A chunk holds a few uint16 digit arrays beside one reused float64
        uniform buffer, about 4.1 MB traced (2.6 MB on stream 4's uint8 dits);
        stream 3's int64 draws and selections peaked at 17 MB."""
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
        assert estimate.mean == 0.49815

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

    def test_cells_are_uniform(self):
        """Each (x1, x2, y) cell of (6, 5), counted over its answers, lies within
        5 standard deviations of trials / 72: the cell draw covers the 72 cells evenly."""
        trials = 1_000_000
        cells = answer_counts(ProtocolSpec(6, 5), TrialConfig(trials, 2718)).sum(axis=-1)
        assert cells.shape == (6, 6, 2)
        p = 1 / 72
        assert np.all(np.abs(cells - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)))

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

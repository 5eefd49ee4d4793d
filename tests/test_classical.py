"""Classical strategies: evaluation, majority encoding, oracle, mixtures."""

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from racsim.classical import (
    ClassicalTask,
    DeterministicStrategy,
    InfeasibleSearchError,
    _log10_multisets,
    _majority_messages,
    _smallest_decoder_tuple,
    all_inputs,
    closed_form_classical,
    evaluate_strategy,
    majority_identity_strategy,
    mixture_value,
    optimal_classical_bruteforce,
    strategy_from_text,
    strategy_to_text,
)

from oracles import classical_optimum_by_column_multisets, classical_optimum_full_enumeration

RNG = np.random.default_rng(7)


def send_first_bit() -> DeterministicStrategy:
    identity = (0, 1)
    return DeterministicStrategy(n=2, d=2, encoder=(0, 0, 1, 1), decoders=(identity, identity))


def random_strategy(n: int, d: int) -> DeterministicStrategy:
    return DeterministicStrategy(
        n=n,
        d=d,
        encoder=tuple(int(v) for v in RNG.integers(0, d, d**n)),
        decoders=tuple(tuple(int(v) for v in RNG.integers(0, d, d)) for _ in range(n)),
    )


class TestEvaluateStrategy:
    def test_send_first_bit_average(self):
        report = evaluate_strategy(ClassicalTask(2, 2), send_first_bit())
        assert report.average == pytest.approx(0.75, abs=1e-15)

    def test_send_first_bit_worst_case(self):
        report = evaluate_strategy(ClassicalTask(2, 2), send_first_bit())
        assert report.worst_case == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 5), (3, 3)])
    def test_constant_strategy_scores_one_over_d(self, n, d):
        strategy = DeterministicStrategy(
            n=n, d=d, encoder=(0,) * d**n, decoders=((0,) * d,) * n
        )
        report = evaluate_strategy(ClassicalTask(n, d), strategy)
        assert report.average == pytest.approx(1 / d, abs=1e-15)

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ValueError):
            evaluate_strategy(ClassicalTask(2, 3), send_first_bit())

    def test_malformed_tables_rejected(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(n=2, d=2, encoder=(0, 0, 2, 1), decoders=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            DeterministicStrategy(n=2, d=2, encoder=(0, 0, 1), decoders=((0, 1), (0, 1)))

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"encoder": (0, 0, 1.5, 1)}, id="float-entry"),
            pytest.param({"encoder": (0, 0, 1.0, 1)}, id="integral-float-entry"),
            pytest.param({"encoder": (0, 0, np.float64(1), 1)}, id="numpy-float-entry"),
            pytest.param({"encoder": (0, 0, True, 1)}, id="bool-entry"),
            pytest.param({"decoders": ((0, np.True_), (0, 1))}, id="numpy-bool-entry"),
            pytest.param({"decoders": (("0", 1), (0, 1))}, id="str-entry"),
            pytest.param({"encoder": (0, 0, 2**70, 1)}, id="huge-entry"),
            pytest.param({"n": 2.0}, id="float-n"),
            pytest.param({"n": True}, id="bool-n"),
            pytest.param({"d": 2.0}, id="float-d"),
        ],
    )
    def test_rejects_non_integers(self, change):
        tables = dict(n=2, d=2, encoder=(0, 0, 1, 1), decoders=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            DeterministicStrategy(**{**tables, **change})

    def test_accepts_numpy_integer_entries(self):
        strategy = DeterministicStrategy(
            n=2, d=2, encoder=tuple(np.array([0, 0, 1, 1])), decoders=((np.int8(0), 1), (0, 1))
        )
        assert evaluate_strategy(ClassicalTask(2, 2), strategy).average == 0.75

    @pytest.mark.parametrize(
        "encoder, decoders",
        [
            pytest.param(np.array([0, 0, 1, 1]), np.array([[0, 1], [0, 1]]), id="arrays"),
            pytest.param(np.array([0, 0, 1, 1], dtype=np.uint8), [[0, 1], [0, 1]], id="uint8-array-lists"),
            pytest.param(tuple(np.arange(4) // 2), ((np.int8(0), 1), (0, np.int64(1))), id="numpy-ints"),
            pytest.param([0, 0, 1, 1], [(0, 1), [0, 1]], id="lists"),
        ],
    )
    def test_tables_are_stored_as_python_int_tuples(self, encoder, decoders):
        strategy = DeterministicStrategy(n=2, d=2, encoder=encoder, decoders=decoders)
        assert strategy == send_first_bit()
        assert hash(strategy) == hash(send_first_bit())
        assert {type(v) for v in itertools.chain(strategy.encoder, *strategy.decoders)} == {int}
        assert json.loads(json.dumps(asdict(strategy))) == {
            "n": 2, "d": 2, "encoder": [0, 0, 1, 1], "decoders": [[0, 1], [0, 1]]
        }

    def test_average_counts_by_hand(self):
        # d=2, n=2, send-x1: y=1 always right, y=2 right on the diagonal
        per = evaluate_strategy(ClassicalTask(2, 2), send_first_bit()).per_input
        np.testing.assert_allclose(per[..., 0], np.ones((2, 2)))
        np.testing.assert_allclose(per[..., 1], np.eye(2))


def test_all_inputs_is_position_major():
    # row y holds dit y of every string, strings in lexicographic order
    x = all_inputs(2, 3)
    assert x.shape == (2, 9)
    assert x.tolist() == [[0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2, 0, 1, 2]]


class TestMajorityIdentity:
    @pytest.mark.parametrize("n, d", [(2, 6), (3, 5), (4, 4), (5, 3)])
    def test_majority_messages_match_a_counter_reference(self, n, d):
        want = []
        for x in itertools.product(range(d), repeat=n):
            counts = Counter(x)
            top = max(counts.values())
            want.append(next(v for v in x if counts[v] == top))  # earliest position wins a tie
        assert _majority_messages(all_inputs(n, d)).tolist() == want

    def test_unanimous_pair(self):
        strategy = majority_identity_strategy(ClassicalTask(2, 6))
        assert strategy.encoder[np.ravel_multi_index((3, 3), (6, 6))] == 3

    def test_tie_takes_earliest_position(self):
        strategy = majority_identity_strategy(ClassicalTask(2, 6))
        assert strategy.encoder[np.ravel_multi_index((1, 4), (6, 6))] == 1
        assert strategy.encoder[np.ravel_multi_index((4, 1), (6, 6))] == 4

    def test_three_dit_majority(self):
        strategy = majority_identity_strategy(ClassicalTask(3, 6))
        assert strategy.encoder[np.ravel_multi_index((2, 5, 2), (6, 6, 6))] == 2

    def test_decoders_are_identity(self):
        strategy = majority_identity_strategy(ClassicalTask(3, 4))
        assert strategy.decoders == (tuple(range(4)),) * 3

    def test_average_is_tie_break_invariant_for_pairs(self):
        # Variant that breaks ties toward the second position instead.
        for d in (2, 3, 5):
            task = ClassicalTask(2, d)
            canonical = majority_identity_strategy(task)
            alt_encoder = []
            for x in itertools.product(range(d), repeat=2):
                alt_encoder.append(x[1])  # second position always ties or wins
            alt = DeterministicStrategy(
                n=2, d=d, encoder=tuple(alt_encoder), decoders=canonical.decoders
            )
            assert (
                evaluate_strategy(task, alt).average
                == evaluate_strategy(task, canonical).average
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_closed_form_up_to_d64(self, n):
        for d in range(2, 65):
            task = ClassicalTask(n, d)
            report = evaluate_strategy(task, majority_identity_strategy(task))
            assert report.average == pytest.approx(closed_form_classical(n, d), abs=1e-12), d


class TestClosedFormClassical:
    def test_pair_values(self):
        assert closed_form_classical(2, 2) == pytest.approx(0.75, abs=1e-15)
        assert closed_form_classical(2, 6) == pytest.approx(7 / 12, abs=1e-15)

    def test_triple_value(self):
        assert closed_form_classical(3, 2) == pytest.approx(0.75, abs=1e-15)

    def test_unsupported_length_rejected(self):
        with pytest.raises(ValueError):
            closed_form_classical(4, 2)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: ClassicalTask(2.5, 3), id="task-float-n"),
            pytest.param(lambda: ClassicalTask(True, 3), id="task-bool-n"),
            pytest.param(lambda: ClassicalTask(2, 3.0), id="task-float-d"),
            pytest.param(lambda: closed_form_classical(2, 2.5), id="closed-form-float-d"),
            pytest.param(lambda: closed_form_classical(2.0, 3), id="closed-form-float-n"),
            pytest.param(
                lambda: optimal_classical_bruteforce(ClassicalTask(2, 2), max_tuples=1e6),
                id="oracle-float-budget",
            ),
        ],
    )
    def test_rejects_non_integer_sizes(self, call):
        with pytest.raises(ValueError):
            call()


class TestOracle:
    @pytest.mark.parametrize(
        "n, d, expected",
        [(2, 2, 0.75), (2, 3, 2 / 3), (2, 4, 0.625), (3, 2, 0.75), (3, 3, 17 / 27)],
    )
    def test_matches_closed_form(self, n, d, expected):
        result = optimal_classical_bruteforce(ClassicalTask(n, d))
        assert result.optimum == pytest.approx(expected, abs=1e-15)
        assert result.optimum == pytest.approx(closed_form_classical(n, d), abs=1e-15)

    def test_witness_attains_the_optimum(self):
        for n, d in [(2, 2), (2, 3), (3, 2)]:
            task = ClassicalTask(n, d)
            result = optimal_classical_bruteforce(task)
            assert evaluate_strategy(task, result.witness).average == pytest.approx(
                result.optimum, abs=1e-15
            )

    def test_examined_counts_whole_space(self):
        result = optimal_classical_bruteforce(ClassicalTask(2, 3))
        assert result.strategies_examined == math.comb(11, 3)

    def test_greedy_encoder_reduction_is_lossless(self):
        """Full enumeration over all 16 encoders x 16 decoder pairs at (2, 2)."""
        full = classical_optimum_full_enumeration(2, 2)
        reduced = optimal_classical_bruteforce(ClassicalTask(2, 2)).optimum
        assert reduced == pytest.approx(full, abs=1e-15)

    def test_budget_error_names_the_required_count(self):
        with pytest.raises(InfeasibleSearchError) as exc:
            optimal_classical_bruteforce(ClassicalTask(2, 7))
        assert exc.value.required == math.comb(55, 7)
        assert str(exc.value.required) in str(exc.value)

    def test_budget_error_past_the_digit_limit_keeps_the_exact_count(self):
        with pytest.raises(InfeasibleSearchError) as exc:
            optimal_classical_bruteforce(ClassicalTask(20000, 2))
        assert exc.value.required == math.comb(2**20000 + 1, 2)
        assert "column multisets, above the budget" in str(exc.value)

    @pytest.mark.parametrize("d, log10", [(10**5, 543427), (10**19, 194342944819032514000)])
    def test_budget_error_beyond_the_exact_digits_gives_the_size(self, d, log10):
        """math.comb takes 2 s at d = 10^5, over a minute at 10^6, and overflows past d = 2^63 - 1."""
        with pytest.raises(InfeasibleSearchError) as exc:
            optimal_classical_bruteforce(ClassicalTask(2, d))
        assert exc.value.required is None
        assert f"needs about 10^{log10} column multisets, above the budget" in str(exc.value)
        with pytest.raises(ValueError, match="too many to search") as exc:
            optimal_classical_bruteforce(ClassicalTask(2, d), allow_large=True)
        assert type(exc.value) is ValueError

    def test_huge_n_is_refused_without_forming_d_to_the_n(self):
        """3^(10^9) would take minutes to form; its size comes from n ln d."""
        start = time.perf_counter()
        with pytest.raises(InfeasibleSearchError) as exc:
            optimal_classical_bruteforce(ClassicalTask(10**9, 3))
        assert time.perf_counter() - start < 0.5
        assert exc.value.required is None
        assert "needs about 10^1431363763 column multisets, above the budget" in str(exc.value)

    def test_log10_estimate_matches_the_exact_count(self):
        for n, d in [(1, 2), (2, 2), (1, 1000), (2, 7), (3, 50), (2, 1000), (5, 3), (20000, 2), (2, 10**4)]:
            exact = math.log10(math.comb(d**n + d - 1, d))
            assert abs(_log10_multisets(n * math.log(d), d) - exact) <= 0.6, (n, d)

    def test_budget_is_checked_before_any_table_is_built(self):
        # (40, 2) has 2^40 columns; refusing it must not allocate them first
        with pytest.raises(InfeasibleSearchError) as exc:
            optimal_classical_bruteforce(ClassicalTask(40, 2))
        assert exc.value.required == math.comb(2**40 + 1, 2)

    def test_smallest_decoder_tuple_is_not_column_index_order(self):
        # at (2, 2), {(0,1),(0,1)} (columns 1, 1) reads as decoders (0,0),(1,1)
        # and {(0,0),(1,0)} (columns 0, 2) as (0,1),(0,0): the first is the
        # smaller decoder tuple, though the second comes first by column index
        cols = all_inputs(2, 2)
        assert _smallest_decoder_tuple(cols, [(0, 2), (1, 1)], None) == (0, 0, 1, 1)
        assert _smallest_decoder_tuple(cols, [(0, 2)], (0, 0, 1, 1)) == (0, 0, 1, 1)
        assert _smallest_decoder_tuple(cols, [(1, 1)], (0, 1, 0, 0)) == (0, 0, 1, 1)

    @pytest.mark.parametrize("allow_large", ["no", 1, None])
    def test_rejects_non_bool_allow_large(self, allow_large):
        with pytest.raises(ValueError, match="allow_large must be a bool"):
            optimal_classical_bruteforce(ClassicalTask(2, 3), max_tuples=0, allow_large=allow_large)

    def test_symmetry_reduced_search_matches_plain(self):
        for n, d in [(2, 2), (2, 3), (3, 2)]:
            task = ClassicalTask(n, d)
            plain = optimal_classical_bruteforce(task)
            reduced = optimal_classical_bruteforce(task, max_tuples=1, allow_large=True)
            assert reduced.optimum == plain.optimum
            assert reduced.strategies_examined <= plain.strategies_examined

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2)])
    def test_witness_is_lexicographically_smallest(self, n, d):
        # check against direct enumeration of optimal decoder tuples, in
        # lexicographic order; at these sizes the first optimal multiset by
        # column index gives the same witness, so the ordering itself is
        # pinned by test_smallest_decoder_tuple_is_not_column_index_order
        task = ClassicalTask(n, d)
        result = optimal_classical_bruteforce(task)
        tables = list(itertools.product(range(d), repeat=d))
        best = None
        for decoders in itertools.product(tables, repeat=n):
            hits = 0
            for x in itertools.product(range(d), repeat=n):
                hits += max(
                    sum(decoders[y][m] == x[y] for y in range(n)) for m in range(d)
                )
            value = hits / (n * d**n)
            if value == pytest.approx(result.optimum) and best is None:
                best = decoders
        assert result.witness.decoders == best

    @pytest.mark.parametrize("n, d", [(1, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
    def test_majority_identity_is_optimal_at_new_sizes(self, n, d):
        task = ClassicalTask(n, d)
        result = optimal_classical_bruteforce(task)
        assert result.optimum == evaluate_strategy(task, majority_identity_strategy(task)).average
        assert evaluate_strategy(task, result.witness).average == result.optimum

    @pytest.mark.parametrize(
        "n, d",
        [(1, d) for d in range(2, 7)] + [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)],
    )
    def test_matches_every_column_multiset(self, n, d):
        # the oracle scores canonical column sequences only; the reference
        # scores them all
        optimum, decoders, encoder = classical_optimum_by_column_multisets(n, d)
        result = optimal_classical_bruteforce(ClassicalTask(n, d))
        assert result.optimum == float(optimum)
        assert result.witness.decoders == decoders
        assert result.witness.encoder == encoder

    @pytest.mark.parametrize("n, d", [(2, 7), (3, 5), (4, 4), (5, 4)])
    def test_majority_identity_is_optimal_beyond_the_budget(self, n, d):
        task = ClassicalTask(n, d)
        result = optimal_classical_bruteforce(task, max_tuples=0, allow_large=True)
        assert result.optimum == evaluate_strategy(task, majority_identity_strategy(task)).average
        assert evaluate_strategy(task, result.witness).average == result.optimum


def orbit_minimum(decoders: tuple, d: int) -> tuple:
    """Smallest decoder tuple over message permutations and per-position relabelings."""
    n = len(decoders)
    relabelings = list(itertools.permutations(range(d)))
    best = None
    for order in relabelings:
        for values in itertools.product(relabelings, repeat=n):
            key = tuple(tuple(values[y][decoders[y][m]] for m in order) for y in range(n))
            if best is None or key < best:
                best = key
    return best


class TestCanonicalColumns:
    """The symmetry argument behind the oracle's canonical column sequences."""

    @staticmethod
    def assert_canonical(decoders: tuple):
        columns = list(zip(*decoders))
        assert columns == sorted(columns), decoders
        assert all(v <= m for m, column in enumerate(columns) for v in column), decoders

    def test_every_orbit_minimum_at_2_3(self):
        tables = list(itertools.product(range(3), repeat=3))
        for decoders in itertools.product(tables, repeat=2):
            self.assert_canonical(orbit_minimum(decoders, 3))

    def test_random_orbit_minima_at_3_3(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            decoders = tuple(tuple(rng.integers(0, 3, 3).tolist()) for _ in range(3))
            self.assert_canonical(orbit_minimum(decoders, 3))


class TestMixtures:
    def test_single_strategy_is_degenerate(self):
        task = ClassicalTask(2, 3)
        strategy = majority_identity_strategy(task)
        assert mixture_value(task, [(strategy, 1.0)]) == pytest.approx(
            evaluate_strategy(task, strategy).average
        )

    def test_equal_mixture_is_the_mean(self):
        task = ClassicalTask(2, 2)
        a = send_first_bit()
        b = DeterministicStrategy(n=2, d=2, encoder=(0,) * 4, decoders=((0, 0), (0, 0)))
        expected = (
            evaluate_strategy(task, a).average + evaluate_strategy(task, b).average
        ) / 2
        assert mixture_value(task, [(a, 0.5), (b, 0.5)]) == pytest.approx(expected)

    def test_mixtures_never_beat_the_deterministic_optimum(self):
        """Convexity grounds restricting the oracle to deterministic strategies."""
        task = ClassicalTask(2, 3)
        optimum = optimal_classical_bruteforce(task).optimum
        for _ in range(1000):
            k = int(RNG.integers(1, 4))
            weights = RNG.dirichlet(np.ones(k))
            strategies = [(random_strategy(2, 3), float(w)) for w in weights]
            value = mixture_value(task, strategies)
            assert value <= optimum + 1e-12
            assert value <= max(
                evaluate_strategy(task, s).average for s, _ in strategies
            ) + 1e-12

    def test_weight_violations_rejected(self):
        task = ClassicalTask(2, 2)
        with pytest.raises(ValueError):
            mixture_value(task, [(send_first_bit(), 0.7)])
        with pytest.raises(ValueError):
            mixture_value(task, [(send_first_bit(), -1.0), (send_first_bit(), 2.0)])
        with pytest.raises(ValueError):
            mixture_value(task, [(send_first_bit(), 1.0), (send_first_bit(), float("nan"))])
        with pytest.raises(ValueError):
            mixture_value(task, [(send_first_bit(), True)])
        with pytest.raises(ValueError):
            mixture_value(task, [(send_first_bit(), "1")])


class TestStrategyBounds:
    def test_module_strategies_stay_within_unit_band(self):
        """Averages and worst cases of produced strategies lie in [1/d, 1]."""
        for n, d in [(2, 2), (2, 5), (3, 3)]:
            task = ClassicalTask(n, d)
            reports = [evaluate_strategy(task, majority_identity_strategy(task))]
            if d**d <= 3125:
                reports.append(
                    evaluate_strategy(task, optimal_classical_bruteforce(task).witness)
                )
            for report in reports:
                assert 1 / d - 1e-12 <= report.worst_case <= report.average <= 1.0


def edited_table(index: int, line: str) -> str:
    """The send-first-bit table text with line ``index`` replaced."""
    lines = ["2 2", "0 0 0", "0 1 0", "1 0 1", "1 1 1", "0 0", "1 1", "0 0", "1 1"]
    lines[index] = line
    return "\n".join(lines) + "\n"


class TestStrategyTextFormat:
    def test_round_trip(self):
        for n, d in [(2, 2), (2, 4), (3, 3)]:
            strategy = random_strategy(n, d)
            assert strategy_from_text(strategy_to_text(strategy)) == strategy

    def test_exact_rendering(self):
        text = strategy_to_text(send_first_bit())
        assert text == (
            "2 2\n"
            "0 0 0\n"
            "0 1 0\n"
            "1 0 1\n"
            "1 1 1\n"
            "0 0\n"
            "1 1\n"
            "0 0\n"
            "1 1\n"
        )

    def test_accepts_reordered_encoder_lines(self):
        lines = strategy_to_text(send_first_bit()).splitlines()
        shuffled = [lines[0]] + lines[1:5][::-1] + lines[5:]
        assert strategy_from_text("\n".join(shuffled)) == send_first_bit()

    def test_rejects_truncated_table(self):
        text = strategy_to_text(send_first_bit())
        with pytest.raises(ValueError):
            strategy_from_text(text.rsplit("\n", 3)[0])

    def test_round_trip_with_two_digit_values(self):
        strategy = DeterministicStrategy(
            n=2, d=12, encoder=tuple(range(12)) * 12, decoders=(tuple(range(11, -1, -1)),) * 2
        )
        text = strategy_to_text(strategy)
        lines = text.splitlines()
        assert lines[1 + 10 * 12 + 11] == "10 11 11"
        assert lines[1 + 144] == "0 11"
        assert strategy_from_text(text) == strategy

    @pytest.mark.parametrize(
        "index, line",
        [
            pytest.param(1, "0  0\t+0", id="spacing-and-plus"),
            pytest.param(3, "01 00 001", id="leading-zeros"),
            pytest.param(5, "-0 0", id="minus-zero"),
        ],
    )
    def test_accepts_equivalent_tokens(self, index, line):
        assert strategy_from_text(edited_table(index, line)) == send_first_bit()

    def test_accepts_reordered_decoder_lines_and_blank_lines(self):
        lines = strategy_to_text(send_first_bit()).splitlines()
        text = "\n\n".join(lines[:5] + [lines[6], lines[5], "   ", lines[8], lines[7]])
        assert strategy_from_text(text) == send_first_bit()

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty"),
            pytest.param(edited_table(0, "2"), id="short-header"),
            pytest.param(edited_table(0, "2 x"), id="non-integer-header"),
            pytest.param(edited_table(0, "2 1"), id="header-d-below-two"),
            pytest.param("99999999999999999999 2\n0 0\n", id="huge-header-n"),
            pytest.param("2 99999999999999999999\n0 0\n", id="huge-header-d"),
            pytest.param(edited_table(8, ""), id="missing-line"),
            pytest.param(edited_table(8, "1 1\n1 1"), id="extra-line"),
            pytest.param(edited_table(1, "0 0"), id="short-encoder-line"),
            pytest.param(edited_table(1, "0 0 0 0"), id="long-encoder-line"),
            pytest.param(edited_table(5, "0"), id="short-decoder-line"),
            pytest.param(edited_table(5, "0 0 0"), id="long-decoder-line"),
            pytest.param(edited_table(1, "0 0 a"), id="non-integer-message"),
            pytest.param(edited_table(1, "0 0 1.0"), id="decimal-point-message"),
            pytest.param(edited_table(6, "1 x"), id="non-integer-answer"),
            pytest.param(edited_table(1, "0 0 99999999999999999999"), id="message-beyond-int64"),
            pytest.param(edited_table(1, "-99999999999999999999 0 0"), id="dit-beyond-int64"),
            pytest.param(edited_table(6, "1 9223372036854775808"), id="answer-beyond-int64"),
            pytest.param(edited_table(1, "2 0 0"), id="dit-too-large"),
            pytest.param(edited_table(1, "0 -1 0"), id="negative-dit"),
            pytest.param(edited_table(2, "0 0 0"), id="duplicate-input"),
            pytest.param(edited_table(4, "0 1 1"), id="duplicate-input-not-adjacent"),
            pytest.param(edited_table(6, "0 1"), id="duplicate-message"),
            pytest.param(edited_table(8, "0 1"), id="duplicate-message-second-block"),
            pytest.param(edited_table(6, "2 1"), id="message-too-large"),
            pytest.param(edited_table(5, "-1 0"), id="negative-message"),
            pytest.param(edited_table(1, "0 0 2"), id="encoder-message-too-large"),
            pytest.param(edited_table(1, "0 0 -1"), id="negative-encoder-message"),
            pytest.param(edited_table(6, "1 2"), id="answer-too-large"),
            pytest.param(edited_table(7, "0 -1"), id="negative-answer"),
        ],
    )
    def test_rejects_malformed_table(self, text):
        with pytest.raises(ValueError):
            strategy_from_text(text)

    @pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-one"])
    def test_rejects_tokens_that_are_not_ascii_decimal_digits(self, token):
        # int() reads both ('1_0' as 10, '\u0661' as 1)
        with pytest.raises(ValueError, match="ASCII decimal integers"):
            strategy_from_text(edited_table(6, f"1 {token}"))

    def test_rejects_duplicate_input_line(self):
        text = strategy_to_text(send_first_bit())
        lines = text.splitlines()
        lines[2] = lines[1]
        with pytest.raises(ValueError):
            strategy_from_text("\n".join(lines))

"""Classical strategies: evaluation, majority encoding, oracle, mixtures."""

import functools
import itertools
import json
import math
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from racsim import classical
from racsim.classical import (
    ClassicalTask,
    DeterministicStrategy,
    InfeasibleSearchError,
    _greedy_witness,
    _log10_multisets,
    _majority_messages,
    _smallest_decoder_tuple,
    all_inputs,
    closed_form_classical,
    evaluate_strategy,
    majority_identity_strategy,
    majority_identity_value,
    mixture_value,
    optimal_classical_bruteforce,
    strategy_from_text,
    strategy_to_text,
)

from oracles import (
    classical_optimum_by_column_multisets,
    classical_optimum_full_enumeration,
    majority_hits_by_multiplicity_patterns,
    table_statistics,
)

RNG = np.random.default_rng(7)

#: The reference scores every column multiset; (2,4) and (3,3) take about half a second each,
#: so the two tests that read it share one call per size.
column_multiset_optimum = functools.cache(classical_optimum_by_column_multisets)

#: Sizes the column-multiset reference reaches in well under a second each.
COLUMN_MULTISET_SIZES = [(1, d) for d in range(2, 7)] + [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]

INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


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

    def test_counts_match_the_float_table_reduction_bit_for_bit(self):
        rng = np.random.default_rng(2718)
        for n in range(1, 6):
            for d in range(2, 9):
                if d**n > 40_000:
                    continue
                for identity in (False, True):
                    encoder = rng.integers(0, d, d**n)
                    decoders = np.tile(np.arange(d), (n, 1)) if identity else rng.integers(0, d, (n, d))
                    report = evaluate_strategy(ClassicalTask(n, d), DeterministicStrategy(n, d, encoder, decoders))
                    x = np.indices((d,) * n)
                    hits = decoders[np.arange(n).reshape((n,) + (1,) * n), encoder.reshape((d,) * n)] == x
                    np.testing.assert_array_equal(report.per_input, np.moveaxis(hits, 0, -1))
                    assert (report.average, report.worst_case) == table_statistics(report.per_input), (n, d)

    def test_mismatched_tables_rejected(self):
        with pytest.raises(ValueError):
            evaluate_strategy(ClassicalTask(2, 3), send_first_bit())

    def test_malformed_tables_rejected(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(n=2, d=2, encoder=(0, 0, 2, 1), decoders=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            DeterministicStrategy(n=2, d=2, encoder=(0, 0, 1), decoders=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="need 2 decoder tables of 2 entries each"):
            DeterministicStrategy(n=2, d=2, encoder=(0, 0, 1, 1), decoders=((0, 1),))
        with pytest.raises(ValueError, match="entries must lie in 0..1"):
            DeterministicStrategy(n=2, d=2, encoder=np.array([0, 0, -1, 1], dtype=np.int8), decoders=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"shapes \(4,\) and \(2, 2\), got \(4, 1\) and \(2, 2\)"):
            DeterministicStrategy(n=2, d=2, encoder=np.array([[0], [0], [1], [1]]), decoders=((0, 1), (0, 1)))

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
            pytest.param({"encoder": np.array([0, 0, 1, 1], dtype=bool)}, id="bool-array"),
            pytest.param({"encoder": np.array([0.0, 0.0, 1.0, 1.0])}, id="integral-float-array"),
            pytest.param({"encoder": np.array([0, 0, True, 1], dtype=object)}, id="object-array-holding-a-bool"),
            pytest.param({"decoders": np.array([[0, 1], [0, 1]], dtype=complex)}, id="complex-array"),
            pytest.param({"encoder": np.array([0, 0, 2**63, 1], dtype=np.uint64)}, id="uint64-2-to-the-63"),
            pytest.param({"decoders": np.array([[0, 2**64 - 1], [0, 1]], dtype=np.uint64)}, id="uint64-max"),
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
            *(
                pytest.param(np.array([0, 0, 1, 1], dtype=t), np.array([[0, 1], [0, 1]], dtype=t), id=t.__name__)
                for t in INTEGER_DTYPES
            ),
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

    def test_tables_do_not_alias_the_callers_arrays(self):
        encoder, decoders = np.array([0, 0, 1, 1]), np.array([[0, 1], [0, 1]])
        strategy = DeterministicStrategy(n=2, d=2, encoder=encoder, decoders=decoders)
        encoder[:], decoders[:] = 1, 0
        np.testing.assert_array_equal(strategy._arrays[0], [0, 0, 1, 1])
        np.testing.assert_array_equal(strategy._arrays[1], [[0, 1], [0, 1]])
        assert strategy == send_first_bit()
        for table in strategy._arrays:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

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

    @pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 6) for d in range(2, 9)])
    def test_value_is_the_enumerated_hit_count(self, n, d):
        task = ClassicalTask(n, d)
        hits = evaluate_strategy(task, majority_identity_strategy(task)).per_input.sum()
        assert majority_identity_value(task) == Fraction(int(hits), n * d**n)

    def test_value_is_the_closed_forms_exactly(self):
        for d in range(2, 65):
            task2, task3 = ClassicalTask(2, d), ClassicalTask(3, d)
            assert majority_identity_value(task2) == Fraction(d + 1, 2 * d), d  # (1 + 1/d) / 2
            assert majority_identity_value(task3) == Fraction(d * d + 3 * d - 1, 3 * d * d), d
        assert majority_identity_value(ClassicalTask(2, 6)) == Fraction(7, 12)
        assert majority_identity_value(ClassicalTask(3, 6)) == Fraction(53, 108)

    @pytest.mark.parametrize("n, d", COLUMN_MULTISET_SIZES)
    def test_value_is_the_optimum_over_every_column_multiset(self, n, d):
        assert majority_identity_value(ClassicalTask(n, d)) == column_multiset_optimum(n, d)[0]

    def test_value_matches_a_count_over_multiplicity_patterns(self):
        # beyond enumeration: sizes up to d^n = 30^12, against a sum over the partitions of n
        for n in range(1, 13):
            for d in (2, 3, 5, 7, 12, 30):
                hits, strings = majority_hits_by_multiplicity_patterns(n, d)
                assert strings == d**n
                assert majority_identity_value(ClassicalTask(n, d)) == Fraction(hits, n * d**n), (n, d)

    def test_value_at_large_sizes_is_quick_and_in_range(self):
        start = time.perf_counter()
        value = majority_identity_value(ClassicalTask(50, 100))
        assert time.perf_counter() - start < 5.0  # about 0.1 s; enumeration would take 100^50 steps
        assert Fraction(1, 100) < value < 1

    @pytest.mark.parametrize(
        "n, d",
        [(True, 3), (2, True), (2.0, 3), (2, 3.0), (0, 3), (-1, 3), (2, 1), (2, 0)],
    )
    def test_bad_sizes_are_refused(self, n, d):
        with pytest.raises(ValueError):
            majority_identity_value(ClassicalTask(n, d))


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

    def test_greedy_witness_recount_is_checked(self):
        task, identity = ClassicalTask(2, 3), np.tile(np.arange(3), (2, 1))
        assert evaluate_strategy(task, _greedy_witness(task, identity, 12)).average == 12 / 18
        with pytest.raises(AssertionError, match="greedy encoder scores 12, search reported 13"):
            _greedy_witness(task, identity, 13)

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

    @pytest.mark.parametrize("n, d", COLUMN_MULTISET_SIZES)
    def test_matches_every_column_multiset(self, n, d):
        # the oracle scores canonical column sequences only; the reference
        # scores them all
        optimum, decoders, encoder = column_multiset_optimum(n, d)
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

    @pytest.mark.parametrize(
        "n, d, decoders",
        [
            (2, 6, ((0,) * 6, tuple(range(6)))),
            (2, 7, ((0,) * 7, tuple(range(7)))),
            (3, 5, (tuple(range(5)),) * 3),
            (4, 4, (tuple(range(4)),) * 4),
            (5, 4, (tuple(range(4)),) * 5),
        ],
    )
    def test_witness_decoders_at_search_sizes(self, n, d, decoders):
        # recorded from the one-prefix-at-a-time int8 search this one replaced
        result = optimal_classical_bruteforce(ClassicalTask(n, d), max_tuples=0, allow_large=True)
        assert result.witness.decoders == decoders

    @pytest.mark.parametrize("n, d", [(1, 6), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_boundaries_lose_no_row(self, n, d, rows, monkeypatch):
        """Blocks of one row and chunks of one column (the int8 path, as with _BLOCK_CELLS = 1), and
        of three rows and three columns (the float32 products), split many prefixes' rows between
        blocks; they give the default's result."""
        task = ClassicalTask(n, d)
        default = optimal_classical_bruteforce(task, max_tuples=0, allow_large=True)
        monkeypatch.setattr(classical, "_BLOCK_CELLS", rows * d**n)
        small = optimal_classical_bruteforce(task, max_tuples=0, allow_large=True)
        assert small.optimum == default.optimum
        assert small.witness == default.witness  # its decoders and its encoder

    @pytest.mark.parametrize("n, d", [(11, 2), (2, 7)])
    def test_search_memory_is_bounded_by_the_block(self, n, d):
        """Traced peaks under 16 MB (about 5.3 and 8.9 MB): scoring (11, 2) by float32 threshold masks
        of the whole agreement table peaks at 21 MB, and every row of (2, 7) at once at 37 MB."""
        tracemalloc.start()
        try:
            optimal_classical_bruteforce(ClassicalTask(n, d), max_tuples=0, allow_large=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_agreement_table_is_built_in_slabs(self):
        """At (11, 2) the traced peak stays under 1.5 times the 4.2 MB agreement table (about 5.3 MB);
        comparing one input position over the whole table at a time peaked at 8.4 MB."""
        count = 2**11
        tracemalloc.start()
        try:
            optimal_classical_bruteforce(ClassicalTask(11, 2), max_tuples=0, allow_large=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * count**2


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
        with pytest.raises(ValueError, match="weights must sum to 1, got 0.5$"):
            mixture_value(task, [(send_first_bit(), 0.25), (send_first_bit(), 0.25)])

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError, match="mixture needs at least one strategy"):
            mixture_value(ClassicalTask(2, 2), [])


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


def widened_table(first: int, last: int) -> str:
    """The send-first-bit table text with a token ``0`` added to lines ``first..last``."""
    lines = strategy_to_text(send_first_bit()).splitlines()
    lines[first : last + 1] = [f"{line} 0" for line in lines[first : last + 1]]
    return "\n".join(lines) + "\n"


# Texts that strategy_from_text refuses with ValueError.
MALFORMED_TABLES = [
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
    pytest.param(edited_table(1, "0 0 1e0"), id="exponent-message"),
    pytest.param(edited_table(1, "0 0x1 0"), id="hexadecimal-dit"),
    pytest.param(edited_table(6, "1 +-1"), id="two-signs-answer"),
    pytest.param(edited_table(1, "0 0 1.5"), id="fractional-message"),
    pytest.param(edited_table(1, "0 0 0 # note"), id="comment-after-encoder-line"),
    # A uniform width, so only the count of k + 1 values per line rejects these.
    pytest.param(widened_table(1, 4), id="every-encoder-line-long"),
    pytest.param(widened_table(5, 8), id="every-decoder-line-three-tokens"),
]


def reference_text(strategy: DeterministicStrategy) -> str:
    """The exchange table format written one f-string per line."""
    n, d = strategy.n, strategy.d
    lines = [f"{n} {d}"]
    lines += [f"{' '.join(map(str, x))} {m}" for x, m in zip(itertools.product(range(d), repeat=n), strategy.encoder)]
    lines += [f"{m} {a}" for table in strategy.decoders for m, a in enumerate(table)]
    return "\n".join(lines) + "\n"


def extreme_messages_strategy(n: int, d: int) -> DeterministicStrategy:
    """Random tables whose encoder sends message 0 first and message d - 1 last."""
    rng = np.random.default_rng(d**n)
    encoder = rng.integers(0, d, d**n)
    encoder[0], encoder[-1] = 0, d - 1
    return DeterministicStrategy(n=n, d=d, encoder=encoder, decoders=rng.integers(0, d, (n, d)))


class TestStrategyTextFormat:
    @pytest.mark.parametrize(
        "strategy",
        [
            # every digit-width boundary, each with messages 0 and d - 1
            *(
                pytest.param(extreme_messages_strategy(n, d), id=f"extremes-{n}-{d}")
                for n, d in [(1, 10), (1, 11), (2, 10), (1, 101), (2, 100), (1, 1000)]
            ),
            # several chunks of encoder lines; 18^4 is not a multiple of the chunk length
            pytest.param(majority_identity_strategy(ClassicalTask(3, 48)), id="majority-3-48"),
            pytest.param(majority_identity_strategy(ClassicalTask(4, 18)), id="majority-4-18"),
            pytest.param(extreme_messages_strategy(3, 23), id="random-3-23"),
        ],
    )
    def test_matches_a_line_by_line_reference_writer(self, strategy):
        assert strategy_to_text(strategy) == reference_text(strategy)

    def test_write_memory_at_benchmark_size(self):
        """The (3,48) majority table written with a traced peak under 5 MB; formatting
        every line of a chunk as a Python string peaked at 6.0 MB."""
        strategy = majority_identity_strategy(ClassicalTask(3, 48))
        tracemalloc.start()
        try:
            text = strategy_to_text(strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference_text(strategy)
        assert peak < 5e6

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

    @pytest.mark.parametrize("text", MALFORMED_TABLES)
    def test_rejects_malformed_table(self, text):
        with pytest.raises(ValueError):
            strategy_from_text(text)

    @pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-one"])
    def test_rejects_tokens_that_are_not_ascii_decimal_digits(self, token):
        # int() reads both ('1_0' as 10, '\u0661' as 1)
        with pytest.raises(ValueError, match="ASCII decimal integers"):
            strategy_from_text(edited_table(6, f"1 {token}"))

    def test_parse_memory_at_benchmark_size(self):
        """The (3,48) majority table, 1.2 MB of text, parsed with a traced peak under 12 MB (about
        7 MB from its message column); the general reader peaks at 14.5 MB, and reading every token
        into one list peaked at 43 MB."""
        strategy = majority_identity_strategy(ClassicalTask(3, 48))
        text = strategy_to_text(strategy)
        tracemalloc.start()
        try:
            parsed = strategy_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == strategy
        assert peak < 12e6

    def test_rejects_duplicate_input_line(self):
        text = strategy_to_text(send_first_bit())
        lines = text.splitlines()
        lines[2] = lines[1]
        with pytest.raises(ValueError):
            strategy_from_text("\n".join(lines))


def replace_line(index: int, change):
    """An edit of a table text that passes its line ``index`` through ``change``."""

    def edit(text: str) -> str:
        lines = text.split("\n")
        lines[index] = change(lines[index])
        return "\n".join(lines)

    return edit


def swap_lines(first: int, second: int):
    """An edit of a table text that swaps two of its lines."""

    def edit(text: str) -> str:
        lines = text.split("\n")
        lines[first], lines[second] = lines[second], lines[first]
        return "\n".join(lines)

    return edit


# Edits of the (3,16) table text of extreme_messages_strategy, whose first message is 0, and
# whether the general reader accepts the result; its encoder lines are 1..16^3.
COUNT_3_16 = 16**3
NEAR_LAYOUT_EDITS = [
    pytest.param(lambda text: text.replace("\n", "\r\n"), True, id="crlf"),
    pytest.param(lambda text: text[:-1], True, id="no-final-newline"),
    pytest.param(replace_line(100, lambda line: line + "\n"), True, id="blank-line"),
    pytest.param(replace_line(1, lambda line: line.replace(" ", "  ", 1)), True, id="double-space"),
    pytest.param(replace_line(1, lambda line: line[:-1] + "+0"), True, id="plus-zero"),
    pytest.param(replace_line(COUNT_3_16 + 8, lambda line: "0" + line), True, id="leading-zero"),
    pytest.param(swap_lines(COUNT_3_16 - 1, COUNT_3_16), True, id="swapped-encoder-lines"),
    pytest.param(swap_lines(COUNT_3_16 + 1, COUNT_3_16 + 2), True, id="swapped-decoder-lines"),
    pytest.param(replace_line(0, lambda line: line + " "), True, id="header-trailing-space"),
    pytest.param(replace_line(1, lambda line: line[:-1] + "16"), False, id="message-out-of-range"),
]


class TestColumnRead:
    """Text in strategy_to_text's exact layout is read from its last column and proved by writing it
    again; every other text goes to the general reader, with the same results and errors."""

    @pytest.mark.parametrize(
        "n, d", [(1, 7), (1, 1001), (4, 7), (2, 10), (2, 11), (2, 37), (2, 101), (3, 48)]
    )
    def test_matches_the_general_reader(self, n, d):
        strategy = extreme_messages_strategy(n, d)
        text = strategy_to_text(strategy)
        assert classical._written_strategy(text) == classical._read_table(text) == strategy

    def test_benchmark_tables_take_the_column_read(self):
        for task in (ClassicalTask(3, 48), ClassicalTask(4, 18)):
            text = strategy_to_text(majority_identity_strategy(task))
            assert len(text) >= classical._COLUMN_READ_CHARS
            assert classical._written_strategy(text) == majority_identity_strategy(task)

    @pytest.mark.parametrize("edit, accepted", NEAR_LAYOUT_EDITS)
    def test_near_layout_text_reads_as_the_general_reader_reads_it(self, edit, accepted):
        strategy = extreme_messages_strategy(3, 16)
        canonical = strategy_to_text(strategy)
        text = edit(canonical)
        assert text != canonical and len(text) >= classical._COLUMN_READ_CHARS
        assert classical._written_strategy(text) is None
        if accepted:
            assert strategy_from_text(text) == classical._read_table(text) == strategy
            return
        with pytest.raises(ValueError) as general:
            classical._read_table(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(general.value))}$"):
            strategy_from_text(text)

    @pytest.mark.parametrize("edit, accepted", NEAR_LAYOUT_EDITS)
    def test_near_layout_text_builds_no_strategy(self, edit, accepted, monkeypatch):
        """The text is compared with the tables read from it before a strategy is built from them; an
        out-of-range message that the writer would write as read still fails the build."""
        canonical = strategy_to_text(extreme_messages_strategy(3, 16))
        built = []

        def counted(*args, **kwargs):
            built.append(DeterministicStrategy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(classical, "DeterministicStrategy", counted)
        assert classical._written_strategy(edit(canonical)) is None
        assert not built
        assert classical._written_strategy(canonical) is not None and len(built) == 1

    @pytest.mark.parametrize("text", MALFORMED_TABLES)
    def test_declines_malformed_table_at_once(self, text, monkeypatch):
        """Without the header's bound on n and d, huge-header-n would form 2^(10^20) and never return."""
        start = time.perf_counter()
        assert classical._written_strategy(text) is None
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError) as general:
            classical._read_table(text)
        monkeypatch.setattr(classical, "_COLUMN_READ_CHARS", 0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(general.value))}$"):
            strategy_from_text(text)

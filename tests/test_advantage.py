"""Advantage condition, staircase, and the ratio remark."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import r_max_by_strict_search
from racsim import advantage
from racsim.advantage import (
    advantage_holds,
    r_max,
    ratio_argmax,
    restricted_exact_value,
    scan,
)
from racsim.classical import closed_form_classical
from racsim.quantum import ProtocolSpec, closed_form_full, closed_form_restricted, exact_success


class TestAdvantageHolds:
    def test_first_advantageous_alphabet(self):
        assert advantage_holds(6, 1)

    def test_equality_cases_do_not_count(self):
        assert not advantage_holds(5, 1)
        assert not advantage_holds(11, 2)

    def test_equality_cases_are_exact_probability_ties(self):
        assert restricted_exact_value(5, 1) == Fraction(3, 5)
        assert restricted_exact_value(11, 2) == Fraction(6, 11)
        for d, r in [(5, 1), (11, 2)]:
            assert restricted_exact_value(d, r) == Fraction(d + 1, 2 * d)

    def test_agrees_with_float_closed_forms_away_from_ties(self):
        for d in range(2, 130):
            for r in range(1, d):
                expected = closed_form_restricted(d, r) > closed_form_classical(2, d)
                if d == r * r + 3 * r + 1:
                    expected = False  # float rounding may break the exact tie
                assert advantage_holds(d, r) == expected, (d, r)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            advantage_holds(5, 5)

    @pytest.mark.parametrize(
        "d",
        [1000003000002, 1000003000003, 999999993568952, 1000000056814505, 999999999000000000, 1000000000999999999],
    )
    def test_near_ties_below_double_resolution_are_decided_exactly(self, d):
        # The first two d of band r = 10^6, and the first and last d of the bands near 10^15
        # and 10^18; the closed forms differ by about 1/(4 r^3), 2.5e-19 at r = 10^6.
        r = (math.isqrt(4 * d + 1) - 3) // 2
        assert advantage_holds(d, r)
        assert not advantage_holds(d, r + 1)

    def test_wrong_closed_form_is_caught_at_a_square_that_is_no_tie(self, monkeypatch):
        # d - r = 9 is a perfect square, but (10, 1) is no tie: the float forms are checked.
        monkeypatch.setattr(advantage, "closed_form_restricted", lambda d, r: closed_form_restricted(d, r) - 0.2)
        with pytest.raises(AssertionError, match="disagrees with closed forms at d=10, r=1"):
            advantage_holds(10, 1)

    def test_one_letter_alphabet_is_a_tie(self):
        assert not advantage_holds(1, 0)


class TestRMax:
    def test_small_alphabets_have_no_advantage(self):
        for d in (2, 3, 4, 5):
            assert r_max(d) == 0

    def test_published_bands(self):
        for d in range(6, 12):
            assert r_max(d) == 1
        for d in range(12, 20):
            assert r_max(d) == 2

    def test_band_edges(self):
        assert r_max(20) == 3
        assert r_max(29) == 3
        assert r_max(30) == 4

    def test_floor_formula_overshoots_at_d11(self):
        # floor((-3 + sqrt(4*11 + 5))/2) = 2, but r = 2 only ties classically
        assert r_max(11) == 1

    def test_staircase_monotone_with_unit_jumps(self):
        previous = r_max(2)
        for d in range(3, 201):
            current = r_max(d)
            assert current in (previous, previous + 1)
            if current == previous + 1:
                r = current
                assert d == r * r + 3 * r + 2  # first d strictly past the boundary
            previous = current

    def test_consistency_with_advantage_condition(self):
        for d in range(2, 201):
            r = r_max(d)
            if r >= 1:
                assert advantage_holds(d, r)
            assert not advantage_holds(d, r + 1)

    def test_matches_strict_search(self):
        assert [r_max(d) for d in range(2, 20_001)] == [r_max_by_strict_search(d) for d in range(2, 20_001)]

    @pytest.mark.parametrize("d", [1000003000001, 1000003000002, 1000003000003, 10**12, 2**61, 10**18])
    def test_large_alphabets_land_in_their_band(self, d):
        r = r_max(d)
        assert (r + 1) * (r + 2) <= d < (r + 2) * (r + 3)

    def test_band_beyond_double_resolution(self):
        assert r_max(1000003000002) == 10**6

    def test_numpy_integer_does_not_overflow(self):
        assert r_max(np.int64(2**61)) == r_max(2**61)
        assert r_max(np.int64(2**62)) == r_max(2**62)

    def test_band_that_disagrees_with_the_condition_is_caught(self, monkeypatch):
        monkeypatch.setattr(advantage, "advantage_holds", lambda d, r: True)
        with pytest.raises(AssertionError, match="r_max = 0 disagrees with the advantage condition at d=2..2"):
            r_max(2)

    @pytest.mark.parametrize("shift, d", [(-0.05, 7), (0.1, 10)], ids=["too-low", "too-high"])
    def test_wrong_closed_form_is_caught(self, monkeypatch, shift, d):
        monkeypatch.setattr(advantage, "closed_form_restricted", lambda d, r: closed_form_restricted(d, r) + shift)
        with pytest.raises(AssertionError, match="disagrees with closed forms"):
            r_max(d)
        with pytest.raises(AssertionError, match="disagrees with closed forms"):
            scan(65, 100)


class TestScan:
    def test_no_advantage_region_keeps_full_protocol(self):
        for row in scan(2, 5):
            assert row.r_max == 0
            assert row.p_quantum_restricted == row.p_quantum_full

    def test_first_advantage_row(self):
        (row,) = scan(6, 6)
        assert row.r_max == 1
        assert row.d_prime == 5
        assert row.p_classical == pytest.approx(7 / 12, abs=1e-15)
        assert row.p_quantum_restricted == pytest.approx(0.6030056647916492, abs=1e-12)

    def test_band_jump_row(self):
        (row,) = scan(12, 12)
        assert row.r_max == 2
        assert row.p_quantum_restricted == pytest.approx((10 / 24) * (1 + 10**-0.5), abs=1e-12)

    def test_rows_cover_range_in_order(self):
        rows = scan(2, 30)
        assert [row.d for row in rows] == list(range(2, 31))

    def test_restricted_value_verified_by_enumeration(self):
        for row in scan(2, 32):
            enumerated = exact_success(ProtocolSpec(row.d, row.d_prime)).average
            assert enumerated == pytest.approx(row.p_quantum_restricted, abs=1e-12)

    def test_ratio_column(self):
        (row,) = scan(6, 6)
        assert row.ratio == pytest.approx(row.p_quantum_restricted / row.p_classical, abs=1e-15)

    def test_rows_equal_scalar_closed_forms(self):
        for row in scan(2, 5000):
            r = r_max(row.d)
            p_classical, p_restricted = closed_form_classical(2, row.d), closed_form_restricted(row.d, r)
            assert row == (row.d, row.d - r, r, p_classical, closed_form_full(row.d), p_restricted,
                           p_restricted / p_classical), row.d
            assert all(type(value) is float for value in row[3:])

    @pytest.mark.parametrize("d_min, d_max", [(7, 13), (11, 11), (29, 31), (12, 12), (19, 20)])
    def test_partial_bands(self, d_min, d_max):
        rows = scan(d_min, d_max)
        assert [row.d for row in rows] == list(range(d_min, d_max + 1))
        assert [row.r_max for row in rows] == [r_max_by_strict_search(d) for d in range(d_min, d_max + 1)]
        assert rows == scan(2, d_max)[d_min - 2 :]

    def test_hundred_thousand_rows(self):
        rows = scan(2, 10**5)
        assert len(rows) == 99_999
        assert (rows[-1].d, rows[-1].r_max, rows[-1].d_prime) == (10**5, 314, 10**5 - 314)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scan(5, 2)

    def test_rows_reach_the_int64_limit(self):
        top = 2**63 - 1
        rows = scan(top - 1, top)
        assert [row.d for row in rows] == [top - 1, top]
        assert all(type(row.d) is int and row.r_max == r_max(row.d) for row in rows)
        with pytest.raises(ValueError):
            scan(top, top + 1)

    def test_d_min_past_int64_is_blamed_on_d_min(self):
        with pytest.raises(ValueError, match=r"^d_min must be in 2\.\.9223372036854775807, got 10{20}$"):
            scan(10**20)

    @pytest.mark.parametrize("d_min, d_max, calls", [(65, 200, 0), (100, 200, 0), (60, 70, 5), (2, 100, 63)])
    def test_enumeration_covers_d_up_to_verify_dmax_only(self, monkeypatch, d_min, d_max, calls):
        seen = []

        def counted(spec):
            seen.append(spec.d)
            return exact_success(spec)

        monkeypatch.setattr(advantage, "exact_success", counted)
        scan(d_min, d_max)
        assert len(seen) == calls
        assert seen == list(range(d_min, min(d_max, advantage.VERIFY_DMAX) + 1))

    @pytest.mark.parametrize(
        "func, args",
        [
            (scan, (2.5, 6)),
            (scan, (2, 6.0)),
            (r_max, (2.5,)),
            (r_max, (True,)),
            (advantage_holds, (6, 1.0)),
            (advantage_holds, (6.5, 1)),
            (restricted_exact_value, (5.0, 1)),
            (ratio_argmax, (2, 10.5)),
        ],
        ids=["scan-dmin", "scan-dmax", "r_max-float", "r_max-bool", "holds-r", "holds-d",
             "exact-value-d", "ratio-argmax"],
    )
    def test_rejects_non_integers(self, func, args):
        with pytest.raises(ValueError):
            func(*args)


LARGEST = int(sys.float_info.max)

# (function, arguments after d, value at d = LARGEST)
FLOAT_SIZED = [
    pytest.param(closed_form_full, (), 0.5, id="closed_form_full"),
    pytest.param(closed_form_restricted, (1,), 0.5, id="closed_form_restricted"),
    pytest.param(lambda d: closed_form_classical(2, d), (), 0.5, id="closed_form_classical-2"),
    pytest.param(lambda d: closed_form_classical(3, d), (), 1 / 3, id="closed_form_classical-3"),
    pytest.param(advantage_holds, (10**6,), True, id="advantage_holds"),
    pytest.param(r_max, (), (math.isqrt(4 * LARGEST + 1) - 3) // 2, id="r_max"),
]


class TestFloatRange:
    """The closed forms compute in floats, so d stops at the largest float."""

    @pytest.mark.parametrize("func, rest, value", FLOAT_SIZED)
    def test_beyond_the_largest_float_is_a_value_error(self, func, rest, value):
        for d in (10**400, LARGEST + 1):
            limit = r"alphabet size d must be in [12]\.\.1\.7976931348623157e\+308, got"
            with pytest.raises(ValueError, match=limit):
                func(d, *rest)

    @pytest.mark.parametrize("func, rest, value", FLOAT_SIZED)
    def test_the_largest_float_itself_is_accepted(self, func, rest, value):
        # 2.0 * d would overflow here, and the restricted form would read 0.0
        assert func(LARGEST, *rest) == value


def full_to_classical(d):
    return closed_form_full(d) / closed_form_classical(2, d)


class TestRatioRemark:
    def test_full_to_classical_ratio_peaks_at_six(self):
        assert ratio_argmax(2, 1000) == 6

    def test_six_beats_neighbours(self):
        assert full_to_classical(6) > full_to_classical(5)
        assert full_to_classical(6) > full_to_classical(7)

    def test_matches_the_closed_forms_first_maximum(self):
        for d_min in range(2, 12):
            for d_max in range(d_min, 40):
                ratios = [full_to_classical(d) for d in range(d_min, d_max + 1)]
                assert ratio_argmax(d_min, d_max) == d_min + ratios.index(max(ratios)), (d_min, d_max)

    def test_range_past_int64_is_refused_at_once(self):
        with pytest.raises(ValueError, match="d_max must be in 2..9223372036854775807"):
            ratio_argmax(2, 10**30)

    def test_d_min_past_int64_is_blamed_on_d_min(self):
        with pytest.raises(ValueError, match=r"^d_min must be in 2\.\.9223372036854775807, got 10{20}$"):
            ratio_argmax(10**20)

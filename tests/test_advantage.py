"""Advantage condition, staircase, and the ratio remark."""

from fractions import Fraction

import pytest

from racsim.advantage import (
    advantage_holds,
    full_to_classical_ratio,
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

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scan(5, 2)

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


class TestRatioRemark:
    def test_full_to_classical_ratio_peaks_at_six(self):
        assert ratio_argmax(2, 1000) == 6

    def test_six_beats_neighbours(self):
        assert full_to_classical_ratio(6) > full_to_classical_ratio(5)
        assert full_to_classical_ratio(6) > full_to_classical_ratio(7)

    def test_ratio_value(self):
        assert full_to_classical_ratio(6) == pytest.approx(
            closed_form_full(6) / closed_form_classical(2, 6), abs=1e-15
        )

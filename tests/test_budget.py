import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    ZcdpBudget,
    census2020_report,
    compose_zcdp,
    derangement_count,
    group_privacy_doubled,
    load_census_zcdp_rows,
    load_counterfactual_rows,
    log_derangement_ratio,
    min_budget,
    optimality_gap_f,
    psa_budget,
    psa_lower_bounds,
    swap_rates_for_budget,
    zcdp_to_approx_dp,
)
from permuswap.budget import _data_path

from conftest import bom_crlf_copy


def altsum_derangements(k):
    """Independent oracle: d(k) = k! * sum_j (-1)^j / j!, exact."""
    total = Fraction(0)
    for j in range(k + 1):
        total += Fraction((-1) ** j, math.factorial(j))
    value = math.factorial(k) * total
    assert value.denominator == 1
    return value.numerator


class TestDerangements:
    def test_base_cases(self):
        assert derangement_count(0) == 1
        assert derangement_count(1) == 0
        assert derangement_count(2) == 1

    def test_small_values(self):
        assert derangement_count(3) == 2
        assert derangement_count(4) == 9

    def test_recurrence_matches_alternating_sum(self):
        for k in range(21):
            assert derangement_count(k) == altsum_derangements(k)

    def test_ratio_inequality(self):
        """d(k)/d(k-a) <= (k+1)^a for 0 <= a <= k, a != k-1, exactly."""
        for k in range(31):
            for a in range(k + 1):
                if a == k - 1:
                    continue
                lhs = derangement_count(k)
                rhs = (k + 1) ** a * derangement_count(k - a)
                assert lhs <= rhs, (k, a)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derangement_count(-1)

    @pytest.mark.parametrize("k", [2.5, 4.9, 4.0, "4"])
    def test_non_integer_rejected(self, k):
        """k is not truncated: 2.5 is not 2, 4.9 is not 4."""
        with pytest.raises(TypeError):
            derangement_count(k)

    def test_numpy_integer_accepted(self):
        assert derangement_count(np.int64(4)) == derangement_count(np.uint8(4)) == 9


class TestLogDerangementRatio:
    def test_b2_is_zero(self):
        assert log_derangement_ratio(2) == 0.0

    def test_b4_is_ln9(self):
        assert log_derangement_ratio(4) == pytest.approx(math.log(9), abs=1e-14)

    def test_b3_undefined(self):
        with pytest.raises(ValueError):
            log_derangement_ratio(3)

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            log_derangement_ratio(1)

    @pytest.mark.parametrize("b", [4.5, 2.5, 4.0, "4"])
    def test_non_integer_rejected(self, b):
        """b is not truncated: 4.5 does not give ln 9."""
        with pytest.raises(TypeError):
            log_derangement_ratio(b)

    def test_numpy_integer_accepted(self):
        assert log_derangement_ratio(np.int32(4)) == log_derangement_ratio(4)

    def test_asymptotic_matches_exact_big_integers(self):
        for b in (26, 40, 100):
            exact = math.log(derangement_count(b)) - math.log(derangement_count(b - 2))
            assert log_derangement_ratio(b) == pytest.approx(exact, abs=1e-10)

    def test_b100_is_ln_9900(self):
        assert log_derangement_ratio(100) == pytest.approx(math.log(9900), abs=1e-10)


class TestPsaBudget:
    def test_massachusetts_conversion_table(self):
        # b = 264,331: all two-person households of the state
        expected = {0.01: 17.08, 0.05: 15.43, 0.10: 14.68, 0.50: 12.48}
        for p, eps in expected.items():
            assert psa_budget(p, 264331).epsilon == pytest.approx(eps, abs=0.005)

    def test_counterfactual_rows(self):
        cases = [
            (13475623, 19.36, 16.42),
            (3948028, 18.13, 15.19),
            (3420628, 17.99, 15.05),
            (939185, 16.70, 13.75),
            (6204, 11.68, 8.73),
            (4549, 11.37, 8.42),
        ]
        for b, eps05, eps50 in cases:
            assert psa_budget(0.05, b).epsilon == pytest.approx(eps05, abs=0.01)
            assert psa_budget(0.50, b).epsilon == pytest.approx(eps50, abs=0.01)

    def test_2010_style_estimate(self):
        # b = 3.65 million, rates 2% and 4%
        assert psa_budget(0.02, 3650000).epsilon == pytest.approx(19.0020583, abs=1e-6)
        assert psa_budget(0.04, 3650000).epsilon == pytest.approx(18.2882918, abs=1e-6)

    def test_zero_bound_gives_zero(self):
        for p in (0.0, 0.3, 1.0):
            result = psa_budget(p, 0)
            assert result.epsilon == 0.0
            assert result.regime == "zero-b"

    def test_endpoints_infinite_for_positive_bound(self):
        assert psa_budget(1.0, 2).epsilon == math.inf
        assert psa_budget(0.0, 5).regime == "infinite"

    def test_branches_agree_at_threshold(self):
        for b in (2, 10, 1000):
            root = math.sqrt(b + 1)
            p_star = root / (root + 1)
            result = psa_budget(p_star, b)
            assert result.regime == "low-p"
            log_o = math.log(p_star) - math.log1p(-p_star)
            assert math.log(b + 1) - log_o == pytest.approx(log_o, abs=1e-9)
            assert result.epsilon == pytest.approx(0.5 * math.log(b + 1), abs=1e-9)

    @pytest.mark.parametrize("p, b", [(4 / 5, 15), (5 / 6, 24), (12 / 13, 143), (13 / 14, 168), (14 / 15, 195)])
    def test_threshold_rate_keeps_the_budget_at_b_minus_one(self, p, b):
        """At these threshold rates ln(b+1) - ln(o) rounds an ulp below
        ln(o), the budget at b - 1; the budget takes the larger branch and
        keeps the regime tag."""
        low, high = psa_budget(p, b), psa_budget(p, b - 1)
        assert (low.regime, high.regime) == ("low-p", "high-p")
        log_o = math.log(p) - math.log1p(-p)
        assert math.log(b + 1) - log_o < log_o == high.epsilon == low.epsilon

    def test_nondecreasing_in_b_on_the_rate_grid(self):
        """Every rate i/n with n < 400 and every b < 200.  Each branch is
        nondecreasing in b and the threshold grows with b, so a rate moves
        from high-p to low-p once, at the first b whose threshold it does
        not exceed; every rate is checked around that b, and the rates with
        n < 40 at every b."""
        thresholds = [math.sqrt(b + 1) / (math.sqrt(b + 1) + 1.0) for b in range(200)]
        assert thresholds == sorted(thresholds)
        for p in {i / n for n in range(2, 400) for i in range(1, n)}:
            switch = bisect.bisect_left(thresholds, p)
            bs = range(max(switch - 2, 0), min(switch + 2, 200))
            budgets = [psa_budget(p, b) for b in bs]
            assert [r.regime for r in budgets if r.b] == ["high-p" if b < switch else "low-p" for b in bs if b]
            assert [r.epsilon for r in budgets] == sorted(r.epsilon for r in budgets), p
        for p in {i / n for n in range(2, 40) for i in range(1, n)}:
            values = [psa_budget(p, b).epsilon for b in range(200)]
            assert values == sorted(values), p

    def test_u_shape_in_p(self):
        for b in (10, 100):
            eps_min, p_min = min_budget(b)
            grid = [i / 200 for i in range(1, 200)]
            values = [psa_budget(p, b).epsilon for p in grid]
            below = [v for p, v in zip(grid, values) if p <= p_min]
            above = [v for p, v in zip(grid, values) if p > p_min]
            assert below == sorted(below, reverse=True)
            assert above == sorted(above)
            assert min(values) >= eps_min - 1e-12

    def test_large_bound_without_big_numbers(self):
        # b up to 1e8 stays in plain floats; value frozen from a
        # 40-digit evaluation
        assert psa_budget(0.05, 10**8).epsilon == pytest.approx(
            21.3651197331, abs=1e-8
        )
        eps, p = min_budget(10**8)
        assert eps == pytest.approx(9.21034037698, abs=1e-8)
        assert 0.999 < p < 1.0

    def test_odds_field(self):
        assert psa_budget(0.9, 10).odds == pytest.approx(9.0)
        assert psa_budget(1.0, 10).odds == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            psa_budget(1.2, 3)
        with pytest.raises(ValueError):
            psa_budget(0.5, -1)


class TestMinBudget:
    def test_b10(self):
        eps, p = min_budget(10)
        assert eps == pytest.approx(1.20, abs=0.005)
        assert p == pytest.approx(0.768, abs=0.001)

    def test_b_million(self):
        eps, p = min_budget(10**6)
        assert eps == pytest.approx(6.91, abs=0.005)
        assert p == pytest.approx(0.999, abs=0.001)

    def test_consistency_with_budget(self):
        for b in (2, 10, 4549, 10**6):
            eps, p = min_budget(b)
            assert psa_budget(p, b).epsilon == pytest.approx(eps, abs=1e-9)

    def test_small_b_rejected(self):
        with pytest.raises(ValueError):
            min_budget(1)


class TestSwapRatesForBudget:
    def test_example_pair(self):
        rates = swap_rates_for_budget(3.0, 10)
        assert rates is not None
        assert rates[0] == pytest.approx(0.354, abs=0.001)
        assert rates[1] == pytest.approx(0.952, abs=0.001)

    def test_below_minimum_gives_none(self):
        assert swap_rates_for_budget(1.0, 10) is None

    def test_round_trip(self):
        for b in (10, 1000, 264331):
            eps_min, _ = min_budget(b)
            for eps in (eps_min + 0.05, eps_min + 1, eps_min + 5):
                low, high = swap_rates_for_budget(eps, b)
                assert psa_budget(low, b).epsilon == pytest.approx(eps, abs=1e-9)
                assert psa_budget(high, b).epsilon == pytest.approx(eps, abs=1e-9)

    def test_coincide_at_minimum(self):
        eps_min, p_min = min_budget(10)
        low, high = swap_rates_for_budget(eps_min, 10)
        assert low == pytest.approx(p_min, abs=1e-12)
        assert high == pytest.approx(p_min, abs=1e-12)


class TestLowerBounds:
    def test_high_rate_includes_odds_bound(self):
        values = dict((c, v) for v, c in psa_lower_bounds(0.9, 10))
        assert values["selection-odds"] == pytest.approx(math.log(9), abs=1e-9)

    def test_degenerate_rate(self):
        bounds = psa_lower_bounds(0.0, 5)
        assert bounds == [(math.inf, "degenerate-rate")]

    def test_all_bounds_below_budget(self):
        for b in [2] + list(range(4, 31)) + [100, 10**6]:
            for p in (0.05, 0.3, 0.5, 0.7, 0.95):
                budget = psa_budget(p, b).epsilon
                for value, condition in psa_lower_bounds(p, b):
                    assert value <= budget + 1e-9, (b, p, condition)

    def test_b3_has_no_ratio_bound(self):
        conditions = [c for _, c in psa_lower_bounds(0.5, 3)]
        assert conditions == ["selection-odds"]


class TestOptimalityGap:
    def test_value_at_ten(self):
        # exact evaluation; the spec-level "<= 0.148" rounding is covered
        # in the acceptance suite with the discrepancy documented
        assert optimality_gap_f(10) == pytest.approx(0.148007479, abs=1e-8)

    def test_monotone_decreasing_and_vanishing(self):
        samples = [2, 3, 4, 6, 10, 25, 26, 40, 100, 10**3, 10**4, 10**6]
        values = [optimality_gap_f(b) for b in samples]
        assert values == sorted(values, reverse=True)
        assert all(v > 0 for v in values)
        assert values[-1] < 1e-5

    def test_continuous_across_threshold(self):
        assert optimality_gap_f(25) == pytest.approx(optimality_gap_f(26), rel=0.1)

    def test_small_b_rejected(self):
        with pytest.raises(ValueError):
            optimality_gap_f(1)


class TestZcdpConversion:
    # reference values from a 50-digit evaluation of the formula
    FORMULA_VALUES = {
        0.07: 2.60914124,
        2.56: 17.91528292,
        7.70: 34.33073804,
        4.96: 26.33364925,
        15.29: 52.81680433,
        55.371: 126.78428705,
    }

    def test_formula_values(self):
        for rho2, eps in self.FORMULA_VALUES.items():
            assert zcdp_to_approx_dp(rho2, 1e-10) == pytest.approx(eps, abs=1e-6)

    def test_zero_budget(self):
        assert zcdp_to_approx_dp(0.0, 1e-10) == 0.0

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(1.0, 0.0)
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(1.0, 1.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(-0.1, 1e-10)


class TestComposition:
    def test_pl_stage(self):
        assert compose_zcdp([0.07, 2.56]).rho_squared == pytest.approx(2.63, abs=1e-12)

    def test_dhc_including_pl(self):
        total = compose_zcdp([7.70, 4.96, 2.63, 0.0]).rho_squared
        assert total == pytest.approx(15.29, abs=1e-9)

    def test_overall(self):
        total = compose_zcdp([15.29, 19.776, 17.79, 2.515]).rho_squared
        assert total == pytest.approx(55.371, abs=1e-9)

    def test_labels_join(self):
        combined = compose_zcdp([ZcdpBudget(1.0, "a"), ZcdpBudget(2.0, "b")])
        assert combined.label == "a+b"

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_commutative_and_associative(self, values):
        forward = compose_zcdp(values).rho_squared
        backward = compose_zcdp(list(reversed(values))).rho_squared
        assert forward == pytest.approx(backward, abs=1e-12)
        if len(values) >= 2:
            nested = compose_zcdp(
                [compose_zcdp(values[:2]).rho_squared] + values[2:]
            ).rho_squared
            assert nested == pytest.approx(forward, abs=1e-12)

    def test_group_privacy_doubling(self):
        rho2, eps = group_privacy_doubled(55.37)
        assert rho2 == pytest.approx(221.48, abs=1e-9)
        assert eps == pytest.approx(364.31, abs=0.05)


class TestCensusReport:
    def test_constants_file_loads(self):
        rows = load_census_zcdp_rows()
        assert len(rows) == 9
        by_label = {(r.product, r.unit_resolution): r for r in rows}
        assert by_label[("PL", "person")].rho_squared == 2.56

    def test_counterfactual_file_loads(self):
        rows = load_counterfactual_rows()
        assert len(rows) == 6
        assert rows[0].b == 13475623

    def test_report_totals(self):
        report = census2020_report()
        assert report.topdown_total.rho_squared == pytest.approx(15.29)
        assert report.topdown_total.epsilon == pytest.approx(52.8168, abs=0.001)
        assert report.overall.rho_squared == pytest.approx(55.371)
        assert report.overall.epsilon == pytest.approx(126.78, abs=0.02)

    def test_report_noise_stages(self):
        report = census2020_report()
        stages = {t.label: t.rho_squared for t in report.noise_stage_totals}
        assert stages["PL noise stage"] == pytest.approx(2.63)
        assert stages["DHC incl. PL"] == pytest.approx(15.29)

    def test_household_row_flagged(self):
        report = census2020_report()
        assert any("PL/household" in note for note in report.notes)

    def test_counterfactual_budgets_match_published(self):
        report = census2020_report()
        for row in report.counterfactual:
            for rate, published in row.published_by_rate.items():
                assert row.epsilon_by_rate[rate] == pytest.approx(
                    published, abs=0.01
                ), (row.b, rate)

    def test_constants_with_byte_order_mark(self, tmp_path):
        shipped = _data_path("census_zcdp.tsv")
        bom = bom_crlf_copy(shipped, tmp_path / "bom.tsv")
        assert load_census_zcdp_rows(bom) == load_census_zcdp_rows()

    def test_malformed_constants_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_census_zcdp_rows(bad)

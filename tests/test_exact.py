import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    EnumerationBudgetError,
    load_dataset,
    load_roles,
    Permutation,
    UniverseMismatchError,
    apply_permutation,
    connecting_permutation,
    enumerate_universe,
    exact_psa_distribution,
    hamming_distance,
    max_probability_ratio,
    max_stratum_b,
    measured_optimal_epsilon,
    mult_distance,
    psa_budget,
    stratum_permutation_prob,
    swap_invariants,
    tabulate,
    verify_dp,
)
from permuswap import exact
from permuswap import dataset as dataset_module
from permuswap.dataset import ContingencyTable, Dataset, Domain, DomainMismatchError, dataset_from_table
from permuswap.exact import (
    DEFAULT_ENUMERATION_BUDGET,
    ExactDistribution,
    applicable_lower_bounds,
    dp_sweep,
    enumerate_small_datasets,
    invariant_stratum_bound,
    min_connecting_derangement,
    odds_bound_applies,
    ratio_bound_applies,
    universe_report,
)

from conftest import FIXTURES, load_fixture, make_dataset
from test_reference_loops import ref_max_probability_ratio, ref_min_moves


class TestExactDistribution:
    def test_two_record_half(self, two_record_pair):
        x, swapped = two_record_pair
        dist = exact_psa_distribution(x, Fraction(1, 2))
        assert dist.prob_of(tabulate(x)) == Fraction(1, 2)
        assert dist.prob_of(tabulate(swapped)) == Fraction(1, 2)

    def test_two_record_third(self, two_record_pair):
        x, swapped = two_record_pair
        dist = exact_psa_distribution(x, Fraction(1, 3))
        assert dist.prob_of(tabulate(x)) == Fraction(4, 5)
        assert dist.prob_of(tabulate(swapped)) == Fraction(1, 5)

    def test_probabilities_sum_to_one_exactly(self):
        x = make_dataset(
            [(0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 1)], (2, 2, 2)
        )
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            dist = exact_psa_distribution(x, p)
            assert sum(dist.probs.values()) == 1

    def test_rate_zero_point_mass(self, two_record_pair):
        x, _ = two_record_pair
        dist = exact_psa_distribution(x, 0)
        assert dist.probs == {tabulate(x).canonical_key(): Fraction(1)}

    def test_rate_one_forces_full_derangement(self, two_record_pair):
        x, swapped = two_record_pair
        dist = exact_psa_distribution(x, 1)
        assert dist.probs == {tabulate(swapped).canonical_key(): Fraction(1)}

    def test_rate_one_skips_singleton_strata(self):
        x = make_dataset([(0, 0, 0), (1, 0, 0), (1, 1, 1)], (2, 2, 2))
        dist = exact_psa_distribution(x, 1)
        for key in dist.probs:
            table = dist.table_for(key)
            assert table.counts[0, 0, 0] == 1

    def test_support_equals_universe_for_interior_rates(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (0, 0, 1)], (1, 2, 2))
        universe = {t.canonical_key() for t in enumerate_universe(x)}
        dist = exact_psa_distribution(x, Fraction(3, 10))
        assert set(dist.probs) == universe

    def test_rate_one_budget_counts_derangements(self):
        """Four distinct records have 24 tables, so 24**2 * 5 = 2,880 pair
        counts, held to the guard whatever the rate: the stratum universe,
        which no rate enters, is cut there, and the law refuses at an
        inner rate and at p = 1 alike.  At p = 1 the law is the uniform
        derangement, d(4) = 9 tables."""
        x = make_dataset([(0, i, i) for i in range(4)], (1, 4, 4))
        refused = "^at least 2880 pair counts exceed the budget of 2879$"
        assert len(exact._universe((1,) * 4, (1,) * 4, 2880, {})) == 24
        with pytest.raises(EnumerationBudgetError, match=refused):
            exact._universe((1,) * 4, (1,) * 4, 2879, {})
        for rate in (Fraction(1, 2), Fraction(1)):
            assert len(exact_psa_distribution(x, rate, max_permutations=2880).probs) == (24 if rate < 1 else 9)
            with pytest.raises(EnumerationBudgetError, match=refused):
                exact_psa_distribution(x, rate, max_permutations=2879)
        dist = exact_psa_distribution(x, 1, max_permutations=2880)
        assert set(dist.probs.values()) == {Fraction(1, 9)}

    def test_enumeration_guard(self):
        """One record per diagonal cell of 1x7x7: 7! = 5,040 tables, whose
        pair counts exceed the default guard."""
        x = make_dataset([(0, i, i) for i in range(7)], (1, 7, 7))
        with pytest.raises(EnumerationBudgetError, match="pair counts exceed the budget of 10000000$"):
            exact_psa_distribution(x, Fraction(1, 2))


INTERIOR_RATES = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
    lambda r: 0 < r < 1
)


def _same_universe_pair(data, domain, max_size):
    """A drawn dataset x and a member x' of its universe: x' takes the
    swap values of x permuted within each stratum, with its records in
    a drawn order."""
    cells = list(itertools.product(*(range(n) for n in domain)))
    recs = data.draw(st.lists(st.sampled_from(cells), max_size=max_size))
    rank = data.draw(st.permutations(range(len(recs))))
    swapped = list(recs)
    for m in range(domain[0]):
        positions = [i for i, r in enumerate(recs) if r[0] == m]
        donors = sorted(positions, key=rank.__getitem__)
        for i, j in zip(positions, donors):
            swapped[i] = (recs[i][0], recs[i][1], recs[j][2])
    return make_dataset(recs, domain), make_dataset([swapped[i] for i in rank], domain)


class TestIntegerLaw:
    """The oracle's laws are integer numerators over one denominator per
    stratum size and rate; these hold them to the Fraction formulas."""

    @staticmethod
    def _check_weights(rate):
        for n in range(2, 13):
            weights, denom = exact._stratum_weights(n, rate)
            assert weights[1] == 0
            for k in range(n + 1):
                if k != 1:
                    assert Fraction(weights[k], denom) == stratum_permutation_prob(k, n, rate)

    @pytest.mark.parametrize(
        "rate", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(199, 259)]
    )
    def test_weights_match_fraction_formula(self, rate):
        self._check_weights(rate)

    @settings(max_examples=30, deadline=None)
    @given(INTERIOR_RATES)
    def test_weights_match_fraction_formula_at_drawn_rate(self, rate):
        self._check_weights(rate)

    def test_stratum_laws_sum_to_their_denominators(self):
        """One stratum per table, so each law is a stratum law; its
        denominator depends only on the stratum size and the rate."""
        rates = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(199, 259), Fraction(1)]
        cache: dict = {}
        checked = 0
        for d in enumerate_small_datasets(Domain(1, 2, 3), 6):
            n = len(d)
            for rate in rates:
                nums, denom = exact._law(tabulate(d), rate, DEFAULT_ENUMERATION_BUDGET, cache)
                assert min(nums.values()) > 0
                assert sum(nums.values()) == denom
                if n < 2:
                    assert denom == 1
                else:
                    assert denom == exact._stratum_weights(n, rate)[1]
                checked += 1
        assert checked == 924 * len(rates)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), INTERIOR_RATES)
    def test_pair_comparison_matches_fraction_distance(self, data, rate):
        """Same-universe members share the denominator, and the integer
        comparison of their numerators, max_probability_ratio and
        mult_distance all agree with the Fraction loop over the public
        laws; verify_dp reports that loop's witness (the smallest key
        among the maximizers)."""
        x, y = _same_universe_pair(data, (2, 2, 3), 6)
        cache: dict = {}
        law_x = exact._law(tabulate(x), rate, DEFAULT_ENUMERATION_BUDGET, cache)
        law_y = exact._law(tabulate(y), rate, DEFAULT_ENUMERATION_BUDGET, cache)
        assert law_x[1] == law_y[1]
        p_dist, q_dist = exact_psa_distribution(x, rate), exact_psa_distribution(y, rate)
        reference = ref_max_probability_ratio(p_dist, q_dist)
        assert exact._largest_ratio(law_x[0], law_y[0]) == reference
        assert max_probability_ratio(p_dist, q_dist) == reference
        ratio, key = reference
        distance = math.log(ratio.numerator) - math.log(ratio.denominator)
        assert mult_distance(p_dist, q_dist) == distance
        verdict = verify_dp(x, y, rate, psa_budget(float(rate), max_stratum_b(x)))
        _, _, witness = verdict.witness
        d_ham = hamming_distance(x, y)
        if d_ham == 0:
            assert witness is None
        else:
            assert verdict.measured == distance / d_ham
            assert witness == p_dist.table_for(key)


class TestEnumerateUniverse:
    def test_constant_dataset_is_singleton(self):
        x = make_dataset([(0, 1, 1)] * 3, (1, 2, 2))
        assert enumerate_universe(x) == (tabulate(x),)

    def test_two_record_witness_has_two_tables(self, two_record_pair):
        x, swapped = two_record_pair
        universe = enumerate_universe(x)
        assert len(universe) == 2
        assert tabulate(x) in universe
        assert tabulate(swapped) in universe

    def test_members_share_margins_and_sizes(self):
        x = make_dataset(
            [(0, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)], (2, 2, 2)
        )
        inv = swap_invariants(x)
        for table in enumerate_universe(x):
            assert swap_invariants(table) == inv
            assert table.counts.sum(axis=(1, 2)).tolist() == inv.stratum_sizes.tolist()

    def test_guard(self):
        x = make_dataset([(0, h % 4, h % 4) for h in range(12)], (1, 4, 4))
        with pytest.raises(EnumerationBudgetError):
            enumerate_universe(x, max_tables=5)

    def test_guard_stops_the_build(self):
        """Millions of tables share these margins, and one more cell
        multiplies the partial tables by up to 201.  The guard refuses
        after holding at most max_tables + 1 of them at a time."""
        x = make_dataset([(0, h, s) for h in range(2) for s in range(4) for _ in range(100)], (1, 2, 4))
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError):
                enumerate_universe(x, max_tables=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestMultDistance:
    def test_identical_distributions(self, two_record_pair):
        x, _ = two_record_pair
        dist = exact_psa_distribution(x, Fraction(1, 2))
        assert mult_distance(dist, dist) == 0.0

    def test_support_mismatch_is_infinite(self, two_record_pair):
        x, swapped = two_record_pair
        p_dist = exact_psa_distribution(x, 0)
        q_dist = exact_psa_distribution(swapped, 0)
        assert mult_distance(p_dist, q_dist) == math.inf

    def test_symmetric_pair_coincides_at_even_odds(self, two_record_pair):
        x, swapped = two_record_pair
        p_dist = exact_psa_distribution(x, Fraction(1, 2))
        q_dist = exact_psa_distribution(swapped, Fraction(1, 2))
        assert mult_distance(p_dist, q_dist) == 0.0

    def test_event_sup_attained_on_atoms(self, two_record_pair):
        """Random-event spot check: |ln P(E)/Q(E)| never exceeds the
        atom-wise maximum for any of 200 random events."""
        x, swapped = two_record_pair
        bigger = make_dataset(
            [(0, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 0)], (1, 2, 2)
        )
        rng = random.Random(99)
        for base in (x, bigger):
            p_dist = exact_psa_distribution(base, Fraction(1, 10))
            q_dist = exact_psa_distribution(
                apply_permutation(Permutation((1, 0) + tuple(range(2, len(base.records)))), base),
                Fraction(1, 10),
            )
            if set(p_dist.probs) != set(q_dist.probs):
                continue
            atom_max = mult_distance(p_dist, q_dist)
            keys = sorted(p_dist.probs)
            for _ in range(200):
                event = [k for k in keys if rng.random() < 0.5]
                if not event:
                    continue
                p_e = sum(p_dist.probs[k] for k in event)
                q_e = sum(q_dist.probs[k] for k in event)
                assert abs(math.log(p_e / q_e)) <= atom_max + 1e-12


    def test_ratio_witness_ignores_insertion_order(self):
        """Tied atoms resolve to the smallest canonical key, also in the
        oracle's integer comparison (numerators over 4)."""
        domain = Domain(1, 1, 2)
        p = {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 4), (1, 1): Fraction(1, 4)}
        q = {(2, 0): Fraction(1, 4), (0, 2): Fraction(1, 2), (1, 1): Fraction(1, 4)}
        q_dist = ExactDistribution(domain, q)
        q_nums = {key: int(v * 4) for key, v in q.items()}
        for order in ([(2, 0), (0, 2), (1, 1)], [(1, 1), (0, 2), (2, 0)]):
            p_dist = ExactDistribution(domain, {key: p[key] for key in order})
            assert max_probability_ratio(p_dist, q_dist) == (Fraction(2), (0, 2))
            p_nums = {key: int(p[key] * 4) for key in order}
            assert exact._largest_ratio(p_nums, q_nums) == (Fraction(2), (0, 2))
            assert exact._largest_ratio(q_nums, p_nums) == (Fraction(2), (0, 2))


class TestVerifyDp:
    def test_reordered_pair_measures_zero(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (0, 1, 0)], (1, 2, 2))
        reordered = Dataset(x.codes[[2, 1, 0]], x.domain)
        verdict = verify_dp(x, reordered, Fraction(1, 3), psa_budget(1 / 3, 3))
        assert verdict.measured == 0.0
        assert verdict.passed

    def test_two_record_witness_at_third(self, two_record_pair):
        x, swapped = two_record_pair
        budget = psa_budget(1 / 3, 2)
        verdict = verify_dp(x, swapped, Fraction(1, 3), budget)
        assert verdict.measured == pytest.approx(math.log(2), abs=1e-12)
        assert verdict.bound == pytest.approx(math.log(6), abs=1e-12)
        assert verdict.passed

    def test_tabulates_each_dataset_once(self, two_record_pair, monkeypatch):
        """One table per dataset serves the universe check, the Hamming
        distance and the distribution."""
        calls = []

        def counted(x, _tabulate=dataset_module.tabulate):
            calls.append(x)
            return _tabulate(x)

        monkeypatch.setattr(dataset_module, "tabulate", counted)
        monkeypatch.setattr(exact, "tabulate", counted)
        x, swapped = two_record_pair
        assert verify_dp(x, swapped, Fraction(1, 3), psa_budget(1 / 3, 2)).passed
        assert len(calls) == 2
        assert sum(c is x for c in calls) == sum(c is swapped for c in calls) == 1

    def test_universe_mismatch_rejected(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 1, 1)], (1, 2, 2))
        with pytest.raises(UniverseMismatchError):
            verify_dp(x, y, Fraction(1, 2), psa_budget(0.5, 0))

    def test_endpoint_rates_rejected(self, two_record_pair):
        x, swapped = two_record_pair
        with pytest.raises(ValueError):
            verify_dp(x, swapped, 0, psa_budget(0.0, 2))


class TestMeasuredOptimal:
    def test_singleton_universe(self):
        x = make_dataset([(0, 0, 0)] * 2, (1, 2, 2))
        assert measured_optimal_epsilon(enumerate_universe(x), Fraction(1, 2)) == 0.0

    def test_two_record_universe_hits_odds_exactly(self, two_record_pair):
        x, _ = two_record_pair
        universe = enumerate_universe(x)
        for p in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)):
            measured = measured_optimal_epsilon(universe, p)
            expected = abs(math.log(float(p) / (1 - float(p))))
            assert measured == pytest.approx(expected, abs=1e-12)

    def test_exact_ratio_before_the_log(self, two_record_pair):
        x, swapped = two_record_pair
        for p in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)):
            p_dist = exact_psa_distribution(x, p)
            q_dist = exact_psa_distribution(swapped, p)
            ratio, _ = max_probability_ratio(p_dist, q_dist)
            o = p / (1 - p)
            assert ratio == (1 / o) ** 2  # exact rational equality

    def test_sandwiched_between_bounds_and_budget(self, two_record_pair):
        x, _ = two_record_pair
        universe = enumerate_universe(x)
        inv = swap_invariants(x)
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            measured = measured_optimal_epsilon(universe, p)
            budget = psa_budget(float(p), max_stratum_b(x)).epsilon
            assert measured <= budget + 1e-12
            for bound, condition in applicable_lower_bounds(inv, float(p)):
                assert measured >= bound - 1e-12, condition

    def test_law_guard_refuses_before_any_pair(self, monkeypatch):
        """Two b = 10 ratio-witness strata: each stratum's 126**2 * 11 pair
        counts are within the guard, but 126**2 tables make
        C(126**2, 2) > 10**7 pairs, and the pair guard refuses before one
        d_Ham or pair count is computed.  One record per diagonal cell of
        1x7x7: the pair counts of its 5,040 tables refuse at the first
        table's universe, before any pair."""
        stratum = [(0, 0), (1, 1)] + [(2, 2)] * 4 + [(3, 3)] * 4
        x = make_dataset([(m, h, s) for m in range(2) for h, s in stratum], (2, 4, 4))
        universe = enumerate_universe(x)
        assert len(universe) == 126**2
        calls = []
        for name in ("_universe_optima", "_pair_tensor", "_pair_kernel"):
            monkeypatch.setattr(exact, name, lambda *args, _name=name: calls.append(_name))
        pairs = math.comb(126**2, 2)
        with pytest.raises(EnumerationBudgetError, match=f"^{pairs} table pairs exceed the budget of 10000000$"):
            measured_optimal_epsilon(universe, Fraction(96, 125))
        seven = enumerate_universe(make_dataset([(0, i, i) for i in range(7)], (1, 7, 7)))
        assert len(seven) == 5040
        with pytest.raises(EnumerationBudgetError, match="pair counts exceed the budget of 10000000$"):
            measured_optimal_epsilon(seven, Fraction(96, 125))
        assert calls == []

    def test_pair_guard_refuses_before_any_pair(self, monkeypatch):
        """Three two-record strata: 8 tables whose laws sum over 2**3
        permutations, within a budget of 10, but C(8, 2) = 28 pairs are
        not.  At a budget of 28 the value is the unguarded one, from one
        measurer call that gives d_Ham of each of the 28 pairs once.  At 27
        the guard refuses before one d_Ham or pair count is computed."""
        x = make_dataset([(m, h, h) for m in range(3) for h in range(2)], (3, 2, 2))
        universe = enumerate_universe(x)
        assert len(universe) == 8
        measured = measured_optimal_epsilon(universe, Fraction(1, 3))
        assert measured == pytest.approx(math.log(2), abs=1e-12)
        calls = []
        optima = exact._universe_optima

        def counted(*args):
            checked, d_ham = optima(*args)
            calls.append(d_ham.tolist())
            return checked, d_ham

        monkeypatch.setattr(exact, "_universe_optima", counted)
        assert measured_optimal_epsilon(universe, Fraction(1, 3), max_permutations=28) == measured
        assert calls == [[hamming_distance(*pair) for pair in itertools.combinations(universe, 2)]]
        calls = []
        for name in ("_universe_optima", "_pair_tensor", "_pair_kernel"):
            monkeypatch.setattr(exact, name, lambda *args, _name=name: calls.append(_name))
        with pytest.raises(EnumerationBudgetError, match="^28 table pairs exceed the budget of 27$"):
            measured_optimal_epsilon(universe, Fraction(1, 3), max_permutations=27)
        assert calls == []

    def test_tables_of_different_universes_are_infinitely_apart(self, two_record_pair):
        """Two tables of one size whose margins differ: their laws lie over
        different universes, so their supports differ.  So on two strata,
        where the records of each stratum, or only its swap margin, differ,
        even beside tables of one universe."""
        x, _ = two_record_pair
        tables = [tabulate(x), tabulate(make_dataset([(0, 0, 0), (0, 1, 0)], (1, 2, 2)))]
        assert measured_optimal_epsilon(tables, Fraction(1, 3)) == math.inf
        both = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)]
        universe = enumerate_universe(make_dataset(both, (2, 2, 2)))
        for other in ([(0, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]):
            tables = [*universe, tabulate(make_dataset(other, (2, 2, 2)))]
            assert measured_optimal_epsilon(tables, Fraction(1, 3)) == math.inf

    @pytest.mark.parametrize(
        "shape, key", [((1, 2, 3), (1, 0, 0, 0, 1, 0)), ((2, 2, 1), (1, 0, 0, 1))], ids=["1x2x3", "2x2x1-same-key"]
    )
    def test_tables_over_different_domains_are_refused(self, shape, key):
        """A 1x2x2 table of two records against one of two records over
        another domain, its key longer or the same: the pair is refused as
        verify_dp refuses it, in either order and past the first pair, not
        measured on the first table's domain."""
        table = ContingencyTable(np.array([1, 0, 0, 1]).reshape(1, 2, 2))
        other = ContingencyTable(np.array(key).reshape(shape))
        for tables in ([table, other], [other, table], [table, table, other]):
            with pytest.raises(DomainMismatchError, match=r"^domains differ: "):
                measured_optimal_epsilon(tables, Fraction(1, 3))
        with pytest.raises(DomainMismatchError, match=r"^domains differ: "):
            verify_dp(dataset_from_table(table), dataset_from_table(other), Fraction(1, 3), psa_budget(1 / 3, 2))

    @pytest.mark.parametrize("other", [[(0, 0, 0)], [(0, 0, 0), (0, 1, 1)] * 2], ids=["one", "four"])
    def test_tables_of_different_record_counts_share_no_universe(self, two_record_pair, other):
        """A 2-record table against a 1- or 4-record one: no permutation
        connects them, so the pair is refused as verify_dp refuses it,
        not floored to a d_Ham of 0 or 1."""
        x, _ = two_record_pair
        tables = [tabulate(x), tabulate(make_dataset(other, (1, 2, 2)))]
        with pytest.raises(UniverseMismatchError, match="different record counts"):
            measured_optimal_epsilon(tables, Fraction(1, 3))
        with pytest.raises(UniverseMismatchError):
            verify_dp(x, dataset_from_table(tables[1]), Fraction(1, 3), psa_budget(1 / 3, 2))

    @pytest.mark.parametrize(
        "rate, expected",
        [
            (Fraction(1, 10), 2.8697848583844943),
            (Fraction(1, 2), 0.9772969764399857),
            (Fraction(9, 10), 0.06414436337977136),
        ],
    )
    def test_two_eight_record_strata_within_the_default_guard(self, rate, expected):
        """Two strata of two records in each cell of 2x2x2: 25 tables,
        within the default guard, so both pair APIs answer there, with
        the composite law's values and universe_report's rows, and
        exact_psa_distribution builds the composite law.  Four b = 10
        ratio-witness strata have 126**4 > 10**7 composite tables, which
        exact_psa_distribution refuses."""
        x = make_dataset([(m, h, s) for m in range(2) for h in range(2) for s in range(2)] * 2, (2, 2, 2))
        universe = enumerate_universe(x)
        assert len(universe) == 25
        measured = measured_optimal_epsilon(universe, rate)
        assert measured == expected
        (row,) = universe_report(x, [rate])
        assert row.measured_optimal == measured
        first, last = universe[0], universe[-1]
        verdict = verify_dp(dataset_from_table(first), dataset_from_table(last), rate, psa_budget(float(rate), 8))
        assert verdict.measured == measured_optimal_epsilon([first, last], rate) <= measured
        assert verdict.passed
        assert set(exact_psa_distribution(x, rate).probs) == {t.canonical_key() for t in universe}
        stratum = [(0, 0), (1, 1)] + [(2, 2)] * 4 + [(3, 3)] * 4
        four = make_dataset([(m, h, s) for m in range(4) for h, s in stratum], (4, 4, 4))
        with pytest.raises(EnumerationBudgetError, match=f"^{126**4} composite tables exceed the budget of 10000000$"):
            exact_psa_distribution(four, rate)


@pytest.mark.parametrize("rate", [Fraction(3, 2), Fraction(-1, 2)])
@pytest.mark.parametrize(
    "check, message",
    [
        (lambda x, y, rate: measured_optimal_epsilon(enumerate_universe(x), rate), r"rate must lie in \[0, 1\]"),
        (lambda x, y, rate: measured_optimal_epsilon([tabulate(x)], rate), r"rate must lie in \[0, 1\]"),
        (lambda x, y, rate: verify_dp(x, y, rate, psa_budget(0.5, 2)), "verification needs 0 < p < 1"),
        (lambda x, y, rate: exact_psa_distribution(x, rate), r"rate must lie in \[0, 1\]"),
    ],
    ids=["measured_optimal_epsilon", "measured_optimal_epsilon-one-table", "verify_dp", "exact_psa_distribution"],
)
def test_rates_outside_the_unit_interval_are_refused(two_record_pair, check, message, rate):
    x, swapped = two_record_pair
    with pytest.raises(ValueError, match=message):
        check(x, swapped, rate)


@pytest.mark.parametrize("rate", [Fraction(3, 2), Fraction(-1, 2)])
@pytest.mark.parametrize(
    "check",
    [
        lambda x, rate: exact_psa_distribution(x, rate),
        lambda x, rate: universe_report(x, [Fraction(1, 2), rate]),
        lambda x, rate: measured_optimal_epsilon([], rate),
    ],
    ids=["exact_psa_distribution", "universe_report", "measured_optimal_epsilon-no-tables"],
)
def test_rate_is_refused_before_any_universe(check, rate):
    """One record per diagonal cell of 1x7x7: the guard refuses its
    5,040-table universe at p = 1/2, but a rate outside [0, 1] is
    refused first, and also when there are no tables to measure."""
    x = load_dataset(FIXTURES / "diagonal_7x7.csv", load_roles(FIXTURES / "diagonal_7x7.roles.json"))
    with pytest.raises(EnumerationBudgetError):
        exact_psa_distribution(x, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"^rate must lie in \[0, 1\]$"):
        check(x, rate)


class TestConnectingPermutation:
    def test_reorder_gives_identity(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (0, 0, 1)], (1, 2, 2))
        rho = connecting_permutation(x, Dataset(x.codes[[2, 0, 1]], x.domain))
        assert rho.is_identity

    def test_single_swap_pair_gives_transposition(self, two_record_pair):
        x, swapped = two_record_pair
        rho = connecting_permutation(x, swapped)
        assert rho.derange_count == 2
        assert tabulate(apply_permutation(rho, x)) == tabulate(swapped)

    def test_universe_mismatch_rejected(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 1, 1)], (1, 2, 2))
        with pytest.raises(UniverseMismatchError):
            connecting_permutation(x, y)

    def test_matches_brute_force_on_three_record_universes(self):
        datasets = enumerate_small_datasets(Domain(1, 2, 2), 3)
        groups = {}
        for d in datasets:
            groups.setdefault(swap_invariants(d), []).append(d)
        checked = 0
        for members in groups.values():
            for a in members:
                for b in members:
                    if a == b:
                        continue
                    d_ham = hamming_distance(a, b)
                    rho = connecting_permutation(a, b)
                    assert rho.derange_count == d_ham
                    assert tabulate(apply_permutation(rho, a)) == tabulate(b)
                    assert min_connecting_derangement(a, b) == d_ham
                    assert ref_min_moves(tabulate(a), tabulate(b), {}) == d_ham
                    checked += 1
        assert checked > 0
        # one stratum: across universes no permutation connects a pair
        for a, b in itertools.combinations([g[0] for g in groups.values()], 2):
            if len(a) == len(b):
                assert min_connecting_derangement(a, b) is None
                assert ref_min_moves(tabulate(a), tabulate(b), {}) is None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_brute_force_minimum_is_symmetric(self, data):
        """The minimum is the same both ways: the inverse of a connecting
        g, relabelled through the multiset match, connects x' to x and
        moves the same records.  Drawn pairs share a universe.  The
        histogram minimum the sweep uses agrees with the brute force."""
        domain = data.draw(st.tuples(*(st.integers(1, 3) for _ in range(3))))
        x, y = _same_universe_pair(data, domain, 6)
        forward = min_connecting_derangement(x, y)
        assert forward == min_connecting_derangement(y, x)
        assert forward == hamming_distance(x, y)
        assert forward == ref_min_moves(tabulate(x), tabulate(y), {})

    def test_multi_stratum_pair(self):
        a = make_dataset([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], (2, 2, 2))
        b = make_dataset([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)], (2, 2, 2))
        rho = connecting_permutation(a, b)
        assert rho.derange_count == hamming_distance(a, b) == 4
        assert tabulate(apply_permutation(rho, a)) == tabulate(b)


# applicable lower bounds at rates 1/10, 1/2 and 9/10, as (value, condition)
_SELECTION_ODDS = [
    (-2.197224577336219, "selection-odds"),
    (0.0, "selection-odds"),
    (2.1972245773362196, "selection-odds"),
]
_RATIO_B2 = [
    (2.197224577336219, "derangement-ratio"),
    (0.0, "derangement-ratio"),
    (-2.1972245773362196, "derangement-ratio"),
]


class TestWitnessStructure:
    def test_odds_bound_predicate(self):
        x, expected = load_fixture("witness_odds")
        assert expected["b"] == max_stratum_b(x)
        assert odds_bound_applies(swap_invariants(x))

    def test_ratio_bound_predicates(self):
        for name in ("witness_two_record", "witness_ratio_b4", "witness_ratio_b6", "witness_ratio_b10"):
            x, expected = load_fixture(name)
            inv = swap_invariants(x)
            assert invariant_stratum_bound(inv) == expected["b"] == max_stratum_b(x)
            assert ratio_bound_applies(inv), name

    def test_ratio_bound_needs_two_singletons_on_each_side(self):
        # b = 6 with every margin <= b/2 - 1, but one side has no singleton
        cells = [(0, 0), (1, 1), (2, 2), (2, 0), (3, 1), (3, 2)]
        for records in (cells, [(s, h) for h, s in cells]):
            inv = swap_invariants(make_dataset([(0, h, s) for h, s in records], (1, 4, 4)))
            assert invariant_stratum_bound(inv) == 6
            assert not ratio_bound_applies(inv)

    def test_concentrated_stratum_triggers_nothing(self):
        x = make_dataset([(0, 0, 0)] * 3, (1, 2, 2))
        inv = swap_invariants(x)
        assert not odds_bound_applies(inv)
        assert not ratio_bound_applies(inv)
        assert invariant_stratum_bound(inv) == 0
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert applicable_lower_bounds(inv, p) == []

    @pytest.mark.parametrize(
        "name, pinned",
        [
            ("witness_odds", [[odds] for odds in _SELECTION_ODDS]),
            ("witness_two_record", [list(pair) for pair in zip(_SELECTION_ODDS, _RATIO_B2)]),
            ("witness_rate_zero", [list(pair) for pair in zip(_SELECTION_ODDS, _RATIO_B2)]),
            ("witness_rate_one", [list(pair) for pair in zip(_SELECTION_ODDS, _RATIO_B2)]),
            (
                "witness_ratio_b4",
                [
                    [_SELECTION_ODDS[0], (3.295836866004329, "derangement-ratio")],
                    [_SELECTION_ODDS[1], (1.0986122886681098, "derangement-ratio")],
                    [_SELECTION_ODDS[2], (-1.0986122886681098, "derangement-ratio")],
                ],
            ),
            (
                "witness_ratio_b6",
                [
                    [(3.88847720166122, "derangement-ratio")],
                    [(1.6912526243250012, "derangement-ratio")],
                    [(-0.5059719530112183, "derangement-ratio")],
                ],
            ),
        ],
    )
    def test_applicable_lower_bounds_pinned(self, name, pinned):
        x, _ = load_fixture(name)
        inv = swap_invariants(x)
        for p in (0.0, 1.0):
            assert applicable_lower_bounds(inv, p) == [(math.inf, "degenerate-rate")]
        for p, expected in zip((0.1, 0.5, 0.9), pinned):
            got = applicable_lower_bounds(inv, p)
            assert [condition for _, condition in got] == [c for _, c in expected]
            for (value, _), (want, _) in zip(got, expected):
                assert value == pytest.approx(want, abs=1e-12)


class TestWitnessFixtures:
    def test_endpoint_fixtures_have_infinite_distance(self):
        for name, rate in (("witness_rate_zero", 0), ("witness_rate_one", 1)):
            x, expected = load_fixture(name)
            assert str(rate) in expected["p_values"]
            universe = enumerate_universe(x)
            assert len(universe) == 2
            measured = measured_optimal_epsilon(universe, rate)
            assert measured == math.inf
            # the closed-form budget is infinite there too
            assert psa_budget(float(rate), max_stratum_b(x)).epsilon == math.inf

    def test_odds_fixture_bound_holds(self):
        x, expected = load_fixture("witness_odds")
        universe = enumerate_universe(x)
        for raw in expected["p_values"]:
            p = Fraction(raw)
            measured = measured_optimal_epsilon(universe, p)
            log_o = math.log(float(p)) - math.log1p(-float(p))
            assert measured >= log_o - 1e-12
            assert measured <= psa_budget(float(p), max_stratum_b(x)).epsilon + 1e-12

    def test_ratio_fixture_b4_attains_bound(self):
        x, expected = load_fixture("witness_ratio_b4")
        universe = enumerate_universe(x)
        assert len(universe) == 24  # 4x4 permutation matrices
        for raw in expected["p_values"]:
            p = Fraction(raw)
            log_o = math.log(float(p)) - math.log1p(-float(p))
            bound = math.log(3) - log_o
            measured = measured_optimal_epsilon(universe, p)
            assert measured == pytest.approx(bound, abs=1e-12)
            assert measured <= psa_budget(float(p), 4).epsilon + 1e-12

    def test_ratio_fixture_b6_attains_bound(self):
        x, expected = load_fixture("witness_ratio_b6")
        universe = enumerate_universe(x)
        p = Fraction(expected["p_values"][0])
        log_o = math.log(float(p)) - math.log1p(-float(p))
        bound = 0.5 * (math.log(265) - math.log(9)) - log_o
        measured = measured_optimal_epsilon(universe, p)
        assert measured == pytest.approx(bound, abs=1e-12)
        assert measured <= psa_budget(float(p), 6).epsilon + 1e-12


def _relabel(counts, strata, holds, swaps):
    """The table with stratum m moved to strata[m], and within it hold
    value h renamed holds[m][h] and swap value s renamed swaps[m][s]."""
    out = np.zeros_like(counts)
    for m, h, s in itertools.product(*map(range, counts.shape)):
        out[strata[m], holds[m][h], swaps[m][s]] = counts[m, h, s]
    return out


def _group(domain):
    """Every relabelling of the sweep's symmetry group over the domain."""
    mx, hx, sx = domain
    per_stratum = list(
        itertools.product(itertools.permutations(range(hx)), itertools.permutations(range(sx)))
    )
    for strata in itertools.permutations(range(mx)):
        for labels in itertools.product(per_stratum, repeat=mx):
            yield strata, [h for h, _ in labels], [s for _, s in labels]


def _brute_force_orbit(table):
    """The smallest margins over the relabellings of a universe's table:
    one value per relabelling orbit of universes."""
    images = []
    for sigma in _group(table.domain):
        inv = swap_invariants(ContingencyTable(_relabel(table.counts, *sigma)))
        images.append((inv.mh.tolist(), inv.ms.tolist()))
    return repr(min(images))


@st.composite
def _relabellings(draw, domain):
    mx, hx, sx = domain
    strata = draw(st.permutations(range(mx)))
    holds = [draw(st.permutations(range(hx))) for _ in range(mx)]
    swaps = [draw(st.permutations(range(sx))) for _ in range(mx)]
    return strata, holds, swaps


class TestRelabelling:
    """The theorem behind the sweep's orbit reduction: relabelling the
    hold and swap values of each stratum, and permuting the strata,
    carries the law of a table onto the law of the relabelled table and
    leaves every quantity the sweep checks unchanged."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), INTERIOR_RATES)
    def test_relabelling_commutes_with_the_law(self, data, rate):
        domain = Domain(
            data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        )
        x, x_prime = _same_universe_pair(data, domain, max_size=6)
        sigma = data.draw(_relabellings(domain))
        t, t_prime = tabulate(x), tabulate(x_prime)
        u, u_prime = (ContingencyTable(_relabel(a.counts, *sigma)) for a in (t, t_prime))

        def relabel_key(key):
            counts = np.asarray(key, dtype=np.int64).reshape(domain.shape)
            return tuple(_relabel(counts, *sigma).ravel().tolist())

        nums, denom = exact._law(t, rate, DEFAULT_ENUMERATION_BUDGET, {})
        expected = {relabel_key(key): v for key, v in nums.items()}, denom
        assert exact._law(u, rate, DEFAULT_ENUMERATION_BUDGET, {}) == expected
        assert hamming_distance(u, u_prime) == hamming_distance(t, t_prime)
        assert ref_min_moves(u, u_prime, {}) == ref_min_moves(t, t_prime, {})
        inv, inv_u = swap_invariants(t), swap_invariants(u)
        b = invariant_stratum_bound(inv)
        assert invariant_stratum_bound(inv_u) == b
        assert exact._universe_witness(inv_u) == exact._universe_witness(inv)
        ids, _ = exact._orbit_ids(np.stack((inv.mh, inv_u.mh)), np.stack((inv.ms, inv_u.ms)))
        assert ids[0].tolist() == ids[1].tolist()


class TestSweep:
    def test_small_sweep_passes(self):
        report = dp_sweep(Domain(2, 2, 2), max_records=3, p_values=[Fraction(3, 10)])
        assert report.all_pass
        assert report.universe_count > 100
        assert report.pair_checks > 0

    def test_sweep_counts_connecting_checks(self):
        report = dp_sweep(
            Domain(1, 2, 2), max_records=3, p_values=[Fraction(1, 2)]
        )
        assert report.connecting_checks > 0
        assert report.all_pass

    @pytest.mark.parametrize("domain", [(1, 2, 2), (2, 2, 2)])
    def test_connecting_minimum_off_d_ham_fails_the_sweep(self, monkeypatch, capsys, domain):
        """A connecting minimum one above d_Ham, read off the pair counts
        by the one reader of both (the stratum tensor's in a stratum
        check, the strata's rows in the re-check of a universe of several
        strata), is listed for every ordered pair, fails the report, and
        exits the CLI with code 3."""
        from permuswap.cli import main

        def off_by_one(strata, _moves=exact._first_moves):
            moves = _moves(strata)
            return moves + 1 - np.eye(len(moves), dtype=moves.dtype)

        monkeypatch.setattr(exact, "_first_moves", off_by_one)
        report = dp_sweep(Domain(*domain), 3, [Fraction(1, 2)])
        assert not report.all_pass
        found = [re.fullmatch(r"connecting minimum (\d+) disagrees with d_Ham (\d+)", f) for f in report.failures]
        assert all(found) and len(found) == report.connecting_checks > 0
        assert all(int(m[1]) == int(m[2]) + 1 for m in found)
        argv = ["verify", "--sweep", "--domain", ",".join(map(str, domain)), "--max-records", "3", "--p-values", "1/2"]
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert "\nFAIL connecting minimum " in out and out.endswith("result=fail\n")

    def test_sweep_does_per_pair_and_per_rate_work_once(self, monkeypatch):
        """The sweep checks each distinct sorted stratum once, on its
        single-stratum universe (found here by brute force over 1x2x2),
        and shares one combined check per relabelling orbit (found by
        brute force over the group).  Over those single-stratum
        universes: one check each, one d_Ham per unordered pair, one
        integer weight vector per (n, rate), one kernel run per unordered
        pair of tables and one polynomial per pair of hold rows and
        stratum size, shared by the laws and the connecting minimum
        through one pair tensor per universe of at least two tables,
        measured at every rate at once, whose one d_Ham per pair the
        connecting check reads too, no per-table stratum rows, no
        brute force, no composite law, one SwapInvariants for all strata
        and none per orbit, and no dataset, connecting permutation or
        tabulated table at all.
        The reported counts cover every universe."""
        domain = Domain(2, 2, 2)
        universes: dict = {}
        for d in enumerate_small_datasets(domain, 4):
            universes.setdefault(swap_invariants(d), []).append(tabulate(d))
        firsts: dict = {}
        for tables in universes.values():
            firsts.setdefault(_brute_force_orbit(tables[0]), tables)
        assert (len(universes), len(firsts)) == (406, 38)
        margins = [np.stack([getattr(inv, name) for inv in universes]) for name in ("mh", "ms")]
        ids, _ = exact._orbit_ids(*margins)
        assert len(set(map(tuple, ids.tolist()))) == len(firsts)
        sorted_pairs = {
            (tuple(sorted(hold)), tuple(sorted(swap)))
            for inv in universes
            for hold, swap in zip(inv.mh.tolist(), inv.ms.tolist())
        }
        singles: dict = {}
        for d in enumerate_small_datasets(Domain(1, 2, 2), 4):
            inv = swap_invariants(d)
            if (tuple(inv.mh[0].tolist()), tuple(inv.ms[0].tolist())) in sorted_pairs:
                singles.setdefault(inv, []).append(tabulate(d))
        assert len(singles) == len(sorted_pairs) == 19

        calls = {
            "_check_universe": [],
            "hamming_distance": [],
            "_stratum_rows": [],
            "_pair_tensor": [],
            "_universe_optima": [],
            "_law": [],
            "SwapInvariants": [],
            "min_connecting_derangement": [],
            "_stratum_weights": [],
            "_pair_kernel": [],
            "_row_polynomial": [],
            "tabulate": [],
            "dataset_from_table": [],
            "connecting_permutation": [],
        }
        for name, args_seen in calls.items():
            def counted(*args, _fn=getattr(exact, name), _seen=args_seen):
                _seen.append(args)
                return _fn(*args)

            monkeypatch.setattr(exact, name, counted)
        # the measurer gives d_Ham, one int64 per pair of each universe it measures
        distances = []

        def measured(*args, _fn=exact._universe_optima):
            checked, d_ham = _fn(*args)
            distances.append(d_ham)
            return checked, d_ham

        monkeypatch.setattr(exact, "_universe_optima", measured)
        # the weight rows are held for the process; an earlier run may have built them
        exact._weight_row.cache_clear()
        rates = [Fraction(1, 10), Fraction(1, 2)]
        report = dp_sweep(domain, max_records=4, p_values=rates)
        assert report.all_pass
        sizes = [len(tables) for tables in universes.values()]
        assert report.pair_checks == len(rates) * sum(math.comb(n, 2) for n in sizes)
        assert report.connecting_checks == sum(n * (n - 1) for n in sizes)
        assert len({id(u) for u in report.universes}) == len(firsts)
        checked = [len(tables) for tables in singles.values()]
        assert len(calls["_check_universe"]) == len(singles)
        assert sorted(map(len, distances)) == sorted(math.comb(n, 2) for n in checked if n > 1)
        assert calls["hamming_distance"] == []
        assert calls["_stratum_rows"] == []
        measured = [sorted(t.canonical_key() for t in tables) for tables in singles.values() if len(tables) > 1]
        assert sorted(list(keys) for keys, _, _ in calls["_pair_tensor"]) == sorted(measured)
        assert [len(keys) for [(keys, *_)], *_ in calls["_universe_optima"]] == [len(keys) for keys, _, _ in calls["_pair_tensor"]]
        assert all(list(scanned) == rates for _, scanned, *_ in calls["_universe_optima"])
        assert calls["_law"] == []
        assert len(calls["SwapInvariants"]) == 1
        assert calls["min_connecting_derangement"] == []
        assert calls["tabulate"] == []
        assert calls["dataset_from_table"] == []
        assert calls["connecting_permutation"] == []
        strata = {
            tuple(table.counts.ravel().tolist())
            for tables in singles.values()
            if len(tables) > 1
            for table in tables
        }
        weights = calls["_stratum_weights"]
        assert len(weights) == len(set(weights))
        assert set(weights) == {(sum(counts), rate) for counts in strata for rate in rates}
        pairs = [(x, t) for x, t, _, _ in calls["_pair_kernel"]]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (x, t)
            for tables in singles.values()
            if len(tables) > 1
            for x, t in itertools.combinations_with_replacement(sorted(t.canonical_key() for t in tables), 2)
        }
        rows = calls["_row_polynomial"]
        assert len(rows) == len(set(rows))
        assert set(rows) == {(x[lo : lo + 2], t[lo : lo + 2], sum(x) + 1) for x, t in pairs for lo in (0, 2)}

    @pytest.mark.parametrize("rates", [[0], [1], [Fraction(1, 2), 1]])
    def test_sweep_rejects_endpoint_rates(self, rates):
        """At p = 0 or 1 the budget is infinite and the laws degenerate,
        so the sweep refuses before any work instead of reporting
        spurious lower-bound failures."""
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            dp_sweep(Domain(1, 2, 2), 3, rates)

    @pytest.mark.parametrize(
        "rate, shown",
        [(Fraction(1, 10**400), "1/1" + "0" * 400), (1 - Fraction(1, 10**20), "99999999999999999999/")],
        ids=["rounds-to-0", "rounds-to-1"],
    )
    def test_sweep_rejects_rates_that_round_to_an_endpoint(self, rate, shown):
        """A rate inside (0, 1) whose float is 0.0 or 1.0 would be
        checked against the budget at that endpoint."""
        assert 0 < rate < 1 and float(rate) in (0.0, 1.0)
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\), also as floats") as info:
            dp_sweep(Domain(1, 2, 2), 3, [Fraction(1, 2), rate])
        assert shown in str(info.value)

    @pytest.mark.parametrize(
        "rates, repeated",
        [
            ([Fraction(1, 2), "0.5"], "1/2"),
            ([Fraction(1, 10), Fraction(1, 3), 1 / 3], "3333333333333333/10000000000000000"),
        ],
        ids=["same-rate", "same-float"],
    )
    def test_sweep_rejects_repeated_rates(self, rates, repeated):
        """The summary is keyed by the float rate, so a rate given twice,
        or two rates with one float, would be counted twice but
        reported once."""
        with pytest.raises(ValueError, match=f"distinct rates, got {repeated} again"):
            dp_sweep(Domain(1, 2, 2), 3, rates)

    def test_ratio_witness_at_b10_meets_its_bound(self):
        """The derangement-ratio witness at b = 10 (one 4x4 stratum, 1, 1,
        4, 4 on the diagonal) with the guard lifted: the measured optimum
        equals the ratio bound and stays within the budget."""
        x = make_dataset([(0, 0, 0), (0, 1, 1)] + [(0, 2, 2)] * 4 + [(0, 3, 3)] * 4, (1, 4, 4))
        p = Fraction(199, 259)
        (row,) = universe_report(x, [p], max_permutations=10**40)
        assert (row.b, row.universe_size) == (10, 126)
        (bound,) = applicable_lower_bounds(swap_invariants(x), float(p))
        assert bound.condition == "derangement-ratio"
        assert bound.value == pytest.approx(1.0509412017891107, abs=1e-15)
        assert row.measured_optimal == pytest.approx(bound.value, abs=1e-12)
        assert row.budget_epsilon == pytest.approx(1.1989602625023918, abs=1e-15)
        assert row.measured_optimal <= row.budget_epsilon
        assert row.passed

    def test_ratio_witness_at_b12_with_the_guard_lifted(self):
        """The b = 12 ratio witness (one 4x4 stratum, 1, 1, 5, 5 on the
        diagonal), past the default guard's reach (12! > 10**7), at
        p = 783/1000, above p*(12) = 0.78287: 160 tables, measured within
        the budget."""
        x = make_dataset([(0, 0, 0), (0, 1, 1)] + [(0, 2, 2)] * 5 + [(0, 3, 3)] * 5, (1, 4, 4))
        (row,) = universe_report(x, [Fraction(783, 1000)], max_permutations=10**40)
        assert (row.b, row.universe_size) == (12, 160)
        assert row.measured_optimal == pytest.approx(1.1581655876309433, abs=1e-12)
        assert row.budget_epsilon == pytest.approx(1.2832353424503435, abs=1e-12)
        assert row.passed

    def test_universe_report_reaches_ten_record_stratum(self):
        """10! permutations per table: within the default guard, and the
        measured optimum sits between the lower bounds and the budget."""
        x = make_dataset([(0, 0, 0)] * 3 + [(0, 0, 1)] * 2 + [(0, 1, 0)] * 2 + [(0, 1, 1)] * 3, (1, 2, 2))
        inv = swap_invariants(x)
        assert inv.mh[0].tolist() == inv.ms[0].tolist() == [5, 5]
        rows = universe_report(x, [Fraction(1, 10), Fraction(1, 2)])
        for row in rows:
            assert row.b == 10 and row.universe_size == 6
            assert row.passed
            assert 0 < row.measured_optimal <= row.budget_epsilon + 1e-12
            for bound, condition in applicable_lower_bounds(inv, row.p):
                assert row.measured_optimal >= bound - 1e-12, condition

    def test_universe_report_rows(self, two_record_pair):
        x, _ = two_record_pair
        rows = universe_report(x, [0, Fraction(1, 2), 1])
        by_p = {row.p: row for row in rows}
        assert by_p[0.0].expected_infinite
        assert by_p[0.0].measured_optimal == math.inf
        assert by_p[0.0].passed  # infinite budget covers it
        assert by_p[0.5].measured_optimal == pytest.approx(0.0, abs=1e-12)
        assert by_p[1.0].expected_infinite


@pytest.mark.parametrize("domain", [Domain(2, 0, 2), Domain(1, 2, 0)])
class TestZeroSizeAxes:
    """A domain with no hold or no swap levels has tables without cells,
    which hold no records: each law is the point mass on the empty key."""

    def test_law_is_the_point_mass(self, domain):
        assert exact_psa_distribution(Dataset([], domain), Fraction(1, 2)).probs == {(): 1}

    def test_sweep_finds_one_universe_and_passes(self, domain):
        report = dp_sweep(domain, 2, [Fraction(1, 2)])
        assert (report.dataset_count, report.universe_count) == (1, 1)
        assert (report.pair_checks, report.connecting_checks) == (0, 0)
        assert report.all_pass

    def test_universe_report_has_one_row_at_b_zero(self, domain):
        (row,) = universe_report(Dataset([], domain), [Fraction(1, 2)])
        assert (row.b, row.universe_size, row.budget_epsilon, row.measured_optimal) == (0, 1, 0.0, 0.0)
        assert row.passed and not row.expected_infinite


def test_universe_report_rejects_rates_that_round_to_an_endpoint():
    """The law would be computed at the exact rational and the budget at
    its float, an endpoint, where the budget is infinite and so passes."""
    x = make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2))
    for rate in (Fraction(1, 10**400), 1 - Fraction(1, 10**20)):
        with pytest.raises(ValueError, match="round to 0.0 or 1.0 as floats"):
            universe_report(x, [Fraction(1, 2), rate])


def test_sweep_shares_one_summary_per_checked_universe():
    """Every member of a passing orbit holds the first member's summary
    itself, not a copy: 406 universes share 38 summaries, one per
    relabelling orbit.  The report still pickles, deep-copies and turns
    into a dict."""
    report = dp_sweep(Domain(2, 2, 2), 4, [Fraction(1, 2)])
    assert report.all_pass and report.universe_count == 406
    shared = {id(u) for u in report.universes}
    assert len(shared) == 38
    assert len({id(u.measured) for u in report.universes}) == len(shared)
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(report) == report
    assert dataclasses.asdict(report)["universes"][0]["measured"] == report.universes[0].measured


@pytest.mark.parametrize("share", [1.0, 0.6], ids=["passing", "budget cut to 0.6"])
def test_sweep_summaries_hold_python_numbers(monkeypatch, share):
    """Each summary's b and size are Python ints and its rates, measured
    optima and budgets Python floats, both in the summaries orbits share
    and in those of universes checked pair by pair (with the budget cut,
    some are).  So reprs, pickles and ``dataclasses.asdict`` read the
    same on every numpy: numpy 2 would repr a leaked scalar as
    ``np.int64(3)``."""
    real = exact.psa_budget
    monkeypatch.setattr(
        exact, "psa_budget", lambda p, b: dataclasses.replace(real(p, b), epsilon=share * real(p, b).epsilon)
    )
    report = dp_sweep(Domain(2, 2, 2), 5, [Fraction(1, 10), Fraction(1, 2)])
    assert report.all_pass == (share == 1.0)
    for u in report.universes:
        assert type(u.b) is int and type(u.size) is int
        for values in (u.measured, u.budget):
            assert [type(p) for p in values] == [float, float]
            assert [type(v) for v in values.values()] == [float, float]
    assert "np." not in repr(report)


class TestUniverseOptima:
    """The float scan of one stratum universe's pair-count tensor is a
    filter: every reported value and verdict comes from an exact ratio."""

    # rows of N[., ., n] for three tables of 20 records: at p = 1 only the
    # derangements (k = n) weigh, so each law is its row times one weight
    NEAR_TIE = [
        [2204859385090481373, 1195750365935782523, 1195750365935782523],
        [1195750365935780289, 2204859385090481373, 1195750365935782523],
        [1195750365935781734, 1195750365935782523, 2204859385090481373],
    ]

    @staticmethod
    def _exact_value(us, vs):
        ratio = max(Fraction(max(u, v), min(u, v)) for u, v in zip(us, vs))
        return math.log(ratio.numerator) - math.log(ratio.denominator)

    def test_near_ties_follow_the_exact_ratio(self):
        """The pairs' floats, from laws rounded to doubles, agree within
        1e-9 and rank (0, 1) first; their exact ratios rank (0, 2) and
        (1, 2) first.  The measured optimum is the exact one, and with a
        budget between (0, 2)'s float and its exact value the verdict
        follows the exact ratio too."""
        n, rows = 20, self.NEAR_TIE
        pairs = [(0, 1), (0, 2), (1, 2)]
        logs = np.log(np.array(rows, dtype=float) / math.factorial(n))
        floats = {(i, j): float(np.abs(logs[i] - logs[j]).max()) for i, j in pairs}
        exacts = {(i, j): self._exact_value(rows[i], rows[j]) for i, j in pairs}
        assert max(floats.values()) - min(floats.values()) < 1e-9
        assert max(floats, key=floats.get) == (0, 1) and exacts[0, 1] < exacts[0, 2] == exacts[1, 2]
        assert floats[0, 2] < exacts[0, 2]
        tensor = np.zeros((3, 3, n + 1), dtype=np.int64)
        tensor[:, :, n] = rows
        budget = (floats[0, 2] + exacts[0, 2]) / 2 - exact.LOG_SLACK
        assert exacts[0, 1] < budget + exact.LOG_SLACK < exacts[0, 2]
        # one record in a different cell each: every pair is at d_Ham 1
        stratum = [(0, 0, 1), (0, 1, 0), (1, 0, 0)], tensor, np.arange(3), np.arange(3)
        (checked,), d_ham = exact._universe_optima([stratum], [Fraction(1)], [budget], {})
        assert d_ham.tolist() == [1, 1, 1]
        assert checked == (exacts[0, 2], [], [(0, 2, exacts[0, 2]), (1, 2, exacts[1, 2])])

    def test_universe_report_memory_stays_near_the_tensor(self):
        """On the b = 12 witness (one stratum of U = 160 tables of n = 12
        records) universe_report holds the U^2 (n + 1) int64 pair counts,
        the U^2 R float laws with their logs and two temporaries of that
        size, a handful of scan and lemma blocks of at most _SCAN_FLOATS
        entries, and 1 MiB for the kernel's polynomials, the tables and
        the rest: about 10 MB here, where a scan over every pair at once
        would take U^3 R floats, 98 MB."""
        x = load_dataset(FIXTURES / "witness_ratio_b12.csv", load_roles(FIXTURES / "witness_ratio_b12.roles.json"))
        rates = [Fraction(1, 10), Fraction(783, 1000), Fraction(9, 10)]
        size, n = 160, 12
        bound = size * size * (n + 1) * 8 + 4 * size * size * len(rates) * 8 + 8 * exact._SCAN_FLOATS * 8 + 2**20
        assert 9 * bound < size**3 * len(rates) * 8
        tracemalloc.start()
        try:
            rows = universe_report(x, rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[1].universe_size == size and rows[1].measured_optimal == 1.1581655876309433
        assert peak < bound

    def test_composite_measure_memory_stays_near_the_pairs(self):
        """On the first K = 1,000 tables of the b = 6 witness twice (two
        strata of U = 58 tables of 6 records) measured_optimal_epsilon
        holds one float per (pair, rate), _upper's two indices per pair,
        one int64 d_Ham per pair, a handful of scan blocks of at most
        _SCAN_FLOATS floats, and 2 MiB for the strata's rows, the keys
        and the rest: about 22 MB here, where a scan over every pair at
        once would take C(K, 2) U floats, 232 MB."""
        x, _ = load_fixture("witness_ratio_b6_two_strata")
        universe = enumerate_universe(x)[:1000]
        pairs, per_stratum = math.comb(1000, 2), 58
        bound = pairs * (2 + 1 + 1) * 8 + 8 * exact._SCAN_FLOATS * 8 + 2**21
        assert 6 * bound < pairs * per_stratum * 8
        tracemalloc.start()
        try:
            measured = measured_optimal_epsilon(universe, Fraction(1, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{measured:.6f}" == "3.888477"
        assert peak < bound

    @pytest.mark.parametrize("entry", [1, 2], ids=["lemma", "row sum"])
    def test_pair_tensor_checks_its_counts(self, monkeypatch, entry):
        """A kernel count one too high either leaves a remainder in the
        reversibility lemma, or (at the identity's k = 0 on the diagonal,
        where the lemma has nothing to divide) breaks the row sums; both
        raise, in a call for every row and in one for some of the rows."""
        cache = {}
        tables = exact._universe((2, 3), (2, 3), DEFAULT_ENUMERATION_BUDGET, cache)
        kernel = exact._pair_kernel

        def off(x, t, swap_levels, cache):
            counts = kernel(x, t, swap_levels, cache)
            if (x == t) == (entry == 2):
                counts[0 if x == t else -1] += 1
            return counts

        monkeypatch.setattr(exact, "_pair_kernel", off)
        message = "reversibility lemma" if entry == 1 else "sum to exactly one"
        with pytest.raises(ValueError, match=message):
            exact._pair_tensor(tables, 2, cache)
        # rows on demand check the lemma between the rows and every row's sum
        for rows in ([0], [1], [2], [0, 2], [1, 2]):
            with pytest.raises(ValueError, match="reversibility lemma|sum to exactly one"):
                exact._pair_tensor(tables, 2, cache, rows)

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    EnumerationBudgetError,
    Permutation,
    UniverseMismatchError,
    apply_permutation,
    connecting_permutation,
    derangement_count,
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
from permuswap.dataset import Dataset, Domain
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

from conftest import load_fixture, make_dataset
from test_reference_loops import ref_max_probability_ratio


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
        """At p = 1 the guard counts the d(4) = 9 derangements, not the
        4! = 24 flow matrices of four distinct records."""
        x = make_dataset([(0, i, i) for i in range(4)], (1, 4, 4))
        dist = exact_psa_distribution(x, 1, max_permutations=9)
        assert len(dist.probs) == 9
        assert set(dist.probs.values()) == {Fraction(1, 9)}
        with pytest.raises(EnumerationBudgetError):
            exact_psa_distribution(x, 1, max_permutations=8)

    def test_enumeration_guard(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1)] * 6, (1, 2, 2))
        with pytest.raises(EnumerationBudgetError):
            exact_psa_distribution(x, Fraction(1, 2), max_permutations=1000)


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
                elif rate == 1:
                    assert denom == derangement_count(n)
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
                    assert exact._min_moves(tabulate(a), tabulate(b), {}) == d_ham
                    checked += 1
        assert checked > 0
        # one stratum: across universes no permutation connects a pair
        for a, b in itertools.combinations([g[0] for g in groups.values()], 2):
            if len(a) == len(b):
                assert min_connecting_derangement(a, b) is None
                assert exact._min_moves(tabulate(a), tabulate(b), {}) is None

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
        assert forward == exact._min_moves(tabulate(x), tabulate(y), {})

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
        for name in ("witness_two_record", "witness_ratio_b4", "witness_ratio_b6"):
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

    def test_sweep_does_per_pair_and_per_rate_work_once(self, monkeypatch):
        """One d_Ham per unordered pair, one integer weight vector per
        (n, rate), one histogram per stratum, shared by the laws and the
        connecting minimum, no brute force, and one table per dataset
        plus one per connecting permutation's target."""
        calls = {
            "hamming_distance": [],
            "min_connecting_derangement": [],
            "_stratum_weights": [],
            "_stratum_histogram": [],
            "tabulate": [],
        }
        for name, args_seen in calls.items():
            def counted(*args, _fn=getattr(exact, name), _seen=args_seen):
                _seen.append(args)
                return _fn(*args)

            monkeypatch.setattr(exact, name, counted)
        rates = [Fraction(1, 10), Fraction(1, 2)]
        report = dp_sweep(Domain(2, 2, 2), max_records=4, p_values=rates)
        pairs = report.connecting_checks // 2
        assert report.all_pass and pairs > 0
        assert len(calls["hamming_distance"]) == pairs == report.pair_checks // 2
        assert calls["min_connecting_derangement"] == []
        assert len(calls["tabulate"]) == report.dataset_count + report.connecting_checks
        strata = {
            tuple(row)
            for d in enumerate_small_datasets(Domain(2, 2, 2), 4)
            for row in tabulate(d).counts.reshape(2, 4).tolist()
            if sum(row) >= 2
        }
        weights = calls["_stratum_weights"]
        assert len(weights) == len(set(weights))
        assert set(weights) == {(sum(counts), rate) for counts in strata for rate in rates}
        histograms = [counts for counts, _ in calls["_stratum_histogram"]]
        assert len(histograms) == len(set(histograms))
        assert set(histograms) == strata

    @pytest.mark.parametrize("rates", [[0], [1], [Fraction(1, 2), 1]])
    def test_sweep_rejects_endpoint_rates(self, rates):
        """At p = 0 or 1 the budget is infinite and the laws degenerate,
        so the sweep refuses before any work instead of reporting
        spurious lower-bound failures."""
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
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

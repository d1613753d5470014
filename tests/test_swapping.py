import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    Dataset,
    Permutation,
    PsaParams,
    apply_permutation,
    exact_psa_distribution,
    max_stratum_b,
    run_psa,
    run_psa_details,
    same_universe,
    sample_derangement,
    select_records,
    stratum_permutation_prob,
    swap_invariants,
    tabulate,
    to_exact_rate,
)
from permuswap.budget import derangement_count
from permuswap.dataset import stratum_order, tabulate_columns
from permuswap.swapping import (
    _active_strata,
    _draw_mapping,
    _pcg64_states,
    _seed_uint64,
    _seed_words,
    _substreams,
)
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import utility_experiment

from conftest import make_dataset


def three_sigma_band(count, total, prob):
    sigma = math.sqrt(total * prob * (1 - prob))
    return abs(count - total * prob) <= 3 * sigma


class TestExactRate:
    def test_float_reads_as_decimal(self):
        assert to_exact_rate(0.1) == Fraction(1, 10)
        assert to_exact_rate(0.5) == Fraction(1, 2)

    def test_fraction_and_string_pass_through(self):
        assert to_exact_rate(Fraction(1, 3)) == Fraction(1, 3)
        assert to_exact_rate("1/3") == Fraction(1, 3)


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("mapping", [[0.9, 1.2], [0.0, 1.0], ["1", "0"], np.array([1.0, 0.0])])
    def test_non_integer_entries_rejected(self, mapping):
        """Entries are not truncated or parsed: 0.9 is not position 0."""
        with pytest.raises(TypeError):
            Permutation(mapping)

    def test_integer_like_entries_become_python_ints(self):
        perm = Permutation(np.array([1, 0, 2]))
        assert perm.mapping == (1, 0, 2)
        assert all(type(i) is int for i in perm.mapping)

    def test_derange_count(self):
        assert Permutation((1, 0, 2)).derange_count == 2
        assert Permutation.identity(4).derange_count == 0

    def test_apply_moves_swap_values_only(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2))
        y = apply_permutation(Permutation((1, 0)), x)
        assert [tuple(r) for r in y.records] == [(0, 0, 1), (0, 1, 0)]

    def test_apply_length_mismatch(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        with pytest.raises(ValueError):
            apply_permutation(Permutation((0, 1)), x)


class TestSelectRecords:
    def test_p_zero_selects_nothing_without_retries(self):
        rng = np.random.default_rng(0)
        result = select_records(5, 0.0, rng)
        assert result.indices == ()
        assert result.retries == 0

    def test_p_one_selects_everything(self):
        rng = np.random.default_rng(0)
        result = select_records(3, 1.0, rng)
        assert result.indices == (0, 1, 2)
        assert result.retries == 0

    def test_stratum_of_one_rejected(self):
        with pytest.raises(ValueError):
            select_records(1, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [2.9, 2.0, "3"])
    def test_non_integer_size_rejected(self, size):
        with pytest.raises(TypeError):
            select_records(size, 0.5, np.random.default_rng(0))

    def test_numpy_integer_size_draws_as_int(self):
        a = select_records(np.int64(5), 0.5, np.random.default_rng(3))
        assert a == select_records(5, 0.5, np.random.default_rng(3))

    def test_never_exactly_one_selected(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            assert len(select_records(4, 0.3, rng).indices) != 1

    def test_conditional_law_frequencies(self):
        """Accepted subsets follow p^|S| (1-p)^(n-|S|) normalized over
        sizes != 1, within 3-sigma binomial bands."""
        n, p, trials = 4, 0.3, 40_000
        rng = np.random.default_rng(2024)
        counts = Counter(
            select_records(n, p, rng).indices for _ in range(trials)
        )
        norm = 1.0 - n * p * (1 - p) ** (n - 1)
        for size in (0, 2, 3, 4):
            for subset in itertools.combinations(range(n), size):
                prob = p**size * (1 - p) ** (n - size) / norm
                assert three_sigma_band(counts[subset], trials, prob), subset


class TestSampleDerangement:
    def test_empty_selection_is_identity(self):
        assert sample_derangement(0, np.random.default_rng(0)) == ()

    def test_single_record_is_contract_violation(self):
        with pytest.raises(ValueError):
            sample_derangement(1, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_non_integer_count_rejected(self, k):
        with pytest.raises(TypeError):
            sample_derangement(k, np.random.default_rng(0))

    def test_pair_always_transposes(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert sample_derangement(2, rng) == (1, 0)

    def test_no_fixed_points_ever(self):
        rng = np.random.default_rng(7)
        for k in (2, 3, 4, 5, 6):
            for _ in range(300):
                perm = sample_derangement(k, rng)
                assert all(perm[i] != i for i in range(k))
                assert sorted(perm) == list(range(k))

    def test_three_cycles_equally_likely(self):
        rng = np.random.default_rng(11)
        trials = 4000
        counts = Counter(sample_derangement(3, rng) for _ in range(trials))
        assert set(counts) == {(1, 2, 0), (2, 0, 1)}
        for key in counts:
            assert three_sigma_band(counts[key], trials, 0.5), counts


class TestStratumPermutationProb:
    def test_identity_two_records_half(self):
        assert stratum_permutation_prob(0, 2, Fraction(1, 2)) == Fraction(1, 2)

    def test_transposition_two_records_half(self):
        assert stratum_permutation_prob(2, 2, Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(7, 10)])
    def test_normalizes_over_all_permutations(self, n, p):
        total = Fraction(0)
        for k in range(n + 1):
            if k == 1:
                continue
            count = math.comb(n, k) * derangement_count(k)
            total += count * stratum_permutation_prob(k, n, p)
        assert total == 1

    def test_derange_count_one_rejected(self):
        with pytest.raises(ValueError):
            stratum_permutation_prob(1, 3, Fraction(1, 2))

    def test_endpoint_rates_rejected(self):
        with pytest.raises(ValueError):
            stratum_permutation_prob(0, 2, 0)

    @pytest.mark.parametrize("k_g, n", [(2.7, 3), ("2", 3), (2, 3.0), (2, "3")])
    def test_non_integer_counts_rejected(self, k_g, n):
        """Counts are not truncated or parsed: 2.7 is not 2."""
        with pytest.raises(TypeError):
            stratum_permutation_prob(k_g, n, Fraction(1, 2))

    def test_numpy_integer_counts_accepted(self):
        got = stratum_permutation_prob(np.int64(2), np.int32(3), Fraction(1, 2))
        assert got == stratum_permutation_prob(2, 3, Fraction(1, 2))


class TestPsaParams:
    @pytest.mark.parametrize("seed", [1.5, 2.0, "2"])
    def test_non_integer_seed_rejected(self, seed):
        """The seed is not truncated or parsed: 1.5 does not run as seed 1."""
        with pytest.raises(TypeError):
            PsaParams(0.5, seed=seed)

    def test_numpy_integer_seed_becomes_python_int(self):
        params = PsaParams(0.5, seed=np.uint64(2**63 + 5))
        assert params.seed == 2**63 + 5 and type(params.seed) is int


class TestSeedArguments:
    """synthesize and utility_experiment take seeds as PsaParams does."""

    @staticmethod
    def synth(seed):
        return synthesize([StratumSpec(6), StratumSpec(3, mixed=False)], 2, 3, seed=seed).codes.tolist()

    @staticmethod
    def utility(seed):
        return utility_experiment(synthesize([StratumSpec(6)], 2, 2), [0.5], 3, seed=seed)

    @pytest.mark.parametrize("entry", ["synth", "utility"])
    @pytest.mark.parametrize("seed", [1.5, 2.0, "2"])
    def test_non_integer_seed_rejected(self, entry, seed):
        """The seed is not truncated or parsed: 1.5 does not run as seed 1."""
        with pytest.raises(TypeError):
            getattr(self, entry)(seed)

    @pytest.mark.parametrize("entry", ["synth", "utility"])
    def test_numpy_integer_seed_equals_python_int(self, entry):
        run = getattr(self, entry)
        assert run(np.uint64(2**63 + 5)) == run(2**63 + 5)

    def test_non_integer_stratum_size_rejected(self):
        with pytest.raises(TypeError):
            StratumSpec(size=2.5)


# key ints of one and of two 32-bit words, 0 and the bounds included
KEY_INTS = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.sampled_from([2**32, 2**64 - 1])
)


@st.composite
def key_batches(draw):
    """1-6 keys of the same number (1-8) of ints.  Keys longer than the
    four-word pool come up, and a batch can mix keys of different word
    counts."""
    width = draw(st.integers(1, 8))
    keys = draw(st.lists(st.lists(KEY_INTS, min_size=width, max_size=width), min_size=1, max_size=6))
    return keys, np.array(keys, dtype=np.uint64)


class TestSeedKernel:
    """The vectorized SeedSequence and PCG64 seeding against numpy's own."""

    @settings(max_examples=200, deadline=None)
    @given(key_batches(), st.integers(1, 4))
    def test_generate_state_matches_seed_sequence(self, batch, n):
        keys, array = batch
        words = _seed_words(array, 2 * n).astype(np.uint64)
        got = words[0::2] | words[1::2] << np.uint64(32)
        first = _seed_uint64(array)
        for column, key in enumerate(keys):
            expected = np.random.SeedSequence(key).generate_state(n, np.uint64)
            assert got[:, column].tolist() == expected.tolist()
            assert int(first[column]) == int(expected[0])

    @settings(max_examples=200, deadline=None)
    @given(key_batches())
    def test_pcg64_state_matches_seeding(self, batch):
        keys, array = batch
        assert _pcg64_states(array) == [np.random.PCG64(key).state for key in keys]

    @settings(max_examples=100, deadline=None)
    @given(key_batches(), st.integers(0, 20))
    def test_reseated_generator_draws_as_fresh(self, batch, size):
        """One generator re-seated key after key draws what default_rng(key)
        draws, even after a draw that leaves half a 64-bit word buffered."""
        keys, array = batch

        def draws(gen):
            return (
                gen.integers(0, 2**31, size=3, dtype=np.int32).tolist(),
                gen.random(size).tolist(),
                gen.permutation(size).tolist(),
                gen.integers(0, 7, size=size).tolist(),
            )

        rng = np.random.Generator(np.random.PCG64(0))
        for key, state in zip(keys, _pcg64_states(array)):
            rng.random(1, dtype=np.float32)
            rng.bit_generator.state = state
            assert draws(rng) == draws(np.random.default_rng(key))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(KEY_INTS, st.integers(-(2**64), -1)), min_size=1, max_size=3),
        st.lists(KEY_INTS, max_size=3),
        st.integers(0, 20),
    )
    def test_substreams_draw_as_fresh(self, seeds, strata, size):
        """Substream (seed, m) draws what default_rng((seed mod 2**64, m))
        draws, even after the previous substream's draws left half a
        64-bit word buffered."""
        streams = _substreams(seeds, strata)
        keys = [(seed % 2**64, m) for seed in seeds for m in strata]
        for key, rng in zip(keys, streams):
            expected = np.random.default_rng(key)
            assert rng.permutation(size).tolist() == expected.permutation(size).tolist()
            assert rng.random(size).tolist() == expected.random(size).tolist()
            rng.random(1, dtype=np.float32)
        assert next(streams, None) is None

    @pytest.mark.parametrize("seed", [1.5, "2"])
    def test_substreams_check_the_seed_on_the_call(self, seed):
        with pytest.raises(TypeError):
            _substreams([seed], [])


class TestRunPsa:
    def test_p_zero_is_identity(self):
        x = synthesize([StratumSpec(6), StratumSpec(4)], 3, 3, seed=3)
        assert run_psa(x, PsaParams(0.0, seed=9)) == tabulate(x)

    def test_deterministic_given_seed(self):
        x = synthesize([StratumSpec(8)], 2, 4, seed=1)
        a = run_psa(x, PsaParams(0.4, seed=123))
        b = run_psa(x, PsaParams(0.4, seed=123))
        assert a == b
        assert a.canonical_string() == b.canonical_string()

    def test_different_seeds_reach_different_tables(self):
        x = synthesize([StratumSpec(10)], 4, 4, seed=1)
        tables = {run_psa(x, PsaParams(0.8, seed=s)).canonical_key() for s in range(30)}
        assert len(tables) > 1

    def test_invariants_and_size_preserved(self):
        x = synthesize([StratumSpec(7), StratumSpec(5), StratumSpec(1)], 3, 4, seed=2)
        inv = swap_invariants(x)
        for seed in range(40):
            out = run_psa(x, PsaParams(0.6, seed=seed))
            assert out.total == len(x.records)
            assert swap_invariants(out) == inv
            assert same_universe(x, out)

    def test_small_strata_untouched(self):
        x = make_dataset([(0, 0, 0), (1, 1, 1), (1, 0, 1)], (2, 2, 2))
        # stratum 0 has one record; its cell can never change
        for seed in range(20):
            out = run_psa(x, PsaParams(1.0, seed=seed))
            assert out.counts[0, 0, 0] == 1

    def test_sampled_permutation_never_deranges_one(self):
        x = synthesize([StratumSpec(5), StratumSpec(3)], 2, 3, seed=8)
        for seed in range(200):
            run = run_psa_details(x, PsaParams(0.35, seed=seed))
            assert run.permutation.derange_count != 1

    def test_rates_reported(self):
        x = synthesize([StratumSpec(40)], 4, 4, seed=5)
        run = run_psa_details(x, PsaParams(1.0, seed=0))
        assert run.raw_selection_rate == 1.0
        assert 0.0 <= run.effective_swap_rate <= 1.0
        assert run.selected_count == 40

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_output_count_matches_input_count(self, seed):
        x = make_dataset(
            [(0, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)], (2, 2, 2)
        )
        assert run_psa(x, PsaParams(0.5, seed=seed)).total == 5


def run_psa_counts(x, p, seeds):
    """Counter of ``run_psa(x, PsaParams(p, seed)).canonical_key()`` over
    ``seeds``, drawn through one substream pass and the swapper's draw loop
    rather than one ``run_psa`` call (and seeding pass) per seed."""
    spans = stratum_order(x)
    strata = _active_strata(spans[1])
    streams = _substreams(seeds, strata)
    rate = PsaParams(p).p
    mappings = Counter(tuple(_draw_mapping(spans, strata, rate, streams)[0].tolist()) for _ in seeds)
    m, h, s = x.codes.T
    counts = Counter()
    for mapping, count in mappings.items():
        counts[tabulate_columns(m, h, s[list(mapping)], x.domain).canonical_key()] += count
    return counts


class TestDistributionalCorrectness:
    @pytest.mark.parametrize(
        "records, domain, p",
        [
            ([(0, 0, 0), (0, 1, 1)], (1, 2, 2), 0.5),
            ([(0, 0, 0), (0, 1, 1), (0, 0, 1)], (1, 2, 2), float(Fraction(1, 3))),
            ([(0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 1), (2, 1, 0)], (3, 2, 2), 0.7),
        ],
    )
    def test_batched_counts_equal_per_call_runs(self, records, domain, p):
        x = make_dataset(records, domain)
        seeds = range(1000)
        expected = Counter(run_psa(x, PsaParams(p, seed=seed)).canonical_key() for seed in seeds)
        assert run_psa_counts(x, p, seeds) == expected

    def test_two_record_pair_fifty_fifty(self, two_record_pair):
        """At p = 1/2 the two-record stratum keeps or swaps its table
        with probability 1/2 each; 1e5 runs must sit inside 3-sigma."""
        x, swapped = two_record_pair
        keep = tabulate(x).canonical_key()
        swap = tabulate(swapped).canonical_key()
        trials = 100_000
        counts = run_psa_counts(x, 0.5, range(trials))
        assert set(counts) == {keep, swap}
        assert three_sigma_band(counts[keep], trials, 0.5)

    def test_three_record_frequencies_match_oracle(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (0, 0, 1)], (1, 2, 2))
        p = Fraction(1, 3)
        oracle = exact_psa_distribution(x, p)
        trials = 20_000
        counts = run_psa_counts(x, float(p), range(trials))
        assert set(counts) <= set(oracle.probs)
        for key, prob in oracle.probs.items():
            assert three_sigma_band(counts[key], trials, float(prob)), key

    def test_record_order_does_not_change_the_law(self):
        x = make_dataset(
            [(0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 1)], (2, 2, 2)
        )
        shuffled = Dataset(x.codes[[4, 2, 0, 3, 1]], x.domain)
        p = Fraction(2, 5)
        assert exact_psa_distribution(x, p).probs == exact_psa_distribution(
            shuffled, p
        ).probs


def test_stratum_bound_zero_means_identity_distribution():
    x = make_dataset([(0, 0, 0)] * 3 + [(1, 1, 1)], (2, 2, 2))
    assert max_stratum_b(x) == 0
    for seed in range(10):
        assert run_psa(x, PsaParams(0.9, seed=seed)) == tabulate(x)

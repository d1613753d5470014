import itertools
import math
from collections import Counter
from decimal import Decimal
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
from permuswap.budget import derangement_count, psa_budget, psa_lower_bounds
from permuswap.dataset import stratum_order, tabulate_columns
from permuswap.exact import universe_report
from permuswap import swapping
from permuswap.swapping import (
    _active_strata,
    _derange,
    _draw_many,
    _draw_mapping,
    _pcg64_states,
    _seed_uint64,
    _seed_words,
    _select,
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
        assert to_exact_rate(np.float32(0.1)) == to_exact_rate(np.float64(0.1)) == Fraction(1, 10)

    def test_fraction_and_string_pass_through(self):
        assert to_exact_rate(Fraction(1, 3)) == Fraction(1, 3)
        assert to_exact_rate("1/3") == Fraction(1, 3)
        assert to_exact_rate(np.int64(0)) == Fraction(0)
        assert to_exact_rate(np.uint8(1)) == Fraction(1)

    @pytest.mark.parametrize("text", ["1/0", "", "abc"])
    def test_text_that_is_no_number_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            to_exact_rate(text)
        with pytest.raises(ValueError):
            psa_budget(text, 2)


# every API that takes a rate, called at rate p on a 4-record stratum x
RATE_READERS = {
    "psa_budget": lambda x, p: psa_budget(p, 2),
    "psa_lower_bounds": lambda x, p: psa_lower_bounds(p, 4),
    "PsaParams": lambda x, p: PsaParams(p, 7),
    "select_records": lambda x, p: select_records(5, p, np.random.default_rng(3)),
    "utility_experiment": lambda x, p: utility_experiment(x, [p], 20, 5),
    "exact_psa_distribution": lambda x, p: exact_psa_distribution(x, p),
    "universe_report": lambda x, p: universe_report(x, [p]),
}


@pytest.fixture
def mixed_stratum():
    return make_dataset([(0, 0, 0), (0, 1, 1), (0, 0, 1), (0, 1, 0)], (1, 2, 2))


class TestOneRateReader:
    """The swapper, the budget and the exact oracle read a rate alike:
    one value, however written, is one rate, and a value outside [0, 1]
    is refused by all of them with one message."""

    @pytest.mark.parametrize("call", RATE_READERS.values(), ids=RATE_READERS.keys())
    def test_one_tenth_written_every_way_is_one_rate(self, mixed_stratum, call):
        spellings = [0.1, np.float64(0.1), np.float32(0.1), "0.1", "1/10", Fraction(1, 10), Decimal("0.1")]
        first, *rest = (call(mixed_stratum, p) for p in spellings)
        assert rest == [first] * len(rest)

    @pytest.mark.parametrize(
        "rate",
        [math.nan, math.inf, -math.inf, np.float32("nan"), Fraction(-1, 2), Fraction(3, 2)],
        ids=["nan", "inf", "-inf", "float32-nan", "-1/2", "3/2"],
    )
    @pytest.mark.parametrize("call", RATE_READERS.values(), ids=RATE_READERS.keys())
    def test_rates_outside_the_unit_interval_are_refused_alike(self, mixed_stratum, call, rate):
        with pytest.raises(ValueError, match=r"^rate must lie in \[0, 1\]$"):
            call(mixed_stratum, rate)


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

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint8])
    def test_array_and_tuple_inputs_agree(self, dtype):
        """A permutation built from an array equals, and hashes like, one
        built from the tuple of its entries; its ``mapping`` is that tuple
        of Python ints, read from the array only when asked for."""
        entries = (3, 0, 4, 1, 2)
        from_array = Permutation(np.array(entries, dtype=dtype))
        from_tuple = Permutation(entries)
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert from_array != Permutation((0, 3, 4, 1, 2)) and from_array != Permutation((0, 1))
        assert from_array != entries
        assert from_array.mapping == from_tuple.mapping == entries
        assert type(from_array.mapping) is tuple and all(type(i) is int for i in from_array.mapping)
        assert len(from_array) == 5 and repr(from_array) == "Permutation(mapping=(3, 0, 4, 1, 2))"

    def test_array_input_is_copied(self):
        positions = np.array([1, 0, 2])
        perm = Permutation(positions)
        positions[:] = [0, 1, 2]
        assert perm.mapping == (1, 0, 2) and perm.derange_count == 2

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
        st.lists(KEY_INTS, min_size=1, max_size=3),
        st.lists(KEY_INTS, max_size=3),
        st.integers(0, 20),
    )
    def test_substreams_draw_as_fresh(self, seeds, strata, size):
        """Substream (seed, m) draws what default_rng((seed, m)) draws,
        even after the previous substream's draws left half a 64-bit word
        buffered."""
        streams = _substreams(np.array(seeds, dtype=np.uint64), strata)
        keys = [(seed, m) for seed in seeds for m in strata]
        for key, rng in zip(keys, streams):
            expected = np.random.default_rng(key)
            assert rng.permutation(size).tolist() == expected.permutation(size).tolist()
            assert rng.random(size).tolist() == expected.random(size).tolist()
            rng.random(1, dtype=np.float32)
        assert next(streams, None) is None

    # a list of Python ints is an int64 array, whose keys would turn to floats
    @pytest.mark.parametrize("seed", [1.5, "2", 5])
    def test_substreams_check_the_seed_on_the_call(self, seed):
        with pytest.raises(TypeError):
            _substreams([seed], [])


class RecordingGenerator:
    """``np.random.default_rng(key)`` for ``_select`` and ``_derange``,
    noting before each shuffle whether half a 64-bit output is buffered."""

    def __init__(self, key):
        self.rng = np.random.default_rng(key)
        self.buffered = []

    def random(self, n):
        return self.rng.random(n)

    def permutation(self, k):
        self.buffered.append(bool(self.rng.bit_generator.state["has_uint32"]))
        return self.rng.permutation(k)


def reference_draws(key, n, p):
    """Hits, derangement and redraws of ``_select`` then ``_derange`` on
    ``default_rng(key)``, and the buffered flag of each shuffle drawn."""
    rng = RecordingGenerator(key)
    hits, retries = _select(n, p, rng)
    return (hits.tolist(), _derange(len(hits), rng).tolist(), retries), rng.buffered


def kernel_draws(keys, sizes, p):
    """``_draw_many`` per key: hit positions, the derangement of the hits
    and the selection redraws."""
    hit_key, hit_position, source, found, redraws = _draw_many(np.array(keys, dtype=np.uint64), np.array(sizes), p)
    draws = []
    for k in range(len(keys)):
        at = np.flatnonzero(hit_key == k)
        assert found[k] == len(at)
        draws.append((hit_position[at].tolist(), (source[at] - at[:1].sum()).tolist(), int(redraws[k])))
    return draws


# seeds of one and of two 32-bit words; stratum indices as the swapper uses them
KERNEL_KEYS = [[seed, m] for seed in (0, 5, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1) for m in range(50)]
MIXED_SIZES = [2 + i % (swapping._KERNEL_MAX_RECORDS - 1) for i in range(len(KERNEL_KEYS))]
# 17-64 records, wider than the kernel's tables were when it took strata
# of at most 16 records
WIDE_SIZES = [17 + i % 48 for i in range(len(KERNEL_KEYS))]


class TestDrawKernel:
    """The batched draws against ``default_rng(key)`` driven by ``_select``
    and ``_derange``, with and without handing the last keys to a seated
    generator."""

    @pytest.mark.parametrize("handoff", [0, swapping._HANDOFF])
    @pytest.mark.parametrize(
        "sizes, p",
        [
            ([2] * len(KERNEL_KEYS), 0.5),
            (MIXED_SIZES, 0.3),
            (MIXED_SIZES, 0.9),
            (MIXED_SIZES, 0.0),
            (MIXED_SIZES, 1.0),
            (MIXED_SIZES, 5e-324),
        ],
    )
    def test_matches_seeded_generators(self, monkeypatch, handoff, sizes, p):
        monkeypatch.setattr(swapping, "_HANDOFF", handoff)
        expected, buffered = zip(*(reference_draws(key, n, p) for key, n in zip(KERNEL_KEYS, sizes)))
        assert kernel_draws(KERNEL_KEYS, sizes, p) == list(expected)
        if p < 1e-300:  # no pair of these keys is selected
            return
        if p < 1:
            assert any(retries for _, _, retries in expected), "no selection was redrawn"
        assert any(len(flags) > 1 for flags in buffered), "no shuffle was redrawn"
        assert any(any(flags[1:]) for flags in buffered), "no redrawn shuffle started on a buffered half"

    @pytest.mark.parametrize("handoff", [0, swapping._HANDOFF])
    @pytest.mark.parametrize("p, widest", [(0.05, 7), (0.3, 17)])
    def test_wide_strata_match_seeded_generators(self, monkeypatch, handoff, p, widest):
        """Strata of 17-64 records; at p = 0.3 some select more records
        than 16, past the old width of the derangement's tables."""
        monkeypatch.setattr(swapping, "_HANDOFF", handoff)
        expected = [reference_draws(key, n, p)[0] for key, n in zip(KERNEL_KEYS, WIDE_SIZES)]
        assert kernel_draws(KERNEL_KEYS, WIDE_SIZES, p) == expected
        assert max(len(hits) for hits, _, _ in expected) >= widest

    def test_fifty_record_strata_draw_as_on_the_loop(self, monkeypatch):
        """Strata of 50 records at p = 0.05, as in a census-size swap,
        draw on the kernel, and give the mapping, selections and redraws
        of the all-seated loop."""
        x = synthesize([StratumSpec(50, True)] * 80, 2, 3, 5)
        spans = stratum_order(x)
        strata = _active_strata(spans[1])
        keys = []
        monkeypatch.setattr(swapping, "_draw_many", lambda k, *rest: keys.append(len(k)) or _draw_many(k, *rest))
        kernel = _draw_mapping(spans, strata, 0.05, np.array([7, 2**64 - 1], dtype=np.uint64))
        assert sum(keys) == 2 * len(strata) == 160
        monkeypatch.setattr(swapping, "_KERNEL_MAX_RECORDS", 1)
        loop = _draw_mapping(spans, strata, 0.05, np.array([7, 2**64 - 1], dtype=np.uint64))
        assert sum(keys) == 160
        for got, expected in zip(kernel, loop):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "sizes, p, on_kernel",
        [
            ([2], 0.5, True),
            ([5, 12, 20, 33, 50, 64], 0.9, True),
            ([64], 1.0, True),
            ([65], 0.5, False),
        ],
    )
    def test_stratum_size_alone_picks_the_kernel(self, monkeypatch, sizes, p, on_kernel):
        """A stratum of at most ``_KERNEL_MAX_RECORDS`` records draws on
        the kernel however few keys the call holds and however many
        records it expects to select, and a larger one on a seated
        generator; both draw what ``_select`` then ``_derange`` draw on
        ``default_rng(key)``."""
        x = synthesize([StratumSpec(n) for n in sizes], 2, 3, 5)
        order, bounds = spans = stratum_order(x)
        strata = _active_strata(bounds)
        kernel_keys, seated_strata = [], []
        monkeypatch.setattr(swapping, "_draw_many", lambda k, *rest: kernel_keys.append(len(k)) or _draw_many(k, *rest))
        monkeypatch.setattr(swapping, "_substreams", lambda seeds, m: seated_strata.extend(m) or _substreams(seeds, m))
        mappings, selected, retries = _draw_mapping(spans, strata, p, np.array([11], dtype=np.uint64))
        assert (sum(kernel_keys), len(seated_strata)) == ((len(sizes), 0) if on_kernel else (0, len(sizes)))
        mapping, hit_count, redraw_count = np.arange(len(x)), 0, 0
        for m in strata:
            rng = np.random.default_rng([11, m])
            hits, redraws = _select(bounds[m + 1] - bounds[m], p, rng)
            chosen = order[bounds[m] : bounds[m + 1]][hits]
            mapping[chosen] = chosen[_derange(len(hits), rng)]
            hit_count, redraw_count = hit_count + len(hits), redraw_count + redraws
        np.testing.assert_array_equal(mappings[0], mapping)
        assert (selected.tolist(), retries.tolist()) == ([hit_count], [redraw_count])

    @pytest.mark.parametrize("handoff", [0, swapping._HANDOFF])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9])
    def test_stepped_rounds_draw_as_on_the_loop(self, monkeypatch, handoff, p):
        """Twice ``_STEP_MIN_KEYS`` keys of 2-64 records, every one on the
        kernel: the first selection round steps them together, the redraw
        rounds jump, and the mapping, selections and redraws are those of
        the all-seated loop."""
        x = synthesize([StratumSpec(2 + i % 63) for i in range(swapping._STEP_MIN_KEYS)], 2, 3, 5)
        spans = stratum_order(x)
        strata = _active_strata(spans[1])
        seeds = np.array([7, 2**64 - 1], dtype=np.uint64)
        rounds = []

        def counted(name):
            draw_round = getattr(swapping, name)
            return lambda state, n, threshold: rounds.append((name, len(n))) or draw_round(state, n, threshold)

        for name in ("_stepped_round", "_jumped_round"):
            monkeypatch.setattr(swapping, name, counted(name))
        monkeypatch.setattr(swapping, "_HANDOFF", handoff)
        kernel = _draw_mapping(spans, strata, p, seeds)
        assert rounds[0] == ("_stepped_round", 2 * swapping._STEP_MIN_KEYS)
        assert len(rounds) > 1 and all(name == "_jumped_round" for name, _ in rounds[1:])
        kernel_rounds = len(rounds)
        monkeypatch.setattr(swapping, "_KERNEL_MAX_RECORDS", 1)
        loop = _draw_mapping(spans, strata, p, seeds)
        assert len(rounds) == kernel_rounds
        for got, expected in zip(kernel, loop):
            np.testing.assert_array_equal(got, expected)


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
    ``seeds``, drawn by one ``_draw_mapping`` call across all the seeds
    (so through the batched kernel) rather than one ``run_psa`` call per
    seed."""
    spans = stratum_order(x)
    mappings, _, _ = _draw_mapping(spans, _active_strata(spans[1]), PsaParams(p).p, np.array(seeds, dtype=np.uint64))
    distinct, counts = np.unique(mappings, axis=0, return_counts=True)
    m, h, s = x.codes.T
    tables = Counter()
    for mapping, count in zip(distinct, counts.tolist()):
        tables[tabulate_columns(m, h, s[mapping], x.domain).canonical_key()] += count
    return tables


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

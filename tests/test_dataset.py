import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    ContingencyTable,
    Dataset,
    Domain,
    DomainMismatchError,
    Record,
    dataset_from_table,
    hamming_distance,
    max_stratum_b,
    same_universe,
    swap_invariants,
    tabulate,
)
from permuswap import dataset as dataset_module
from permuswap.exact import enumerate_small_datasets

from conftest import make_dataset


def small_datasets(max_records=3, domain=(2, 2, 2)):
    cells = list(itertools.product(*(range(n) for n in domain)))
    return st.lists(st.sampled_from(cells), max_size=max_records).map(
        lambda recs: make_dataset(recs, domain)
    )


class TestTabulate:
    def test_empty_dataset_gives_zero_tensor(self):
        t = tabulate(make_dataset([], (2, 3, 2)))
        assert t.counts.shape == (2, 3, 2)
        assert t.total == 0

    def test_counts(self):
        t = tabulate(make_dataset([(0, 0, 0), (0, 0, 0), (0, 1, 1)], (1, 2, 2)))
        assert t.counts[0, 0, 0] == 2
        assert t.counts[0, 1, 1] == 1
        assert t.total == 3

    def test_order_invariant(self):
        x = make_dataset([(0, 0, 0), (1, 1, 0), (0, 1, 1)], (2, 2, 2))
        for order in itertools.permutations(range(3)):
            assert tabulate(Dataset(x.codes[list(order)], x.domain)) == tabulate(x)

    def test_round_trip_through_dataset(self):
        x = make_dataset([(0, 0, 1), (1, 1, 0), (0, 0, 1)], (2, 2, 2))
        assert dataset_from_table(tabulate(x)) == x


class TestInvariants:
    def test_two_record_margins(self):
        inv = swap_invariants(make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2)))
        assert inv.mh.tolist() == [[1, 1]]
        assert inv.ms.tolist() == [[1, 1]]

    def test_margin_families_agree_on_stratum_sizes(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (1, 0, 1)], (2, 2, 2))
        inv = swap_invariants(x)
        assert inv.stratum_sizes.tolist() == [2, 1]
        assert inv.hold_totals.sum() == inv.swap_totals.sum() == 3

    def test_inconsistent_margins_rejected(self):
        import permuswap

        with pytest.raises(ValueError):
            permuswap.SwapInvariants(mh=np.array([[1, 0]]), ms=np.array([[0, 2]]))

    @given(small_datasets())
    def test_one_dim_margins_derivable(self, x):
        inv = swap_invariants(x)
        t = tabulate(x)
        assert inv.stratum_sizes.tolist() == t.counts.sum(axis=(1, 2)).tolist()
        assert inv.hold_totals.tolist() == t.counts.sum(axis=(0, 2)).tolist()
        assert inv.swap_totals.tolist() == t.counts.sum(axis=(0, 1)).tolist()


class TestDistances:
    def test_self_distance_zero(self):
        x = make_dataset([(0, 1, 1), (0, 0, 0)], (1, 2, 2))
        assert hamming_distance(x, x) == 0

    def test_single_swap_pair(self, two_record_pair):
        x, y = two_record_pair
        assert hamming_distance(x, y) == 2

    def test_disjoint_singletons(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 1, 1)], (1, 2, 2))
        assert hamming_distance(x, y) == 1

    def test_unequal_sizes_give_infinity(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 0, 0), (0, 0, 0)], (1, 2, 2))
        assert hamming_distance(x, y) == math.inf

    def test_reorder_distance_zero(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1), (0, 1, 0)], (1, 2, 2))
        assert hamming_distance(x, Dataset(x.codes[[2, 0, 1]], x.domain)) == 0

    def test_domain_mismatch_rejected(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 0, 0)], (1, 2, 3))
        with pytest.raises(DomainMismatchError):
            hamming_distance(x, y)

    def test_half_l1_identity_exhaustive(self):
        """Across every dataset pair with <= 4 records over (2,2,2):
        equal sizes make the l1 distance even and the Hamming distance
        exactly half of it."""
        datasets = enumerate_small_datasets(Domain(2, 2, 2), 4)
        tables = [tabulate(d) for d in datasets]
        by_size: dict[int, list[ContingencyTable]] = {}
        for t in tables:
            by_size.setdefault(t.total, []).append(t)
        checked = 0
        for group in by_size.values():
            for a, b in itertools.combinations(group, 2):
                l1 = int(np.abs(a.counts - b.counts).sum())
                assert l1 % 2 == 0
                assert hamming_distance(a, b) == l1 // 2
                checked += 1
        assert checked > 50_000


class TestSameUniverse:
    def test_differing_margins(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 1, 1)], (1, 2, 2))
        assert not same_universe(x, y)

    def test_two_record_swap_pair(self, two_record_pair):
        x, y = two_record_pair
        assert same_universe(x, y)

    @given(small_datasets())
    def test_reflexive_and_reorder_insensitive(self, x):
        assert same_universe(x, x)
        order = list(reversed(range(len(x.records))))
        assert same_universe(x, Dataset(x.codes[order], x.domain))

    def test_tabulates_each_dataset_once(self, two_record_pair, monkeypatch):
        calls = []

        def counted(x, _tabulate=dataset_module.tabulate):
            calls.append(x)
            return _tabulate(x)

        monkeypatch.setattr(dataset_module, "tabulate", counted)
        assert same_universe(*two_record_pair)
        assert calls == list(two_record_pair)

    def test_equivalence_relation_on_small_enumeration(self):
        datasets = enumerate_small_datasets(Domain(2, 2, 2), 2)
        keys = [swap_invariants(d) for d in datasets]
        for i, j in itertools.combinations(range(len(datasets)), 2):
            same = same_universe(datasets[i], datasets[j])
            assert same == (keys[i] == keys[j])
            assert same == same_universe(datasets[j], datasets[i])


class TestMaxStratumB:
    def test_all_identical_records(self):
        assert max_stratum_b(make_dataset([(0, 1, 1)] * 4, (1, 2, 2))) == 0

    def test_two_distinct_records(self, two_record_pair):
        assert max_stratum_b(two_record_pair[0]) == 2

    def test_mixed_and_constant_strata(self):
        records = [(0, 0, 0)] * 5 + [(1, 0, 0), (1, 1, 1), (1, 0, 1)]
        assert max_stratum_b(make_dataset(records, (2, 2, 2))) == 3

    def test_records_differing_only_in_hold_count(self):
        assert max_stratum_b(make_dataset([(0, 0, 0), (0, 1, 0)], (1, 2, 2))) == 2


class TestDegenerateShapes:
    def test_empty_axes_are_legal(self):
        x = make_dataset([], (0, 2, 2))
        assert tabulate(x).total == 0
        assert max_stratum_b(x) == 0
        assert swap_invariants(x).mh.shape == (0, 2)

    def test_zero_hold_axis(self):
        x = make_dataset([], (2, 0, 3))
        assert tabulate(x).counts.shape == (2, 0, 3)
        assert max_stratum_b(x) == 0


class TestDatasetSemantics:
    def test_multiset_equality_ignores_order(self):
        x = make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2))
        y = make_dataset([(0, 1, 1), (0, 0, 0)], (1, 2, 2))
        assert x == y
        assert hash(x) == hash(y)

    def test_domain_participates_in_equality(self):
        x = make_dataset([(0, 0, 0)], (1, 2, 2))
        y = make_dataset([(0, 0, 0)], (1, 2, 3))
        assert x != y

    def test_out_of_domain_record_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([(0, 2, 0)], (1, 2, 2))

    def test_table_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ContingencyTable(np.array([[[-1]]]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Dataset([(0, 0, 1.7)], (1, 2, 2)),
            lambda: Dataset([(0, 0, "1")], (1, 2, 2)),
            lambda: Dataset(np.array([[0, 0, 1]], dtype=object), (1, 2, 2)),
            lambda: Dataset(np.array([[0.0, 0.0, 1.0]]), (1, 2, 2)),
            lambda: ContingencyTable(np.array([[[1.5, 0.2]]])),
            lambda: ContingencyTable(np.array([[["1", "0"]]])),
            lambda: dataset_module.SwapInvariants(mh=np.array([[1.0, 1.0]]), ms=np.array([[1, 1]])),
            lambda: dataset_module.SwapInvariants(mh=np.array([[1, 1]]), ms=np.array([["1", "1"]])),
        ],
    )
    def test_non_integer_input_rejected(self, build):
        """The int64 cast would truncate 1.7 to 1 and parse "1", so a
        float, string or object dtype is refused instead."""
        with pytest.raises(TypeError, match="must be integers"):
            build()

    def test_integer_and_bool_input_accepted(self):
        x = Dataset(np.array([[0, 1, 1]], dtype=np.uint8), (1, 2, 2))
        assert x.codes.dtype == np.int64 and x.codes.tolist() == [[0, 1, 1]]
        assert Dataset(np.array([[False, True, True]]), (1, 2, 2)) == x
        assert Dataset([], (1, 2, 2)).codes.shape == (0, 3)
        table = ContingencyTable(np.array([[[True, False]]]))
        assert table.counts.dtype == np.int64 and table.canonical_key() == (1, 0)
        inv = dataset_module.SwapInvariants(mh=np.array([[1, 1]], dtype=np.int32), ms=np.array([[2, 0]]))
        assert inv.mh.dtype == np.int64

    def test_caller_arrays_copied_and_built_arrays_handed_over(self):
        """A caller's int64 array is copied, so changing it later leaves
        the dataset as it was; the private path that ingest, synthesize
        and apply_permutation take keeps the array it is given, checked
        and made read-only."""
        codes = np.array([[0, 0, 1], [0, 1, 0]], dtype=np.int64)
        x = Dataset(codes, (1, 2, 2))
        assert not np.shares_memory(x.codes, codes) and not x.codes.flags.writeable
        codes[0, 2] = 0
        assert x.codes.tolist() == [[0, 0, 1], [0, 1, 0]]
        y = Dataset._from_codes(codes, (1, 2, 2))
        assert y.codes is codes and not codes.flags.writeable
        with pytest.raises(ValueError, match=r"record 1 = \(0, 2, 0\) outside domain"):
            Dataset._from_codes(np.array([[0, 1, 0], [0, 2, 0]], dtype=np.int64), (1, 2, 2))

    def test_canonical_serialization(self):
        t = tabulate(make_dataset([(0, 0, 0), (0, 1, 1)], (1, 2, 2)))
        assert t.canonical_key() == (1, 0, 0, 1)
        assert t.canonical_string() == "1x2x2:1,0,0,1"


@settings(max_examples=60)
@given(small_datasets(max_records=4))
def test_cross_checks_between_operations(x):
    t = tabulate(x)
    assert t.total == len(x.records)
    assert max_stratum_b(x) == max_stratum_b(t)
    assert same_universe(x, dataset_from_table(t))

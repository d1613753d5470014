"""Categorical microdata after role cross-classification.

Every record is a triple of dense 0-based category indices
``(match, hold, swap)``.  A :class:`Dataset` stores its records
columnar, as one read-only ``(n, 3)`` int64 array ``Dataset.codes``
(column 0 match, 1 hold, 2 swap), and every library path (validation,
tabulation, grouping, the swapper, ingest and CSV writing) works on
that array with numpy.  ``Dataset.records`` is a tuple of
:class:`Record` built from the codes on first access and then cached;
it is meant for small instances only (the exact oracle, tests, demos),
and no hot path touches it.

A dataset keeps its records in order (the swapper needs stable
positions), but all public equality and distance semantics are
multiset-level: two datasets that differ only by record order are
equal, at distance zero, and in the same universe.

The fully saturated contingency table ``counts[m, h, s]`` determines a
dataset up to record order and is the output type of the swapping
mechanism.  The released margins are the match-by-hold counts
``n_mh.`` and the match-by-swap counts ``n_m.s``; datasets sharing both
margin families form a *universe*, the scope within which the privacy
guarantee is stated.

Degenerate shapes (an axis of size zero, or no records) are legal and
all operations return zero/empty results for them.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "Record",
    "Domain",
    "DatasetSchema",
    "Dataset",
    "ContingencyTable",
    "SwapInvariants",
    "DomainMismatchError",
    "tabulate",
    "tabulate_columns",
    "swap_invariants",
    "hamming_distance",
    "same_universe",
    "max_stratum_b",
    "invariant_stratum_bound",
    "dataset_from_table",
    "stratum_indices",
    "stratum_order",
]


class DomainMismatchError(ValueError):
    """Raised when an operation receives datasets over different domains."""


class Record(NamedTuple):
    """One microdata record: (match, hold, swap) category indices."""

    m: int
    h: int
    s: int


class Domain(NamedTuple):
    """Category counts (M, H, S) for the three cross-classified axes."""

    match: int
    hold: int
    swap: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.match, self.hold, self.swap)

    @property
    def cells(self) -> int:
        return self.match * self.hold * self.swap


@dataclass(frozen=True)
class DatasetSchema:
    """Optional provenance: source column names and category labels.

    Labels are per-axis, indexed by category; composite categories built
    by cross-classification join their per-column labels with ``|``.
    The schema never participates in equality or distance.
    """

    match_columns: tuple[str, ...] = ()
    hold_columns: tuple[str, ...] = ()
    swap_columns: tuple[str, ...] = ()
    match_labels: tuple[str, ...] = ()
    hold_labels: tuple[str, ...] = ()
    swap_labels: tuple[str, ...] = ()


def _integer_array(data, what: str) -> np.ndarray:
    """``data`` as a numpy array whose dtype is integer or bool (or that
    is empty); a float, string or object dtype would be truncated or
    parsed by the int64 cast, so it is refused, as ``operator.index``
    refuses such scalars."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biu" and arr.size:
        raise TypeError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr


def _flat_cells(m: np.ndarray, h: np.ndarray, s: np.ndarray, domain: Domain) -> np.ndarray:
    """Row-major cell index of each record (m slowest, s fastest)."""
    return np.ravel_multi_index((m, h, s), domain.shape)


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Ordered records over a fixed domain, stored as one int64 array.

    ``records`` may be an ``(n, 3)`` integer array or any sequence of
    ``(match, hold, swap)`` triples; the dataset keeps a read-only copy
    in ``codes``.  Equality and hashing are multiset-level (record order
    ignored, schema ignored); the stored order only matters to
    permutation bookkeeping inside the swapper.
    """

    codes: np.ndarray
    domain: Domain
    schema: Union[DatasetSchema, None]

    def __init__(
        self,
        records: Union[np.ndarray, Sequence[tuple[int, int, int]]],
        domain: tuple[int, int, int],
        schema: Union[DatasetSchema, None] = None,
    ) -> None:
        codes = _integer_array(records, "records")
        self._adopt(codes.astype(np.int64, copy=codes is records), domain, schema)

    @classmethod
    def _from_codes(
        cls, codes: np.ndarray, domain: tuple[int, int, int], schema: Union[DatasetSchema, None] = None
    ) -> "Dataset":
        """The dataset that takes ``codes``, a new ``(n, 3)`` int64 array
        that nothing else holds, without copying it."""
        x = cls.__new__(cls)
        x._adopt(codes, domain, schema)
        return x

    def _adopt(self, codes: np.ndarray, domain: tuple[int, int, int], schema: Union[DatasetSchema, None]) -> None:
        """Check ``codes`` against ``domain``, then freeze and keep it."""
        if codes.size == 0:
            codes = codes.reshape(0, 3)
        if codes.ndim != 2 or codes.shape[1] != 3:
            raise ValueError(
                f"records must be (match, hold, swap) triples, got shape {codes.shape}"
            )
        domain = Domain(*domain)
        # one unsigned comparison where every size fits uint64: a negative
        # code reads as 2**63 or more
        if not (
            0 <= min(domain) and max(domain) < 2**64
            and (codes.view(np.uint64) < np.array(domain, dtype=np.uint64)).all()
        ):
            bad = ((codes < 0) | (codes >= domain.shape)).any(axis=1)
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(
                    f"record {i} = {tuple(codes[i].tolist())} outside domain {tuple(domain)}"
                )
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "schema", schema)

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """The records as :class:`Record` tuples; for small instances only."""
        return tuple(map(Record._make, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def _sorted_cells(self) -> np.ndarray:
        return np.sort(_flat_cells(*self.codes.T, self.domain))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.domain == other.domain and bool(
            np.array_equal(self._sorted_cells(), other._sorted_cells())
        )

    def __hash__(self) -> int:
        return hash((self.domain, self._sorted_cells().tobytes()))


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Fully saturated M x H x S count tensor ``n_mhs``.

    The canonical serialization used as a mapping key everywhere is the
    row-major flattened tuple of counts (m slowest, s fastest); the
    string form prefixes the shape, ``"MxHxS:c0,c1,..."``.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = _integer_array(self.counts, "contingency counts")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-way tensor, got shape {arr.shape}")
        if (arr < 0).any():
            raise ValueError("contingency counts must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def domain(self) -> Domain:
        return Domain(*self.counts.shape)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def canonical_key(self) -> tuple[int, ...]:
        return tuple(self.counts.ravel().tolist())

    def canonical_string(self) -> str:
        mx, hx, sx = self.counts.shape
        body = ",".join(str(c) for c in self.canonical_key())
        return f"{mx}x{hx}x{sx}:{body}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash((self.counts.shape, self.canonical_key()))


@dataclass(frozen=True, eq=False)
class SwapInvariants:
    """The released margin vector: all ``n_mh.`` and all ``n_m.s``.

    Both families tabulate the same stratum sizes ``n_m..``; the
    constructor rejects inconsistent pairs.
    """

    mh: np.ndarray
    ms: np.ndarray

    def __post_init__(self) -> None:
        mh = np.ascontiguousarray(_integer_array(self.mh, "margins"), dtype=np.int64)
        ms = np.ascontiguousarray(_integer_array(self.ms, "margins"), dtype=np.int64)
        if mh.ndim != 2 or ms.ndim != 2 or mh.shape[0] != ms.shape[0]:
            raise ValueError("margins must be M x H and M x S matrices")
        if not np.array_equal(mh.sum(axis=1), ms.sum(axis=1)):
            raise ValueError("mh and ms margins imply different stratum sizes")
        mh.flags.writeable = False
        ms.flags.writeable = False
        object.__setattr__(self, "mh", mh)
        object.__setattr__(self, "ms", ms)

    @property
    def stratum_sizes(self) -> np.ndarray:
        """One-dimensional margin ``n_m..``."""
        return self.mh.sum(axis=1)

    @property
    def hold_totals(self) -> np.ndarray:
        """One-dimensional margin ``n_.h.``."""
        return self.mh.sum(axis=0)

    @property
    def swap_totals(self) -> np.ndarray:
        """One-dimensional margin ``n_..s``."""
        return self.ms.sum(axis=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwapInvariants):
            return NotImplemented
        return (
            self.mh.shape == other.mh.shape
            and self.ms.shape == other.ms.shape
            and bool(np.array_equal(self.mh, other.mh))
            and bool(np.array_equal(self.ms, other.ms))
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.mh.shape,
                self.ms.shape,
                tuple(int(v) for v in self.mh.ravel()),
                tuple(int(v) for v in self.ms.ravel()),
            )
        )


def invariant_stratum_bound(inv: SwapInvariants) -> int:
    """The stratum bound b: the largest stratum holding two records with
    different values, computed from the released margins alone.

    A stratum's records are all identical iff both its margin rows are
    concentrated on one category (this covers strata of 0 or 1 records),
    so every member of a universe shares the same b, and b is 0 when
    every stratum is constant.
    """
    return int(_stratum_bounds(inv).max(initial=0))


def _stratum_bounds(inv: SwapInvariants) -> np.ndarray:
    """Each stratum's bound on its own: its size, or 0 when its records
    are all identical."""
    sizes = inv.stratum_sizes
    constant = (inv.mh.max(axis=1, initial=0) == sizes) & (
        inv.ms.max(axis=1, initial=0) == sizes
    )
    return np.where(constant, 0, sizes)


TableLike = Union[Dataset, ContingencyTable]


def _as_table(data: TableLike) -> ContingencyTable:
    if isinstance(data, ContingencyTable):
        return data
    if isinstance(data, Dataset):
        return tabulate(data)
    raise TypeError(f"expected Dataset or ContingencyTable, got {type(data)!r}")


def tabulate_columns(
    m: np.ndarray, h: np.ndarray, s: np.ndarray, domain: Domain
) -> ContingencyTable:
    """Count records given as three code columns into the M x H x S table."""
    cells = np.bincount(_flat_cells(m, h, s, domain), minlength=domain.cells)
    return ContingencyTable(cells.reshape(domain.shape))


def tabulate(x: Dataset) -> ContingencyTable:
    """Count records into the fully saturated M x H x S table."""
    return tabulate_columns(*x.codes.T, x.domain)


def swap_invariants(data: TableLike) -> SwapInvariants:
    """Margins released exactly by swapping: ``n_mh.`` and ``n_m.s``."""
    t = _as_table(data)
    return SwapInvariants(mh=t.counts.sum(axis=2), ms=t.counts.sum(axis=1))


def _require_same_domain(a: TableLike, b: TableLike) -> tuple[ContingencyTable, ContingencyTable]:
    ta, tb = _as_table(a), _as_table(b)
    if ta.domain != tb.domain:
        raise DomainMismatchError(
            f"domains differ: {tuple(ta.domain)} vs {tuple(tb.domain)}"
        )
    return ta, tb


def hamming_distance(x: TableLike, y: TableLike) -> Union[int, float]:
    """Record-level Hamming distance: half the l1 distance.

    Defined as ``math.inf`` when the record counts differ (infinity is a
    legitimate distance value here, not an error).  For equal counts the
    l1 distance is always even; this is asserted.
    """
    tx, ty = _require_same_domain(x, y)
    if tx.total != ty.total:
        return math.inf
    l1 = int(np.abs(tx.counts - ty.counts).sum())
    assert l1 % 2 == 0, "l1 distance between equal-size datasets must be even"
    return l1 // 2


def same_universe(x: TableLike, y: TableLike) -> bool:
    """True iff both datasets share the released margin vector."""
    tx, ty = _require_same_domain(x, y)
    return swap_invariants(tx) == swap_invariants(ty)


def max_stratum_b(data: TableLike) -> int:
    """The stratum bound b of a dataset or table, from its released
    margins; see :func:`invariant_stratum_bound`."""
    return invariant_stratum_bound(swap_invariants(data))


def dataset_from_table(table: ContingencyTable) -> Dataset:
    """Canonical dataset for a table: records sorted ascending."""
    counts = table.counts
    flat = np.repeat(np.arange(counts.size), counts.ravel())
    return Dataset(np.column_stack(np.unravel_index(flat, counts.shape)), table.domain)


def stratum_order(x: Dataset) -> tuple[np.ndarray, list[int]]:
    """Record positions sorted stably by match category, plus stratum bounds.

    Stratum ``m`` holds positions ``order[bounds[m]:bounds[m + 1]]``, in
    input order.
    """
    m = x.codes[:, 0]
    sizes = np.bincount(m, minlength=x.domain.match).tolist()
    return np.argsort(m, kind="stable"), list(itertools.accumulate(sizes, initial=0))


def stratum_indices(x: Dataset) -> dict[int, list[int]]:
    """Record positions grouped by match category, in input order."""
    order, bounds = stratum_order(x)
    return {
        m: order[bounds[m] : bounds[m + 1]].tolist() for m in range(x.domain.match)
    }

"""The stratified permutation swapper.

Within each match stratum of size >= 2, records are selected
independently with probability p; whenever exactly one record comes up
selected the whole stratum is redrawn from scratch, so the accepted
selection has size 0 or >= 2.  A uniformly random derangement of the
selected records then permutes their *swap* values only (match and hold
values stay put), and the released output is the saturated contingency
table of the permuted dataset.  The released margins n_mh. and n_m.s
are preserved by construction.

Randomness is drawn from a named substream per stratum, keyed by
(seed, match index), so the output is a pure function of (dataset,
params) no matter in which order strata are processed and bit-identical
under parallel execution.

Derangements are sampled by rejection from uniform permutations of the
selected set (accept iff no fixed point, expected < e retries), which
is exactly uniform over derangements.

The swapper works on the columnar ``Dataset.codes`` array: strata come
from one stable argsort of the match column, each stratum's draws fill
a numpy position mapping, and the output table is counted directly
from the columns ``(m, h, s[mapping])``.  No :class:`Record` is built
and no swapped :class:`Dataset` is materialized; only
:func:`apply_permutation` builds one, for callers that want it.

The draws themselves are one loop, ``_draw_mapping``, over the stratum
spans of :func:`~permuswap.dataset.stratum_order`.  :func:`run_psa_details`
is that loop plus the output table; the utility runner computes the
spans once per dataset and calls the same loop once per replication,
so both realize the same permutation for the same seed.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from .budget import _validate_rate, derangement_count
from .dataset import ContingencyTable, Dataset, stratum_order, tabulate_columns

__all__ = [
    "PsaParams",
    "Permutation",
    "SelectionResult",
    "SwapRun",
    "apply_permutation",
    "select_records",
    "sample_derangement",
    "run_psa",
    "run_psa_details",
    "stratum_permutation_prob",
    "to_exact_rate",
]

RateLike = Union[Fraction, float, int, str]


def to_exact_rate(p: RateLike) -> Fraction:
    """Coerce a rate to an exact rational.

    Floats are read through their shortest decimal representation, so
    0.1 means 1/10 (not the binary float), matching how rates are
    written in configs.  Fractions and strings like "1/3" pass through
    exactly.
    """
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, float):
        return Fraction(str(p))
    if isinstance(p, str):
        return Fraction(p)
    raise TypeError(f"cannot interpret {p!r} as a rate")


@dataclass(frozen=True)
class PsaParams:
    """Swap-selection probability and the 64-bit run seed."""

    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _validate_rate(self.p))
        object.__setattr__(self, "seed", operator.index(self.seed))


def _normalized_seed(seed: int) -> int:
    # two's-complement wrap keeps SeedSequence entropy non-negative
    return int(seed) & (2**64 - 1)


@dataclass(frozen=True)
class Permutation:
    """A bijection g on record positions; position i takes the swap
    value of position g(i).

    The derangement count |{i : g(i) != i}| of a bijection is never 1,
    which is exactly the constraint the selection stage enforces.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(map(operator.index, self.mapping))
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if n and (min(mapping) < 0 or max(mapping) >= n or len(set(mapping)) != n):
            raise ValueError("mapping is not a bijection on record positions")

    def __len__(self) -> int:
        return len(self.mapping)

    @property
    def derange_count(self) -> int:
        return sum(1 for i, j in enumerate(self.mapping) if i != j)

    @property
    def is_identity(self) -> bool:
        return self.derange_count == 0

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))


def apply_permutation(perm: Permutation, x: Dataset) -> Dataset:
    """Permute swap values only: record i becomes (m_i, h_i, s_g(i))."""
    if len(perm) != len(x):
        raise ValueError("permutation length does not match record count")
    codes = x.codes.copy()
    codes[:, 2] = x.codes[list(perm.mapping), 2]
    return Dataset(codes, x.domain, x.schema)


class SelectionResult(NamedTuple):
    """Accepted selection (stratum-local positions) plus redraw count."""

    indices: tuple[int, ...]
    retries: int


def _select(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    # the draws of select_records, with n >= 2 and p already checked
    retries = 0
    while True:
        hits = np.flatnonzero(rng.random(n) < p)
        if len(hits) != 1:
            return hits, retries
        retries += 1


def _derange(k: int, rng: np.random.Generator) -> np.ndarray:
    # the draws of sample_derangement, with k != 1 already checked
    positions = np.arange(k)
    if k == 0:
        return positions
    while True:
        perm = rng.permutation(k)
        if not (perm == positions).any():
            return perm


def select_records(
    stratum_size: int, p: float, rng: np.random.Generator
) -> SelectionResult:
    """Independent selection, redrawn whenever exactly one record is hit.

    The accepted subset therefore has size 0 or >= 2, with conditional
    law P(S) = p^|S| (1-p)^(n-|S|) / (1 - n p (1-p)^(n-1)).  For
    0 < p < 1 the loop terminates with probability one; there is no
    iteration cap, but the retry count is reported for diagnostics.
    """
    n = operator.index(stratum_size)
    if n < 2:
        raise ValueError("selection needs a stratum of at least two records")
    hits, retries = _select(n, _validate_rate(p), rng)
    return SelectionResult(tuple(hits.tolist()), retries)


def sample_derangement(k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform derangement of 0..k-1 by rejection; identity for k = 0.

    k = 1 is a contract violation: the selection stage never produces a
    single selected record.
    """
    k = operator.index(k)
    if k == 1:
        raise ValueError("no derangement of a single record exists")
    return tuple(_derange(k, rng).tolist())


def stratum_permutation_prob(k_g: int, n: int, p: RateLike) -> Fraction:
    """Exact chance that the swapper realizes a given permutation g
    deranging k_g of the stratum's n records:

        p^k (1-p)^(n-k) / ((1 - n p (1-p)^(n-1)) d(k))
    """
    k = operator.index(k_g)
    n = operator.index(n)
    if n < 0 or k > n:
        raise ValueError("derange count cannot exceed stratum size")
    if k == 1:
        raise ValueError("permutations never derange exactly one record")
    if k < 0:
        raise ValueError("derange count must be non-negative")
    prob = to_exact_rate(p)
    if not 0 < prob < 1:
        raise ValueError("exact permutation probabilities require 0 < p < 1")
    q = 1 - prob
    exactly_one = n * prob * q ** (n - 1)
    return prob**k * q ** (n - k) / ((1 - exactly_one) * derangement_count(k))


@dataclass(frozen=True)
class SwapRun:
    """One realized run: output table plus reproducibility diagnostics.

    raw_selection_rate counts every selected record; effective_swap_rate
    counts only records whose swap value actually changed (a permutation
    can move a record onto an equal swap value, which changes nothing in
    the table).
    """

    table: ContingencyTable
    permutation: Permutation
    selected_count: int
    selection_retries: int
    raw_selection_rate: float
    effective_swap_rate: float


def _draw_mapping(
    spans: tuple[np.ndarray, Sequence[int]], p: float, seed: int
) -> tuple[np.ndarray, int, int]:
    """The swapper's draws over the stratum spans of ``stratum_order``.

    Returns the position mapping (position i takes the swap value of
    position ``mapping[i]``), the records selected and the selection
    redraws.  ``p`` must already be validated.
    """
    order, bounds = spans
    seed = _normalized_seed(seed)
    mapping = np.arange(len(order))
    selected = retries = 0
    for stratum, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi - lo < 2:
            continue
        # one substream per stratum, keyed by (seed, match index)
        rng = np.random.default_rng([seed, stratum])
        hits, redraws = _select(hi - lo, p, rng)
        selected += len(hits)
        retries += redraws
        chosen = order[lo:hi][hits]
        mapping[chosen] = chosen[_derange(len(hits), rng)]
    return mapping, selected, retries


def run_psa_details(x: Dataset, params: PsaParams) -> SwapRun:
    """Run the swapper and keep the realized permutation and rates."""
    n = len(x)
    m, h, s = x.codes.T
    mapping, selected, retries = _draw_mapping(stratum_order(x), params.p, params.seed)
    swapped = s[mapping]
    changed = int(np.count_nonzero(swapped != s))
    return SwapRun(
        table=tabulate_columns(m, h, swapped, x.domain),
        permutation=Permutation(mapping.tolist()),
        selected_count=selected,
        selection_retries=retries,
        raw_selection_rate=selected / n if n else 0.0,
        effective_swap_rate=changed / n if n else 0.0,
    )


def run_psa(x: Dataset, params: PsaParams) -> ContingencyTable:
    """Release the saturated contingency table of the swapped dataset."""
    return run_psa_details(x, params).table

"""Exact verification of the swapper's guarantee.

On desk-size instances the swapper's full output distribution is
computed in exact rational arithmetic.  Strata are independent, and
within a stratum a permutation's probability depends only on how many
records it moves (see :func:`permuswap.swapping.stratum_permutation_prob`)
while its output table depends only on its flow matrix: how many
records of each (hold, swap) class receive each swap value.  So no
permutation is walked.  Per stratum, the flow matrices are enumerated
like margin-constrained tables, the permutations realizing each one are
counted in closed form by their number of moved records, and the
resulting rate-free histogram is evaluated at each rate.

A law is held as integer numerators over one denominator.  With
p = a/c, the weight of a permutation moving k records is an integer
over a denominator that depends only on the stratum size n and the
rate, so every member of a universe, sharing its stratum sizes, shares
the composite denominator; only the public
:class:`ExactDistribution` turns the numerators into fractions.
Histograms, stratum laws and weights are cached for the length of one
public call, so a sweep or a universe report shares them across its
datasets and rates.

With the exact distributions in hand, the Lipschitz condition

    |ln P_x(T = t) - ln P_x'(T = t)|  <=  epsilon * d_Ham(x, x')

is checked table by table for every same-universe pair; the sup over
events of a finite discrete pair of distributions is attained on an
atom, so the multiplicative distance reduces to the max over atoms.
The largest atom ratio is found by integer cross-multiplication and
reduced to a ``Fraction`` once per pair; its logarithm, the only
real-valued step, is taken after all exact comparisons.  One kernel
does this: the public ``Fraction`` API (:func:`max_probability_ratio`,
and so :func:`mult_distance`) puts both laws over the lcm of their
atoms' denominators and calls it too, and the sweep and the measured
optimum share one loop over a universe's pairs.

The rest of a universe's structure is a function of its margins: the
stratum bound b, the :func:`permuswap.budget.psa_lower_bounds` it
witnesses, and the fewest records any permutation moves between two
members, read off the stratum histograms.  The histograms count actual
permutations by the records they move, so where that minimum equals
d_Ham a permutation moving exactly d_Ham records connects the pair; the
sweep checks this on tables alone, and :func:`connecting_permutation`
builds one such permutation by direct matching.

The swapper never reads a label, so relabelling the hold values or the
swap values within one stratum, or permuting the strata, carries the
law of a table onto the law of the relabelled table, atom by atom: a
composite law is the product of its strata's laws, and each depends on
its own H x S counts alone.  d_Ham, b, the universe size, the support,
the witnessed lower bounds and the fewest records moved are per-stratum
sums or maxima of quantities no relabelling changes.

So one stratum is the unit of the measured optimum (the stratum lemma).
For a pair x, x' of one universe, the log-ratio at an output t is the
sum of the strata's log-ratios, so the pair's distance is at most the
sum of the strata's distances D_m, and its value at most the largest
D_m / d_m over the strata where the two differ.  The pair that differs
in that stratum alone is in the universe and attains it, with the same
reduced ratio and so the same float.  A universe's measured optimum is
the largest of its strata's, each a function of the stratum's sorted
hold and swap margins.  :func:`universe_report` measures each distinct
stratum universe on its own and never builds their product, and
:func:`dp_sweep` checks each distinct sorted stratum once.  (A pair
that attains the optimum in several strata takes the logarithm of
another fraction, so the composite's largest float can be an ulp or two
above the stratum's.)

The guard ``max_permutations`` bounds the permutation space a law is a
sum over, the product of n! over the strata of at least two records (of
d(n) at p = 1), the margin-constrained tables enumerated, and the C(U, 2)
table pairs :func:`measured_optimal_epsilon` compares.  The law
APIs (:func:`exact_psa_distribution`, :func:`verify_dp`,
:func:`enumerate_universe`, :func:`measured_optimal_epsilon`) hold the
composite to it, and :func:`universe_report` and :func:`dp_sweep` each
stratum.  It is checked before any work, and the oracle raises rather
than report a verdict above it.  The sweep holds the number of datasets
it would enumerate, C(cells + max_records, max_records), to it too.
"""

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .budget import BudgetResult, LowerBound, derangement_count, psa_budget, psa_lower_bounds
from .dataset import (
    ContingencyTable, Dataset, Domain, SwapInvariants, dataset_from_table, hamming_distance,
    invariant_stratum_bound, same_universe, swap_invariants, tabulate,
)
from .swapping import Permutation, RateLike, to_exact_rate

__all__ = [
    "EnumerationBudgetError", "UniverseMismatchError", "ExactDistribution", "DpVerdict",
    "exact_psa_distribution", "enumerate_universe", "mult_distance", "max_probability_ratio",
    "verify_dp", "measured_optimal_epsilon", "connecting_permutation", "odds_bound_applies",
    "ratio_bound_applies", "applicable_lower_bounds", "invariant_stratum_bound",
    "enumerate_small_datasets", "UniverseCheck", "SweepReport", "dp_sweep", "universe_report",
    "UniverseReport", "DEFAULT_ENUMERATION_BUDGET", "LOG_SLACK",
]

DEFAULT_ENUMERATION_BUDGET = 10_000_000
# slack for the single real-valued step (the final logarithm)
LOG_SLACK = 1e-12


class EnumerationBudgetError(RuntimeError):
    """The instance is too large for exhaustive exact enumeration."""


class UniverseMismatchError(ValueError):
    """The guarantee is only stated within a universe; the pair given
    does not share its invariants."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact output law of the swapper on one input dataset.

    Keys are canonical table serializations (row-major flattened count
    tuples over ``domain``); values are exact rational probabilities
    summing to exactly one.
    """

    domain: Domain
    probs: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        probs = dict(self.probs)
        if any(v <= 0 for v in probs.values()):
            raise ValueError("probabilities must be positive rationals")
        if sum(probs.values()) != 1:
            raise ValueError("probabilities must sum to exactly one")
        object.__setattr__(self, "probs", probs)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.probs))

    def table_for(self, key: tuple[int, ...]) -> ContingencyTable:
        arr = np.asarray(key, dtype=np.int64).reshape(self.domain.shape)
        return ContingencyTable(arr)

    def prob_of(self, table: ContingencyTable) -> Fraction:
        return self.probs.get(table.canonical_key(), Fraction(0))


@functools.cache
def _fixed_point_counts(n: int, r: int) -> tuple[int, ...]:
    """Bijections from an n-set onto an n-set that share r elements,
    counted by their number j of fixed points (index j):
    C(r, j) * sum_i (-1)^i C(r-j, i) (n-j-i)!."""
    return tuple(
        math.comb(r, j)
        * sum((-1) ** i * math.comb(r - j, i) * math.factorial(n - j - i) for i in range(r - j + 1))
        for j in range(r + 1)
    )


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _stratum_histogram(
    counts: tuple[int, ...], swap_levels: int
) -> dict[tuple[int, ...], list[int]]:
    """Rate-free law of one stratum, given its flattened H x S counts.

    Maps each output H x S table to a list whose entry k is the number
    of the stratum's permutations that move k records and release that
    table.  The output depends only on the permutation's flow matrix F,
    where F[(h,s), s'] counts the class-(h,s) records that receive swap
    value s'.  The permutations realizing F are a multinomial per class
    (which of its records receive which value) times, per s', the
    bijections from the receivers of s' onto its donors, counted by
    fixed points.  Each F is realized by at least one of the n!
    permutations, so the flow enumeration's n! cap never binds; the
    caller's guard bounds the work.
    """
    sx = swap_levels
    n = sum(counts)
    classes = [(divmod(c, sx), v) for c, v in enumerate(counts) if v]
    donors = [sum(counts[s::sx]) for s in range(sx)]
    class_ways = math.prod(math.factorial(v) for _, v in classes)
    hist: dict[tuple[int, ...], list[int]] = {}
    flows = _tables_with_margins([v for _, v in classes], donors, math.factorial(n))
    for flow in flows:
        table = [0] * len(counts)
        flow_ways = 1
        stay = [0] * sx
        for i, ((h, s), _) in enumerate(classes):
            row = flow[i * sx : (i + 1) * sx]
            for s2, f in enumerate(row):
                table[h * sx + s2] += f
                flow_ways *= math.factorial(f)
            stay[s] += row[s]
        by_fixed = [class_ways // flow_ways]
        for s2 in range(sx):
            by_fixed = _convolve(by_fixed, _fixed_point_counts(donors[s2], stay[s2]))
        by_moved = hist.setdefault(tuple(table), [0] * (n + 1))
        for fixed, ways in enumerate(by_fixed):
            by_moved[n - fixed] += ways
    return hist


def _histogram(counts: tuple[int, ...], swap_levels: int, cache: dict) -> dict:
    """:func:`_stratum_histogram`, held in ``cache`` under ``counts``."""
    hist = cache.get(counts)
    if hist is None:
        hist = cache[counts] = _stratum_histogram(counts, swap_levels)
    return hist


def _stratum_weights(n: int, rate: Fraction) -> tuple[list[int], int]:
    """:func:`permuswap.swapping.stratum_permutation_prob` for k = 0..n
    at 0 < rate < 1, as integer numerators over one denominator.

    With p = a/c and L = lcm(d(0), d(2), ..., d(n)), a permutation
    moving k records has weight a^k (c-a)^(n-k) L/d(k) over
    L (c^n - n a (c-a)^(n-1)).  No permutation moves exactly one
    record, so entry 1 is 0.
    """
    a, c = rate.numerator, rate.denominator
    d = [derangement_count(k) for k in range(n + 1)]
    lcm = math.lcm(*(d[k] for k in range(n + 1) if k != 1))
    weights = [
        0 if k == 1 else a**k * (c - a) ** (n - k) * (lcm // d[k]) for k in range(n + 1)
    ]
    return weights, lcm * (c**n - n * a * (c - a) ** (n - 1))


def _law(
    table: ContingencyTable, p: RateLike, max_permutations: int, cache: dict
) -> tuple[dict[tuple[int, ...], int], int]:
    """The swapper's exact output law on ``table`` at rate p: integer
    numerators by canonical table key, and their common denominator.

    p = 0, or a table with no stratum of two records (one with no cells
    has none), releases the input table with probability one; p = 1
    applies a uniform derangement of each whole stratum of size >= 2, so
    a stratum's numerators are its histogram's all-moved entries over
    d(n).  The composite denominator is the product of the strata's,
    which depend only on the stratum sizes and the rate, so every
    member of a universe shares it.  With p = a/c, ``cache`` holds the
    rate-free histogram under ``counts``, each stratum law under
    ``(counts, a, c)`` and the weights of an n-record stratum under
    ``(n, p)``; the rate of a weight key lies strictly inside (0, 1), so
    that key is never equal to a count tuple.
    """
    rate = to_exact_rate(p)
    a, c = rate.numerator, rate.denominator
    if not 0 <= a <= c:
        raise ValueError("rate must lie in [0, 1]")
    domain = table.domain
    cells = domain.hold * domain.swap
    flat = table.canonical_key()
    strata = ((m * cells, flat[m * cells : (m + 1) * cells]) for m in range(domain.match))
    active = [(lo, counts) for lo, counts in strata if sum(counts) >= 2]
    if a == 0 or not active:
        return {flat: 1}, 1

    total = 1
    for _, counts in active:
        n = sum(counts)
        total *= derangement_count(n) if a == c else math.factorial(n)
        if total > max_permutations:
            raise EnumerationBudgetError(
                f"{total} composite permutations exceed the budget of {max_permutations}"
            )

    nums = {flat: 1}
    denom = 1
    for lo, counts in active:
        law = cache.get((counts, a, c))
        if law is None:
            n = sum(counts)
            if a == c:
                # only the derangements of all n records
                weights, w_denom = [0] * n + [1], derangement_count(n)
            else:
                if (n, rate) not in cache:
                    cache[n, rate] = _stratum_weights(n, rate)
                weights, w_denom = cache[n, rate]
            numerators = (
                (t, sum(map(operator.mul, by_moved, weights)))
                for t, by_moved in _histogram(counts, domain.swap, cache).items()
            )
            law = cache[counts, a, c] = {t: v for t, v in numerators if v}, w_denom
        stratum, stratum_denom = law
        hi = lo + cells
        nums = {
            key[:lo] + t + key[hi:]: v * u
            for key, v in nums.items()
            for t, u in stratum.items()
        }
        denom *= stratum_denom
    if min(nums.values()) <= 0:
        raise ValueError("probabilities must be positive rationals")
    if sum(nums.values()) != denom:
        raise ValueError("probabilities must sum to exactly one")
    return nums, denom


def _largest_ratio(
    nums: Mapping[tuple[int, ...], int], other: Mapping[tuple[int, ...], int]
) -> Union[tuple[Fraction, tuple[int, ...]], None]:
    """:func:`max_probability_ratio` of two laws at one rate, given their
    numerators.  Equal supports mean equal margins, so equal stratum
    sizes and one shared denominator: each atom ratio is a ratio of
    numerators.  They are compared by cross-multiplication and the
    largest is reduced once, at the end."""
    if nums.keys() != other.keys():
        return None
    best_num = best_den = 1
    witness = None
    for key, u in nums.items():
        v = other[key]
        if u < v:
            u, v = v, u
        above, below = u * best_den, best_num * v
        if above > below:
            best_num, best_den, witness = u, v, key
        elif above == below and (witness is None or key < witness):
            witness = key
    return Fraction(best_num, best_den), witness


def _log_ratio(hit: Union[tuple[Fraction, tuple[int, ...]], None]) -> float:
    """The log of a largest ratio, infinite when the supports differ."""
    if hit is None:
        return math.inf
    ratio, _ = hit
    return math.log(ratio.numerator) - math.log(ratio.denominator)


def exact_psa_distribution(
    x: Dataset,
    p: RateLike,
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> ExactDistribution:
    """The swapper's exact output distribution on x.

    The rate is taken as an exact rational.  The endpoints are handled
    by their degenerate selection laws: p = 0 releases the input table
    with probability one, p = 1 applies a uniform derangement of each
    whole stratum of size >= 2.
    """
    nums, denom = _law(tabulate(x), p, max_permutations, {})
    return ExactDistribution(x.domain, {key: Fraction(v, denom) for key, v in nums.items()})


def _float_endpoint(rate: Fraction) -> bool:
    """A rate inside (0, 1) whose float, at which budgets are computed, is 0.0 or 1.0."""
    return 0 < rate < 1 and float(rate) in (0.0, 1.0)


def _sweep_rates(p_values: Sequence[RateLike]) -> tuple[Fraction, ...]:
    """The rates of :func:`dp_sweep` as exact rationals.  Raises
    ``ValueError`` unless each lies strictly inside (0, 1), also as a
    float, and their floats are distinct."""
    rates = tuple(to_exact_rate(p) for p in p_values)
    outside = [str(rate) for rate in rates if not 0 < rate < 1 or _float_endpoint(rate)]
    if outside:
        raise ValueError(
            f"the sweep needs rates strictly inside (0, 1), also as floats, got {', '.join(outside)}"
        )
    floats = [float(rate) for rate in rates]
    repeated = [str(rate) for i, rate in enumerate(rates) if floats[i] in floats[:i]]
    if repeated:
        raise ValueError(f"the sweep needs distinct rates, got {', '.join(repeated)} again")
    return rates


def _tables_with_margins(
    row_sums: Sequence[int], col_sums: Sequence[int], max_tables: int
) -> list[tuple[int, ...]]:
    """All non-negative integer H x S tables with the given margins,
    flattened row-major, in lexicographic order.

    Partial tables grow one row at a time over the column sums they
    leave; those that leave the same sums share their next rows, built
    once, cell by cell, for all such sums together.  In a row each cell
    but the last counts from what the later cells cannot take up to
    min(column left, row total left), and the last cell takes the rest.
    With equal totals every partial table and partial row completes to
    distinct tables, so each list is cut at ``max_tables + 1``:
    :class:`EnumerationBudgetError` is raised exactly when more than
    ``max_tables`` tables exist, before more are built.
    """
    if sum(row_sums) != sum(col_sums):
        return []

    def within_budget(tables):
        # no list holds more than sys.maxsize items, so a larger budget never binds
        tables = list(itertools.islice(tables, max(0, min(max_tables + 1, sys.maxsize))))
        if len(tables) > max_tables:
            raise EnumerationBudgetError(f"margin-constrained tables exceed the budget of {max_tables}")
        return tables

    tables = within_budget([((), tuple(col_sums))])
    # with no columns every row total is 0, and the empty table is the one table
    for total in row_sums if col_sums else ():
        heads = [(left, ()) for left in {left for _, left in tables}]
        for s in range(len(col_sums) - 1):
            heads = within_budget(
                (left, head + (v,))
                for left, head in heads
                for rest in (total - sum(head),)
                for v in range(max(0, rest - sum(left[s + 1 :])), min(left[s], rest) + 1)
            )
        rows_after: dict[tuple[int, ...], list] = {}
        for left, head in heads:
            row = head + (total - sum(head),)
            rows_after.setdefault(left, []).append((row, tuple(map(operator.sub, left, row))))
        tables = within_budget(
            (table + row, after) for table, left in tables for row, after in rows_after[left]
        )
    return [table for table, _ in tables]


def enumerate_universe(
    x: Union[Dataset, ContingencyTable],
    max_tables: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[ContingencyTable, ...]:
    """All tables over the same domain sharing x's released margins, in
    canonical-key order.

    Strata are independent under fixed margins, so the universe is the
    per-stratum cross product of margin-constrained H x S tables.  Each
    stratum's tables come in lexicographic order and a canonical key is
    the strata's keys in match order, so the product is in key order.
    """
    inv = swap_invariants(x)
    domain = Domain(*inv.mh.shape, inv.ms.shape[1])
    per_stratum: list[list[tuple[int, ...]]] = []
    total = 1
    for m in range(domain.match):
        options = _tables_with_margins(inv.mh[m].tolist(), inv.ms[m].tolist(), max_tables)
        total *= len(options)
        if total > max_tables:
            raise EnumerationBudgetError(f"universe size exceeds the budget of {max_tables}")
        per_stratum.append(options)
    return tuple(
        ContingencyTable(np.array(combo, dtype=np.int64).reshape(domain.shape))
        for combo in itertools.product(*per_stratum)
    )


def max_probability_ratio(
    p_dist: ExactDistribution, q_dist: ExactDistribution
) -> Union[tuple[Fraction, tuple[int, ...]], None]:
    """Largest atom-wise probability ratio (both directions), exact.

    Returns None when the supports differ (the distance is infinite);
    otherwise the ratio >= 1 and the atom with the smallest canonical
    key among those attaining it, whatever the order of ``probs``.
    Both laws are put over the lcm of their atoms' denominators and
    compared by :func:`_largest_ratio`.
    """
    if p_dist.domain != q_dist.domain:
        raise ValueError("distributions live over different domains")
    atoms = (*p_dist.probs.values(), *q_dist.probs.values())
    denom = math.lcm(*(v.denominator for v in atoms))
    p_nums, q_nums = (
        {key: v.numerator * (denom // v.denominator) for key, v in dist.probs.items()}
        for dist in (p_dist, q_dist)
    )
    return _largest_ratio(p_nums, q_nums)


def mult_distance(p_dist: ExactDistribution, q_dist: ExactDistribution) -> float:
    """Multiplicative distance sup_E |ln P(E)/Q(E)|.

    For finite discrete distributions the sup over events is attained
    on an atom, so this is the log of the largest atom-wise ratio;
    infinite when the supports differ.
    """
    return _log_ratio(max_probability_ratio(p_dist, q_dist))


@dataclass(frozen=True)
class DpVerdict:
    """Outcome of checking one same-universe pair against a budget.

    ``measured`` is the multiplicative distance per unit of Hamming
    distance; ``bound`` the budget it must not exceed.  The comparison
    allows 1e-12 of slack for the final logarithm only; the underlying
    ratios are exact.
    """

    measured: float
    bound: float
    witness: Union[tuple[Dataset, Dataset, Union[ContingencyTable, None]], None]
    passed: bool


def verify_dp(
    x: Dataset,
    x_prime: Dataset,
    p: RateLike,
    budget: BudgetResult,
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> DpVerdict:
    """Check the Lipschitz condition for one pair at one rate."""
    rate = to_exact_rate(p)
    if not 0 < rate < 1:
        raise ValueError("verification needs 0 < p < 1")
    table, table_prime = tabulate(x), tabulate(x_prime)
    if not same_universe(table, table_prime):
        raise UniverseMismatchError(
            "pair does not share invariants; the guarantee does not apply"
        )
    d_ham = hamming_distance(table, table_prime)
    if d_ham == 0:
        return DpVerdict(0.0, budget.epsilon, (x, x_prime, None), True)
    cache: dict = {}
    hit = _largest_ratio(
        *(_law(t, rate, max_permutations, cache)[0] for t in (table, table_prime))
    )
    if hit is None:
        return DpVerdict(math.inf, budget.epsilon, (x, x_prime, None), False)
    measured = _log_ratio(hit) / d_ham
    witness = np.asarray(hit[1], dtype=np.int64).reshape(table.counts.shape)
    passed = measured <= budget.epsilon + LOG_SLACK
    return DpVerdict(measured, budget.epsilon, (x, x_prime, ContingencyTable(witness)), passed)


def measured_optimal_epsilon(
    universe: Sequence[ContingencyTable],
    p: RateLike,
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """The exact pointwise-optimal budget of one universe at rate p:
    the max over pairs of multiplicative distance per unit Hamming.

    Both guards refuse before any pair is built: the first table's law
    (every member has the same strata sizes, so the same permutation
    count), then the C(U, 2) pairs, which ``max_permutations`` bounds too."""
    tables = list(universe)
    cache: dict = {}
    if len(tables) > 1:
        _law(tables[0], p, max_permutations, cache)
        pairs = math.comb(len(tables), 2)
        if pairs > max_permutations:
            raise EnumerationBudgetError(f"{pairs} table pairs exceed the budget of {max_permutations}")
    return _measured_optimal_epsilon(tables, _distances(tables), p, max_permutations, cache)


def _distances(tables: Sequence[ContingencyTable]) -> dict[tuple[int, int], Union[int, float]]:
    """d_Ham of every unordered pair (i, j), i < j."""
    return {
        (i, j): hamming_distance(tables[i], tables[j])
        for i, j in itertools.combinations(range(len(tables)), 2)
    }


def _pair_epsilons(
    laws: Sequence[Mapping[tuple[int, ...], int]],
    d_hams: Mapping[tuple[int, int], Union[int, float]],
) -> Iterator[tuple[int, int, float]]:
    """Multiplicative distance per unit of d_Ham, ``(i, j, value)``, for
    each pair of one universe's laws at one rate with d_Ham > 0."""
    for (i, j), d_ham in d_hams.items():
        if d_ham:
            yield i, j, _log_ratio(_largest_ratio(laws[i], laws[j])) / d_ham


def _measured_optimal_epsilon(
    tables: Sequence[ContingencyTable],
    d_hams: Mapping[tuple[int, int], Union[int, float]],
    p: RateLike,
    max_permutations: int,
    cache: dict,
) -> float:
    if len(tables) <= 1:
        return 0.0
    laws = [_law(t, p, max_permutations, cache)[0] for t in tables]
    return max((value for _, _, value in _pair_epsilons(laws, d_hams)), default=0.0)


# ---------------------------------------------------------------------------
# connecting permutations


def connecting_permutation(x: Dataset, x_prime: Dataset) -> Permutation:
    """A permutation deranging exactly d_Ham(x, x') records that maps
    x's table onto that of x'.

    Construction by direct matching: take from each cell (m,h,s) of x
    its surplus over x' as *movers* (the first such records in position
    order).  Because n_mh. is shared, the surplus of row (m,h) equals
    its deficit, so each mover of (m,h,s) is paired with a deficit cell
    (m,h,s') and must receive swap value s'.  Because n_m.s is shared,
    stratum m has as many movers that need s' as movers whose own swap
    value is s', so each mover takes the value of a distinct mover with
    swap value s'.  No cell is both surplus and deficit, so s' != s:
    every mover moves and no other record does, which is exactly
    d_Ham records.

    The sweep does not build it: there the fewest records any
    permutation moves, read off the stratum histograms, equals d_Ham,
    which already proves that such a permutation exists.
    """
    table, target = tabulate(x), tabulate(x_prime)
    if not same_universe(table, target):
        raise UniverseMismatchError("pair does not share invariants")
    diff = (table.counts - target.counts).ravel()
    cells = np.ravel_multi_index(tuple(x.codes.T), x.domain.shape)
    order = np.argsort(cells, kind="stable")
    by_cell = cells[order]
    rank = np.arange(len(x)) - np.searchsorted(by_cell, by_cell)
    movers = order[rank < np.maximum(diff, 0)[by_cell]]
    # movers and deficit slots both come sorted by cell, with equal counts per (m, h)
    targets = np.repeat(np.arange(diff.size), np.maximum(-diff, 0))
    target_m, _, target_s = np.unravel_index(targets, x.domain.shape)
    receivers = movers[np.lexsort((target_s, target_m))]
    donors = movers[np.lexsort((x.codes[movers, 2], x.codes[movers, 0]))]
    mapping = np.arange(len(x))
    mapping[receivers] = donors
    return Permutation(mapping)


def _min_moves(
    table: ContingencyTable, target: ContingencyTable, cache: dict
) -> Union[int, None]:
    """Fewest records a within-stratum permutation moves to carry
    ``table`` onto ``target``, or None: per differing stratum, the first
    nonzero entry of its cached histogram at the target's stratum."""
    cells = table.domain.hold * table.domain.swap
    flat, goal = table.canonical_key(), target.canonical_key()
    total = 0
    for m in range(table.domain.match):
        counts, want = flat[m * cells : (m + 1) * cells], goal[m * cells : (m + 1) * cells]
        if counts == want:
            continue
        hist = _histogram(counts, table.domain.swap, cache)
        if want not in hist:
            return None
        total += next(k for k, c in enumerate(hist[want]) if c)
    return total


def min_connecting_derangement(
    x: Dataset, x_prime: Dataset, max_records: int = 8
) -> Union[int, None]:
    """Brute-force minimum derangement count over all permutations g
    with C(g(x)) = C(x'); None when no permutation connects the pair.

    Walks all n! permutations.  The library no longer calls it; tests and
    the benchmark hold the sweep's connecting minimum against it.
    """
    n = len(x)
    if n != len(x_prime):
        return None
    if n > max_records:
        raise EnumerationBudgetError(f"brute force is capped at {max_records} records")
    target = list(tabulate(x_prime).canonical_key())
    _, hx, sx = x.domain
    # flat cell of record i after it receives record j's swap value:
    # rows[i] + swaps[j]
    rows = ((x.codes[:, 0] * hx + x.codes[:, 1]) * sx).tolist()
    swaps = x.codes[:, 2].tolist()
    best: Union[int, None] = None
    for raw in itertools.permutations(range(n)):
        cells = [0] * len(target)
        for row, j in zip(rows, raw):
            cells[row + swaps[j]] += 1
        if cells == target:
            k = sum(1 for i, j in enumerate(raw) if i != j)
            if best is None or k < best:
                best = k
    return best


# ---------------------------------------------------------------------------
# lower-bound witness structure


def odds_bound_applies(inv: SwapInvariants) -> bool:
    """Universe structure forcing a budget of at least ln(o): some
    stratum of size >= 2 whose margins are all 0 or 1 (no vacuous
    permutations exist there)."""
    small = (inv.mh.max(axis=1, initial=0) <= 1) & (inv.ms.max(axis=1, initial=0) <= 1)
    return bool((small & (inv.stratum_sizes >= 2)).any())


def ratio_bound_applies(inv: SwapInvariants) -> bool:
    """Universe structure forcing ln(d(b)/d(b-2))/2 - ln(o): a stratum
    realizing b with two singleton hold rows and two singleton swap
    columns, and (beyond b = 2) margins small enough (<= b/2 - 1) that a
    full-stratum derangement can move every record's cell."""
    b = invariant_stratum_bound(inv)
    if b < 2 or b == 3:
        return False
    # at b = 2 the two singletons already cap every margin at 1
    cap = max(b / 2 - 1, 1)
    rows = (
        (inv.stratum_sizes == b)
        & ((inv.mh == 1).sum(axis=1) >= 2)
        & ((inv.ms == 1).sum(axis=1) >= 2)
        & (inv.mh.max(axis=1, initial=0) <= cap)
        & (inv.ms.max(axis=1, initial=0) <= cap)
    )
    return bool(rows.any())


def _witnessed(inv: SwapInvariants, b: int) -> set[str]:
    """Conditions of :func:`permuswap.budget.psa_lower_bounds` whose
    witness structure the universe of bound b exhibits, at any rate."""
    holds = {
        "degenerate-rate": b > 0,
        "selection-odds": odds_bound_applies(inv),
        "derangement-ratio": ratio_bound_applies(inv),
    }
    return {condition for condition, held in holds.items() if held}


def applicable_lower_bounds(inv: SwapInvariants, p: float) -> list[LowerBound]:
    """The entries of :func:`permuswap.budget.psa_lower_bounds` whose
    witness structure this universe exhibits."""
    b = invariant_stratum_bound(inv)
    witnessed = _witnessed(inv, b)
    return [bound for bound in psa_lower_bounds(p, b) if bound.condition in witnessed]


# ---------------------------------------------------------------------------
# the exhaustive sweep


def _small_count_rows(domain: Domain, max_records: int) -> np.ndarray:
    """Every dataset of at most max_records records over the domain as
    one row of cell counts, an (N, cells) int64 matrix, in the order of
    ``combinations_with_replacement(range(cells), n)`` for n = 0, 1, ...,
    max_records.  That order extends each n-record combination, in turn,
    by one record in each cell from its last cell on, so the block of
    n + 1 records repeats each row of the n-record block once per such
    cell."""
    rows = np.zeros((1 if max_records >= 0 else 0, domain.cells), dtype=np.int64)
    last = np.zeros(len(rows), dtype=np.int64)  # each row's last cell (0 when empty)
    blocks = [rows]
    for _ in range(max_records):
        reps = domain.cells - last
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        last = np.repeat(last, reps) + np.arange(starts.size) - starts
        rows = np.repeat(rows, reps, axis=0)
        rows[np.arange(len(rows)), last] += 1
        blocks.append(rows)
    return np.concatenate(blocks)


def enumerate_small_datasets(domain: Domain, max_records: int) -> list[Dataset]:
    """Every dataset with at most max_records records over the domain,
    deduplicated up to record order (one canonical representative per
    multiset, its records in ascending cell order).  They come by record
    count, and within one count in the order of
    ``itertools.combinations_with_replacement`` over the cells in
    row-major order."""
    domain = Domain(*domain)
    return [
        dataset_from_table(ContingencyTable(row.reshape(domain.shape)))
        for row in _small_count_rows(domain, max_records)
    ]


@dataclass(frozen=True)
class UniverseCheck:
    """Summary of one universe across the swept rates: the measured
    optimum and the budget, keyed by the float rate.  :func:`dp_sweep`
    shares one summary, dicts included, across a relabelling orbit, so
    treat the mappings as read-only."""

    b: int
    size: int
    measured: Mapping[float, float]
    budget: Mapping[float, float]


@dataclass(frozen=True)
class SweepReport:
    domain: Domain
    max_records: int
    p_values: tuple[Fraction, ...]
    universe_count: int
    dataset_count: int
    pair_checks: int
    connecting_checks: int
    failures: tuple[str, ...]
    universes: tuple[UniverseCheck, ...]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An id for each row of ``keys``, equal for equal rows and numbered
    in order of first appearance, and the index of each id's first row."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def _orbit_ids(mh: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relabelling orbit of each of U universes, given their margins
    as (U, M, H) and (U, M, S) arrays.  Each stratum's hold and swap
    margins are sorted and the distinct sorted stratum rows are ranked;
    returns each universe's ranks in ascending order, a (U, M) array, and
    the (K, H + S) sorted stratum row of each rank.  Two universes share
    a row of ranks exactly when relabelling the hold values and the swap
    values of each stratum, and permuting the strata, carries one onto
    the other."""
    strata = np.concatenate((np.sort(mh, axis=2), np.sort(ms, axis=2)), axis=2)
    universes, match, width = strata.shape
    rows, ranks = np.unique(strata.reshape(universes * match, width), axis=0, return_inverse=True)
    return np.sort(ranks.reshape(universes, match), axis=1), rows


def _stratum_tables(holds: Sequence[int], swaps: Sequence[int], max_tables: int) -> list[ContingencyTable]:
    """The universe of one stratum with the given margins, as 1 x H x S tables."""
    shape = (1, len(holds), len(swaps))
    return [
        ContingencyTable(np.array(t, dtype=np.int64).reshape(shape))
        for t in _tables_with_margins(holds, swaps, max_tables)
    ]


def _check_universe(
    inv: SwapInvariants,
    tables: Sequence[ContingencyTable],
    rates: Sequence[Fraction],
    max_permutations: int,
    cache: dict,
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]],
) -> tuple[UniverseCheck, list[str]]:
    """Every check :func:`dp_sweep` makes on one universe: its summary
    and the failures it finds."""
    b = invariant_stratum_bound(inv)
    witnessed = _witnessed(inv, b)
    universe_keys = {t.canonical_key() for t in tables}
    d_hams = _distances(tables)
    failures: list[str] = []
    measured_by_p: dict[float, float] = {}
    budget_by_p: dict[float, float] = {}
    for rate in rates:
        p = float(rate)
        if (p, b) not in bounds:
            bounds[p, b] = psa_budget(p, b), psa_lower_bounds(p, b)
        budget, lower = bounds[p, b]
        laws = [_law(t, rate, max_permutations, cache)[0] for t in tables]
        for t, nums in zip(tables, laws):
            if nums.keys() != universe_keys:
                failures.append(
                    f"support differs from universe at p={rate} for "
                    f"{t.canonical_string()}"
                )
        measured = 0.0
        for i, j, value in _pair_epsilons(laws, d_hams):
            measured = max(measured, value)
            if value > budget.epsilon + LOG_SLACK:
                failures.append(
                    f"budget exceeded at p={rate}: measured {value} > "
                    f"{budget.epsilon} for pair "
                    f"{tables[i].canonical_string()} vs "
                    f"{tables[j].canonical_string()}"
                )
        measured_by_p[p] = measured
        budget_by_p[p] = budget.epsilon
        for bound, condition in lower:
            if condition in witnessed and measured < bound - LOG_SLACK:
                failures.append(
                    f"lower bound violated at p={rate}: measured {measured} < "
                    f"{bound} ({condition}) in universe of "
                    f"{tables[0].canonical_string()}"
                )
    for i, j in itertools.permutations(range(len(tables)), 2):
        d_ham = d_hams[min(i, j), max(i, j)]
        fewest = _min_moves(tables[i], tables[j], cache)
        if fewest != d_ham:
            failures.append(f"connecting minimum {fewest} disagrees with d_Ham {d_ham}")
    check = UniverseCheck(b=b, size=len(tables), measured=measured_by_p, budget=budget_by_p)
    return check, failures


def dp_sweep(
    domain: Domain = Domain(2, 2, 2),
    max_records: int = 4,
    p_values: Sequence[RateLike] = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9)),
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> SweepReport:
    """Exhaustive verification over every small dataset and universe.

    For each universe and each rate: every ordered pair satisfies the
    Lipschitz condition at the universe's budget; every exact law sums
    to one and has the whole universe as support; the universe's
    pointwise-optimal budget sits between the applicable lower bounds
    and the closed-form budget.
    For each ordered same-universe pair, the fewest records a
    within-stratum permutation moves between them, read off the stratum
    histograms, equals d_Ham (which no permutation beats), so some
    permutation moving exactly d_Ham records connects the pair.

    One stratum is the unit of work (see the module docstring).  Each
    distinct sorted stratum row of hold and swap margins is checked once,
    by :func:`_check_universe` on its single-stratum universe.  A
    relabelling orbit of universes, the sorted tuple of its strata's
    ranks, gets one :class:`UniverseCheck`: b and the measured optimum
    the largest of its strata's, the budget at that b, and its size.
    Every member of the orbit shares that one object, whose dicts are
    not copied and must not be written into.  A universe is checked
    pair by pair, as the unreduced sweep would check it, when one of its
    strata's checks failed or when its combined optimum exceeds its own
    budget or falls below a lower bound it witnesses; so a failing sweep
    lists each failure where it occurs, and the verdict needs no
    monotonicity of the budget in b.  ``pair_checks`` and
    ``connecting_checks`` count the pairs covered: C(size, 2) per rate
    and size * (size - 1) per universe.

    The sweep works on count rows: every dataset is enumerated once, as
    one row of an integer matrix in the order of
    :func:`enumerate_small_datasets`, and the universes and their orbits
    are found by grouping rows and margins with numpy.  Tables are built
    only for the strata and universes it checks, and no dataset or
    permutation at all.
    The budget and lower bounds are computed once per (rate, b), both
    functions of the float rate; stratum histograms, laws and weights
    are shared through one cache.

    Every rate must lie strictly inside (0, 1), as an exact rational and
    as a float, since the budget is computed at the float: at an
    endpoint the budget is infinite and the laws are degenerate, so
    nothing is checked.  The rates must be distinct as floats, which key
    the summaries.  ``max_permutations`` bounds the datasets as well:
    the C(cells + max_records, max_records) of them are counted, and
    refused with :class:`EnumerationBudgetError`, before any is
    enumerated.
    """
    domain = Domain(*domain)
    rates = _sweep_rates(p_values)
    dataset_total = math.comb(domain.cells + max(max_records, 0), max(max_records, 0))
    if dataset_total > max_permutations:
        raise EnumerationBudgetError(
            f"{dataset_total} datasets of at most {max_records} records exceed the "
            f"budget of {max_permutations}"
        )
    rows = _small_count_rows(domain, max_records)
    counts = rows.reshape(len(rows), *domain.shape)
    mh, ms = counts.sum(axis=3), counts.sum(axis=2)
    margins = np.concatenate((mh, ms), axis=2)
    universe_of, firsts = _first_seen(
        margins.reshape(len(rows), domain.match * (domain.hold + domain.swap))
    )
    orbit_of, stratum_rows = _orbit_ids(mh[firsts], ms[firsts])
    # universe u's members in enumeration order: by_universe[edges[u]:edges[u + 1]]
    by_universe = np.argsort(universe_of, kind="stable")
    edges = np.searchsorted(universe_of[by_universe], np.arange(len(firsts) + 1)).tolist()

    cache: dict = {}
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]] = {}
    strata = []
    # each row as a (1, H + S) block: the margins of a one-stratum universe
    for row in stratum_rows[:, None]:
        holds, swaps = row[:, : domain.hold], row[:, domain.hold :]
        tables = _stratum_tables(holds[0].tolist(), swaps[0].tolist(), max_permutations)
        inv = SwapInvariants(holds, swaps)
        check, found = _check_universe(inv, tables, rates, max_permutations, cache, bounds)
        strata.append((check, bool(found)))
    by_orbit: dict[tuple[int, ...], tuple[UniverseCheck, bool]] = {}
    results = []
    for u, orbit in enumerate(map(tuple, orbit_of.tolist())):
        if orbit not in by_orbit:
            parts = [strata[r] for r in orbit]
            b = max((check.b for check, _ in parts), default=0)
            witnessed = _witnessed(SwapInvariants(mh[firsts[u]], ms[firsts[u]]), b)
            failed = any(found for _, found in parts)
            measured_by_p, budget_by_p = {}, {}
            for p in map(float, rates):
                if (p, b) not in bounds:
                    bounds[p, b] = psa_budget(p, b), psa_lower_bounds(p, b)
                budget, lower = bounds[p, b]
                measured = measured_by_p[p] = max((check.measured[p] for check, _ in parts), default=0.0)
                budget_by_p[p] = budget.epsilon
                failed |= measured > budget.epsilon + LOG_SLACK or any(
                    condition in witnessed and measured < bound - LOG_SLACK for bound, condition in lower
                )
            by_orbit[orbit] = UniverseCheck(b, edges[u + 1] - edges[u], measured_by_p, budget_by_p), failed
        check, failed = by_orbit[orbit]
        found: list[str] = []
        if failed:
            tables = [ContingencyTable(c) for c in counts[by_universe[edges[u] : edges[u + 1]]]]
            inv = SwapInvariants(mh[firsts[u]], ms[firsts[u]])
            check, found = _check_universe(inv, tables, rates, max_permutations, cache, bounds)
        results.append((check, found))
    sizes = np.diff(edges)
    return SweepReport(
        domain=domain,
        max_records=max_records,
        p_values=rates,
        universe_count=len(firsts),
        dataset_count=len(rows),
        pair_checks=len(rates) * int((sizes * (sizes - 1) // 2).sum()),
        connecting_checks=int((sizes * (sizes - 1)).sum()),
        failures=tuple(f for _, found in results for f in found),
        universes=tuple(check for check, _ in results),
    )


@dataclass(frozen=True)
class UniverseReport:
    """Per-rate summary of one realized universe, for reporting."""

    b: int
    universe_size: int
    p: float
    budget_epsilon: float
    measured_optimal: float
    passed: bool
    expected_infinite: bool


def universe_report(
    x: Dataset,
    p_values: Sequence[RateLike],
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[UniverseReport]:
    """Measure one dataset's universe at each rate against the budget.

    The measured optimum is the largest over the distinct sorted strata
    of each one's universe on its own (see the module docstring), each
    held to ``max_permutations``; ``universe_size`` is the product of
    the strata's universe sizes.  At the endpoint rates an infinite measurement is the expected
    outcome (the budget is infinite there too); rows carry a flag so
    reports can mark them rather than fail.  A rate inside (0, 1) whose
    float is 0.0 or 1.0 is refused with ``ValueError``: its law would be
    computed at the rational but its budget at the float."""
    rates = [to_exact_rate(p) for p in p_values]
    refused = [str(rate) for rate in rates if _float_endpoint(rate)]
    if refused:
        raise ValueError(f"rates inside (0, 1) that round to 0.0 or 1.0 as floats: {', '.join(refused)}")
    inv = swap_invariants(x)
    keys = [(tuple(h), tuple(s)) for h, s in zip(*(np.sort(a, axis=1).tolist() for a in (inv.mh, inv.ms)))]
    strata = {key: _stratum_tables(*key, max_permutations) for key in dict.fromkeys(keys)}
    d_hams = {key: _distances(tables) for key, tables in strata.items()}
    size = math.prod(len(strata[key]) for key in keys)
    b = invariant_stratum_bound(inv)
    cache: dict = {}
    rows = []
    for rate in rates:
        budget = psa_budget(float(rate), b).epsilon
        measured = max(
            (_measured_optimal_epsilon(strata[k], d_hams[k], rate, max_permutations, cache) for k in strata),
            default=0.0,
        )
        passed = measured <= budget + LOG_SLACK
        rows.append(UniverseReport(b, size, float(rate), budget, measured, passed, rate in (0, 1) and b > 0))
    return rows

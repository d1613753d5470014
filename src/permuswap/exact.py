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
stratum bound b, which :func:`permuswap.budget.psa_lower_bounds` have a
witness there, and a permutation moving exactly d_Ham records between
two members (by direct matching), which the sweep cross-checks against
the fewest records any permutation moves between them, read off the
same rate-free stratum histograms.

The guard ``max_permutations`` bounds the composite permutation space
the law is a sum over: the product of n! over the strata of at least
two records (of the derangement counts d(n) at p = 1).  It is checked
before any work, and the oracle raises rather than report a verdict on
an instance above it.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .budget import (
    BudgetResult,
    LowerBound,
    derangement_count,
    psa_budget,
    psa_lower_bounds,
)
from .dataset import (
    ContingencyTable,
    Dataset,
    Domain,
    SwapInvariants,
    hamming_distance,
    invariant_stratum_bound,
    max_stratum_b,
    same_universe,
    swap_invariants,
    tabulate,
)
from .swapping import (
    Permutation,
    RateLike,
    apply_permutation,
    to_exact_rate,
)

__all__ = [
    "EnumerationBudgetError",
    "UniverseMismatchError",
    "ExactDistribution",
    "DpVerdict",
    "exact_psa_distribution",
    "enumerate_universe",
    "mult_distance",
    "max_probability_ratio",
    "verify_dp",
    "measured_optimal_epsilon",
    "connecting_permutation",
    "odds_bound_applies",
    "ratio_bound_applies",
    "applicable_lower_bounds",
    "invariant_stratum_bound",
    "enumerate_small_datasets",
    "UniverseCheck",
    "SweepReport",
    "dp_sweep",
    "universe_report",
    "UniverseReport",
    "DEFAULT_ENUMERATION_BUDGET",
    "LOG_SLACK",
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
        * sum(
            (-1) ** i * math.comb(r - j, i) * math.factorial(n - j - i)
            for i in range(r - j + 1)
        )
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

    p = 0 releases the input table with probability one; p = 1 applies
    a uniform derangement of each whole stratum of size >= 2, so a
    stratum's numerators are its histogram's all-moved entries over
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
    active = []
    for lo in range(0, len(flat), cells):
        counts = flat[lo : lo + cells]
        if sum(counts) >= 2:
            active.append((lo, counts))
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


def _tables_with_margins(
    row_sums: Sequence[int], col_sums: Sequence[int], max_tables: int
) -> list[tuple[int, ...]]:
    """All non-negative integer H x S tables with the given margins,
    flattened row-major, in lexicographic order: each free cell counts
    up, and a row's last cell is set by the ones before it."""
    hx, sx = len(row_sums), len(col_sums)
    if sum(row_sums) != sum(col_sums):
        return []
    grid = [0] * (hx * sx)
    col_rem = list(col_sums)
    results: list[tuple[int, ...]] = []

    def fill_row(h: int) -> None:
        if h == hx:
            results.append(tuple(grid))
            if len(results) > max_tables:
                raise EnumerationBudgetError(
                    f"margin-constrained tables exceed the budget of {max_tables}"
                )
            return

        def fill_cell(s: int, remaining: int) -> None:
            if s == sx - 1:
                if remaining <= col_rem[s]:
                    grid[h * sx + s] = remaining
                    col_rem[s] -= remaining
                    fill_row(h + 1)
                    col_rem[s] += remaining
                    grid[h * sx + s] = 0
                return
            for v in range(min(remaining, col_rem[s]) + 1):
                grid[h * sx + s] = v
                col_rem[s] -= v
                fill_cell(s + 1, remaining - v)
                col_rem[s] += v
                grid[h * sx + s] = 0

        if sx == 0:
            if row_sums[h] == 0:
                fill_row(h + 1)
            return
        fill_cell(0, row_sums[h])

    fill_row(0)
    return results


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
            raise EnumerationBudgetError(
                f"universe size exceeds the budget of {max_tables}"
            )
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


def mult_distance(
    p_dist: ExactDistribution, q_dist: ExactDistribution
) -> float:
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
    the max over pairs of multiplicative distance per unit Hamming."""
    tables = list(universe)
    return _measured_optimal_epsilon(tables, _distances(tables), p, max_permutations, {})


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
    """
    table, target = tabulate(x), tabulate(x_prime)
    if not same_universe(table, target):
        raise UniverseMismatchError("pair does not share invariants")
    return _connecting_permutation(x, table.counts - target.counts)


def _connecting_permutation(x: Dataset, diff: np.ndarray) -> Permutation:
    """:func:`connecting_permutation` for a same-universe pair, given C(x) - C(x')."""
    diff = diff.ravel()
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
    return Permutation(mapping.tolist())


def _min_moves(
    table: ContingencyTable, target: ContingencyTable, cache: dict
) -> Union[int, None]:
    """Fewest records a within-stratum permutation moves to carry
    ``table`` onto ``target``, or None: per differing stratum, the first
    nonzero entry of its cached histogram at the target's stratum."""
    cells = table.domain.hold * table.domain.swap
    flat, goal = table.canonical_key(), target.canonical_key()
    total = 0
    for lo in range(0, len(flat), cells):
        counts, want = flat[lo : lo + cells], goal[lo : lo + cells]
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


def enumerate_small_datasets(domain: Domain, max_records: int) -> list[Dataset]:
    """Every dataset with at most max_records records over the domain,
    deduplicated up to record order (one canonical representative per
    multiset)."""
    domain = Domain(*domain)
    cells = list(itertools.product(*map(range, domain)))
    datasets = []
    for n in range(max_records + 1):
        for combo in itertools.combinations_with_replacement(cells, n):
            datasets.append(Dataset(tuple(combo), domain))
    return datasets


@dataclass(frozen=True)
class UniverseCheck:
    """Summary of one universe across the swept rates."""

    b: int
    size: int
    measured: dict[float, float]
    budget: dict[float, float]


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


def dp_sweep(
    domain: Domain = Domain(2, 2, 2),
    max_records: int = 4,
    p_values: Sequence[RateLike] = (
        Fraction(1, 10),
        Fraction(3, 10),
        Fraction(1, 2),
        Fraction(7, 10),
        Fraction(9, 10),
    ),
    max_permutations: int = DEFAULT_ENUMERATION_BUDGET,
) -> SweepReport:
    """Exhaustive verification over every small dataset and universe.

    For each universe and each rate: every ordered pair satisfies the
    Lipschitz condition at the universe's budget; every exact law sums
    to one and has the whole universe as support; the universe's
    pointwise-optimal budget sits between the applicable lower bounds
    and the closed-form budget.
    Each ordered same-universe pair is connected by an explicit
    permutation deranging exactly d_Ham records, and, independently, the
    fewest records a within-stratum permutation moves between them, read
    off the stratum histograms, equals d_Ham (which no permutation beats).

    Each piece of work is done once: every dataset is tabulated once and
    its table serves the grouping, the laws and both connecting checks;
    d_Ham is computed once per unordered pair, before the rates; the
    budget and lower bounds once per (rate, b), both functions of the
    float rate; stratum histograms, laws and weights are shared through
    one cache.

    Every rate must lie strictly inside (0, 1): at an endpoint the
    budget is infinite and the laws are degenerate, so nothing is
    checked.
    """
    domain = Domain(*domain)
    rates = tuple(to_exact_rate(p) for p in p_values)
    outside = [str(rate) for rate in rates if not 0 < rate < 1]
    if outside:
        raise ValueError(
            f"the sweep needs rates strictly inside (0, 1), got {', '.join(outside)}"
        )
    floats = [float(rate) for rate in rates]
    datasets = enumerate_small_datasets(domain, max_records)
    groups: dict[SwapInvariants, list[tuple[Dataset, ContingencyTable]]] = {}
    for d in datasets:
        table = tabulate(d)
        groups.setdefault(swap_invariants(table), []).append((d, table))

    failures: list[str] = []
    universes: list[UniverseCheck] = []
    pair_checks = 0
    connecting_checks = 0
    cache: dict = {}
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]] = {}

    for inv, entries in groups.items():
        members = [d for d, _ in entries]
        tables = [t for _, t in entries]
        b = invariant_stratum_bound(inv)
        witnessed = _witnessed(inv, b)
        universe_keys = {t.canonical_key() for t in tables}
        d_hams = _distances(tables)
        measured_by_p: dict[float, float] = {}
        budget_by_p: dict[float, float] = {}
        for rate, p in zip(rates, floats):
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
                pair_checks += 1
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
        for i, j in itertools.permutations(range(len(members)), 2):
            connecting_checks += 1
            d_ham = d_hams[min(i, j), max(i, j)]
            rho = _connecting_permutation(members[i], tables[i].counts - tables[j].counts)
            moved = tabulate(apply_permutation(rho, members[i]))
            if moved != tables[j]:
                failures.append(
                    f"connecting permutation misses the target for pair "
                    f"({i},{j}) in universe of "
                    f"{tables[0].canonical_string()}"
                )
            if rho.derange_count != d_ham:
                failures.append(
                    f"connecting permutation deranges {rho.derange_count} "
                    f"records, expected {d_ham}"
                )
            fewest = _min_moves(tables[i], tables[j], cache)
            if fewest != d_ham:
                failures.append(f"connecting minimum {fewest} disagrees with d_Ham {d_ham}")
        universes.append(
            UniverseCheck(b=b, size=len(members), measured=measured_by_p, budget=budget_by_p)
        )

    return SweepReport(
        domain=domain,
        max_records=max_records,
        p_values=rates,
        universe_count=len(groups),
        dataset_count=len(datasets),
        pair_checks=pair_checks,
        connecting_checks=connecting_checks,
        failures=tuple(failures),
        universes=tuple(universes),
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

    At the endpoint rates an infinite measurement is the expected
    outcome (the budget is infinite there too); rows carry a flag so
    reports can mark them rather than fail."""
    universe = enumerate_universe(x, max_permutations)
    d_hams = _distances(universe)
    b = max_stratum_b(x)
    cache: dict = {}
    rows = []
    for p in p_values:
        rate = to_exact_rate(p)
        budget = psa_budget(float(rate), b)
        measured = _measured_optimal_epsilon(universe, d_hams, rate, max_permutations, cache)
        endpoint = rate in (0, 1)
        passed = measured <= budget.epsilon + LOG_SLACK
        rows.append(
            UniverseReport(
                b=b,
                universe_size=len(universe),
                p=float(rate),
                budget_epsilon=budget.epsilon,
                measured_optimal=measured,
                passed=passed,
                expected_infinite=endpoint and b > 0,
            )
        )
    return rows

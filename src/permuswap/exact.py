"""Exact verification of the swapper's guarantee.

On desk-size instances the swapper's full output distribution is
computed in exact rational arithmetic.  Strata are independent, and
within a stratum a permutation's probability depends only on how many
records it moves (see :func:`permuswap.swapping.stratum_permutation_prob`)
while its output table depends only on its flow matrix: how many
records of each (hold, swap) class receive each swap value.  So no
permutation is walked.  For tables x, t of one stratum universe,
N_x(t, k) counts the permutations of x's records that release t and
move k of them.  Hold row h's part of a flow is an S x S table with row
sums x[h,:] and column sums t[h,:] that adds only its diagonal, the
records keeping their swap value, to the stay vector.  So N_x(t, .)
sums, over stay vectors, the product of per-row polynomials in the
diagonal times the fixed-point counts of each swap value's bijection
from its receivers onto its donors; both factors are shared by pairs.

Reversibility lemma: with w(x) the product of x's cell factorials,
N_x(t, k) w(t) = N_t(x, k) w(x).  An arrangement of x gives each record,
whose hold value is fixed, a swap value; x has C / w(x) of them, C fixed
by the hold margins.  The map (a, pi) -> (a o pi, pi^-1), from an
arrangement a of x and a permutation pi carrying it onto one of t, is a
bijection onto the same pairs for (t, x), and pi^-1 moves the records pi
moves; so (C / w(x)) N_x(t, k) = (C / w(t)) N_t(x, k).  Where both
orders are built, the kernel runs for x <= t in key order only, and the
other order is one exact multiply and divide.

A law is held as integer numerators over one denominator.  With
p = a/c, the weight of a permutation moving k records is an integer
over a denominator that depends only on the stratum size n and the
rate, so every member of a stratum universe shares it; only the public
:class:`ExactDistribution` turns the numerators into fractions.  For a
stratum universe of tables T_1, ..., T_U in key order, the law of T_i
is one row of numerators aligned with the tables: entry j is
N_{T_i}(T_j, .), the permutations carrying T_i onto T_j by the number k
of records moved, dotted with the rate's weights.  One builder,
:func:`_pair_tensor`, gives every oracle function the rows of a stratum
universe's pair-count tensor it needs (below): every row to the sweep's
stratum checks and :func:`universe_report`, the rows of the tables
compared (:func:`_stratum_rows`) to the other functions.  Row
polynomials, convolutions and universes are cached for one public call,
shared across its datasets and rates; multinomials, fixed-point counts
and each (n, rate)'s weights, integer and float, functions of integers
alone, for the process.

With the exact distributions in hand, the Lipschitz condition

    |ln P_x(T = t) - ln P_x'(T = t)|  <=  epsilon * d_Ham(x, x')

is checked table by table for every same-universe pair; the sup over
events of a finite discrete pair of distributions is attained on an
atom, so the multiplicative distance reduces to the max over atoms.
An exact comparison finds a pair's largest atom ratio by integer
cross-multiplication and reduces it to a ``Fraction``; its logarithm,
the only real-valued step, is taken after all exact comparisons.

On one stratum universe of U tables of n records the pair counts are
one U x U x (n + 1) tensor N (:func:`_pair_tensor`), built once, whole
or in the rows a call compares, and read at every rate of the call.  Its
entries are at most n!, so it is int64 up to n = 20 and holds Python
ints above; the guard below admits either.  One measurer,
:func:`_universe_optima`, takes any tables of one universe as each
stratum's rows of N and each table's position among them.  Per stratum
the laws at every rate are one float product N @ W, and one numpy scan
in blocks of pairs takes each pair's signed largest and smallest log
ratio; by the pair lemma (below) the pair's float is the larger of
their sums over the strata, the smallest negated.  The floats only
choose the pairs compared exactly: each pair within 1e-9 (relative) of
the rate's largest float or of its budget, and each pair with a row
whose float law may have underflowed, is compared by cross-multiplication
of its integer rows.  A float law is within (n + 5) eps of the exact
one, relative, so a stratum's extreme is within 2 (n + 5) eps of its
log ratio.  A stratum the two share adds exactly 0, each other at least
1 to d_Ham, and the extremes summed share one sign, so a sum over M
strata is within 2 (n + 5) eps per unit of d_Ham, n the largest, plus
M eps relative; the float reported for an exact ratio is within an ulp
of each of the two logs it subtracts.  All lie far inside the band
(about 1e-14 at n = 20) until the integers pass about e^(10^6), a
stratum of some 10^5 records, or the strata number some 10^6.  So every
reported value and verdict is an exact ratio's.  The support is read off
N's zero pattern and the connecting minima off its first nonzero k.

The rest of a universe's structure is a function of its margins: the
stratum bound b, the :func:`permuswap.budget.psa_lower_bounds` it
witnesses, and the fewest records any permutation moves between two
members, the first nonzero pair count of each stratum, summed.  Pair
counts tally actual permutations by the records they move, so where
that minimum equals d_Ham a permutation moving exactly d_Ham records
connects the pair; the sweep checks this on tables alone, and
:func:`connecting_permutation` builds one such permutation by direct
matching.

The swapper never reads a label, so relabelling the hold values or the
swap values within one stratum, or permuting the strata, carries the
law of a table onto the law of the relabelled table, atom by atom: a
composite law is the product of its strata's laws, and each depends on
its own H x S counts alone.  d_Ham, b, the universe size, the support,
the witnessed lower bounds and the fewest records moved are per-stratum
sums or maxima of quantities no relabelling changes; the measurer reads
each table's stratum counts for d_Ham by its index in the stratum universe.

For a pair x, x' of one universe, the log-ratio at an output t is the
sum over the strata of a_m(t_m), so the largest atom ratio is
max(prod_m R+_m, prod_m R-_m), with R+_m stratum m's largest ratio one
way round and R-_m the other; a stratum the two share gives 1 (the pair
lemma).  The smallest key attaining it concatenates each stratum's
first maximizer on the winning side, the smaller one on a tie.  Every
exact comparison is this one, :func:`_pair_ratio` over the strata's
:func:`_row_ratio`: :func:`verify_dp` and the rechecks of
:func:`_universe_optima` on the pair's strata, and the public
``Fraction`` API (:func:`max_probability_ratio`, and so
:func:`mult_distance`) on one row over the lcm of the atoms'
denominators; the measurer's float scan sums the same signed stratum
extremes.  So one stratum is also the unit of the measured optimum (the
stratum lemma): the pair's distance is at most the sum of the strata's
distances D_m, and its value at most the largest D_m / d_m over the
strata where the two differ.  The pair that differs in that stratum
alone is in the universe and attains it, with the same reduced ratio
and so the same float.  A universe's measured optimum is the
largest of its strata's, each a function of the stratum's sorted hold
and swap margins.  :func:`universe_report` measures each distinct
stratum universe on its own and never builds their product, and
:func:`dp_sweep` checks each distinct sorted stratum once.  The
witnessed lower bounds combine the same way: b is the largest stratum
bound, the odds structure shows in any stratum and the ratio structure
in a stratum realizing b.  (A pair that attains the optimum in several
strata takes the logarithm of another fraction, so the composite's
largest float can be an ulp or two above the stratum's.)

The guard ``max_permutations`` holds each stratum universe of U tables
of n records to its U^2 (n + 1) pair counts, at any rate, where the
universe is enumerated and before any pair count is built.  It also
bounds the product of the strata's universe sizes for the composite law
of :func:`exact_psa_distribution` and the tables of
:func:`enumerate_universe`, the C(U, 2) pairs
:func:`measured_optimal_epsilon` compares and the C(cells +
max_records, max_records) datasets the sweep would enumerate.  The
oracle raises rather than report a verdict above it.
"""

import bisect
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .budget import (
    BudgetResult, LowerBound, RateLike, _unit_rate, derangement_count, psa_budget, psa_lower_bounds, to_exact_rate,
)
from .dataset import (
    ContingencyTable, Dataset, Domain, SwapInvariants, dataset_from_table, hamming_distance,
    _require_same_domain, _stratum_bounds, invariant_stratum_bound, same_universe, swap_invariants, tabulate,
)
from .swapping import Permutation

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
# a pair whose float value lies within this of the largest, or of the
# budget, relative to the larger of that value and 1, is compared exactly
_RECHECK = 1e-9
# the float laws, the float scan and the lemma work on at most this many entries at once
_SCAN_FLOATS = 1 << 16
# a float law below (n + 1) _TINY may have lost its leading digits to underflow
_TINY = sys.float_info.min / sys.float_info.epsilon


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


@functools.cache
def _multinomial(parts: tuple[int, ...]) -> int:
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


def _splits(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every way to put ``total``, at most ``sum(caps)``, into bins holding
    at most ``caps``, in lexicographic order."""
    if len(caps) == 1:
        yield (total,)
        return
    room = sum(caps[1:])
    for v in range(max(0, total - room), min(caps[0], total) + 1):
        for rest in _splits(total - v, caps[1:]):
            yield (v, *rest)


def _matrices(row_sums: Sequence[int], col_sums: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every non-negative integer matrix with the given row and column sums,
    of one total, flattened row-major, in lexicographic order: each row
    :func:`_splits` its total over the column sums left; the last takes the rest."""
    if len(row_sums) <= 1 or not col_sums:
        yield tuple(col_sums) if row_sums else ()
        return
    for row in _splits(row_sums[0], col_sums):
        left = tuple(map(operator.sub, col_sums, row))
        for rest in _matrices(row_sums[1:], left) if len(row_sums) > 2 else [left]:
            yield row + rest


def _row_polynomial(row: tuple[int, ...], target: tuple[int, ...], radix: int) -> dict[int, int]:
    """One hold row's polynomial: over the S x S flows F with row sums
    ``row`` and column sums ``target`` (the input and output row, of one
    total), the ways prod row[s]! / prod F! to choose which records of
    each cell receive which value, summed by F's diagonal, read as the
    digits of one integer in base ``radix``."""
    size = len(row)
    powers = [radix**s for s in range(size)]
    poly: dict[int, int] = {}
    for flow in _matrices(row, target):
        key = sum(map(operator.mul, flow[:: size + 1], powers))
        ways = math.prod(map(_multinomial, zip(*[iter(flow)] * size)))
        poly[key] = poly.get(key, 0) + ways
    return poly


def _pair_kernel(x: tuple[int, ...], t: tuple[int, ...], swap_levels: int, cache: dict) -> list[int]:
    """N_x(t, k) for k = 0..n: the permutations of the n records of
    stratum table x that release table t and move k of them.  The row
    polynomials multiply into ways by stay vector (no entry exceeds n, so
    base n + 1 adds them digit by digit); each stay vector's fixed
    records are counted per swap value and convolved.  ``cache`` holds
    the row polynomials in ``"rows"`` and the convolutions in ``"stays"``."""
    sx = swap_levels
    n = sum(x)
    rows, convolved = cache.setdefault("rows", {}), cache.setdefault("stays", {})
    stays = {0: 1}
    for lo in range(0, len(x), sx):
        pair = x[lo : lo + sx], t[lo : lo + sx], n + 1
        if pair not in rows:
            rows[pair] = _row_polynomial(*pair)
        merged: dict[int, int] = {}
        for stay, ways in stays.items():
            for diagonal, more in rows[pair].items():
                merged[stay + diagonal] = merged.get(stay + diagonal, 0) + ways * more
        stays = merged
    donors = tuple(sum(x[s::sx]) for s in range(sx))
    by_moved = [0] * (n + 1)
    for stay, ways in stays.items():
        by_fixed = convolved.get((donors, stay))
        if by_fixed is None:
            by_fixed, digits = [1], stay
            for size in donors:
                digits, shared = divmod(digits, n + 1)
                by_fixed = _convolve(by_fixed, _fixed_point_counts(size, shared))
            convolved[donors, stay] = by_fixed
        for fixed, count in enumerate(by_fixed):
            by_moved[n - fixed] += ways * count
    return by_moved


def _upper(size: int, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of ``size`` tables in row-major order, as
    np.triu_indices(size, 1) gives them, held in ``cache``."""
    if ("upper", size) not in cache:
        cache["upper", size] = np.triu_indices(size, 1)
    return cache["upper", size]


def _pair_tensor(
    tables: Sequence[tuple[int, ...]], swap_levels: int, cache: dict, rows: Union[Sequence[int], None] = None
) -> np.ndarray:
    """Rows of the pair counts of one stratum universe of U tables of n
    records, N[i, j, k] = N_{T_i}(T_j, k): N[rows], ``rows`` ascending,
    all U by default.  Entry (i, j) is :func:`_pair_kernel`'s unless
    j < i are both rows, where the reversibility lemma gives it,
    N[i, j] = N[j, i] w(T_i) / w(T_j), and raises if a division leaves a
    remainder.  Every entry is at most n!, so the array is int64 up to
    n = 20 and holds Python ints above.  Each row sums over j to the
    C(n, k) d(k) permutations moving k records, or ``ValueError`` is
    raised.  The kernel shares ``cache``'s row polynomials and
    convolutions; no pair is cached."""
    size, n = len(tables), sum(tables[0])
    rows = range(size) if rows is None else rows
    tensor = np.zeros((len(rows), size, n + 1), dtype=np.int64 if n <= 20 else object)
    for a, i in enumerate(rows):
        tensor[a, i:] = [_pair_kernel(tables[i], t, swap_levels, cache) for t in tables[i:]]
        # below the diagonal, the lemma fills the columns of earlier rows and the kernel the rest
        for j in set(range(i)).difference(rows[:a]) if a < i else ():
            tensor[a, j] = _pair_kernel(tables[i], tables[j], swap_levels, cache)
    index = np.asarray(rows, dtype=np.intp)
    w = np.array([math.prod(map(math.factorial, tables[i])) for i in rows], dtype=tensor.dtype)
    above, below = _upper(len(rows), cache)
    # in blocks of pairs, so the temporaries stay within _SCAN_FLOATS entries
    step = max(1, _SCAN_FLOATS // (n + 1))
    for lo in range(0, len(above), step):
        a, b = above[lo : lo + step], below[lo : lo + step]
        w_a, w_b = w[a], w[b]
        shared = np.gcd(w_a, w_b)
        counts, down = tensor[a, index[b]], (w_a // shared)[:, None]
        if (counts % down).any():
            raise ValueError("move counts break the reversibility lemma")
        tensor[b, index[a]] = counts // down * (w_b // shared)[:, None]
    if ("moved", n) not in cache:
        cache["moved", n] = np.array([math.comb(n, k) * derangement_count(k) for k in range(n + 1)], dtype=tensor.dtype)
    if (tensor.sum(axis=1) != cache["moved", n]).any():
        raise ValueError("probabilities must sum to exactly one")
    return tensor


def _stratum_weights(n: int, rate: Fraction) -> tuple[list[int], int]:
    """:func:`permuswap.swapping.stratum_permutation_prob` for k = 0..n at
    0 <= rate <= 1 (n >= 2 at 1), as integer numerators over one denominator.

    With p = a/c and L = lcm(d(0), d(2), ..., d(n)), a permutation
    moving k records has weight a^k (c-a)^(n-k) L/d(k) over
    L (c^n - n a (c-a)^(n-1)).  No permutation moves exactly one
    record, so entry 1 is 0.  At p = 0 only the identity weighs (L over
    L); at p = 1 only the d(n) derangements, each L/d(n) over L.
    """
    a, c = rate.numerator, rate.denominator
    d = [derangement_count(k) for k in range(n + 1)]
    lcm = math.lcm(*(d[k] for k in range(n + 1) if k != 1))
    weights = [
        0 if k == 1 else a**k * (c - a) ** (n - k) * (lcm // d[k]) for k in range(n + 1)
    ]
    return weights, lcm * (c**n - n * a * (c - a) ** (n - 1))


def _strata(key: tuple[int, ...], domain: Domain) -> list[tuple[int, ...]]:
    """The stratum keys of a canonical key, in match order."""
    cells = domain.hold * domain.swap
    return [key[m * cells : (m + 1) * cells] for m in range(domain.match)]


def _margins(counts: tuple[int, ...], swap_levels: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A stratum table's hold and swap margins."""
    hold = tuple(sum(counts[lo : lo + swap_levels]) for lo in range(0, len(counts), swap_levels))
    return hold, tuple(sum(counts[s::swap_levels]) for s in range(swap_levels))


def _universe(hold: tuple[int, ...], swap: tuple[int, ...], budget: int, cache: dict) -> list:
    """One stratum universe's tables (:func:`_tables_with_margins`), held
    in ``cache["universes"]`` under the margins.  U tables of n records
    have U^2 (n + 1) pair counts; the walk is cut at
    isqrt(budget // (n + 1)) + 1 tables, so :class:`EnumerationBudgetError`
    is raised exactly when those exceed ``budget``, before more are built."""
    universes = cache.setdefault("universes", {})
    if (hold, swap) not in universes:
        n = sum(hold)
        cap = math.isqrt(max(budget, 0) // (n + 1))
        try:
            universes[hold, swap] = _tables_with_margins(hold, swap, cap)
        except EnumerationBudgetError:
            message = f"at least {(cap + 1) ** 2 * (n + 1)} pair counts exceed the budget of {budget}"
            raise EnumerationBudgetError(message) from None
    return universes[hold, swap]


def _stratum_rows(
    keys: Sequence[tuple[int, ...]], domain: Domain, budget: int, cache: dict
) -> list[list[tuple[list[tuple[int, ...]], int, np.ndarray]]]:
    """Each table's strata, given its canonical key, in match order: the
    stratum's universe (:func:`_universe`, held to ``budget``; one list
    per margins, so the tables of one universe share it), the table's
    index in it and its row N[index] of the universe's pair counts,
    U x (n + 1), held in ``cache`` by stratum table and S for later
    calls.  Universes come in order of first appearance, and each one's
    :func:`_pair_tensor` is built once, for the rows not yet held.  A
    stratum of fewer than two records is its own universe, which only
    the identity reaches; its margins are not read."""
    strata = [_strata(key, domain) for key in keys]
    universes: dict = {}
    placed = cache.setdefault(("placed", domain.swap), {})
    for part in dict.fromkeys(itertools.chain.from_iterable(strata)):
        if part in placed:
            continue
        if sum(part) < 2:
            tables, rows = [part], {0: np.eye(1, sum(part) + 1, dtype=np.int64)}
        else:
            tables = _universe(*_margins(part, domain.swap), budget, cache)
            tables, rows = universes.setdefault(id(tables), (tables, {}))
        index = bisect.bisect_left(tables, part)
        rows.setdefault(index, None)
        placed[part] = tables, index, rows
    for tables, rows in universes.values():
        wanted = sorted(rows)
        rows.update(zip(wanted, _pair_tensor(tables, domain.swap, cache, wanted)))
    return [[(tables, index, rows[index]) for tables, index, rows in map(placed.get, parts)] for parts in strata]


def _row_laws(row: np.ndarray, rates: Sequence[Fraction], cache: dict) -> list[list[int]]:
    """Per rate, the swapper's exact law on a stratum table as integer
    numerators aligned with its universe, given its pair-count row N[i]:
    entry j is N[i, j] dotted with the rate's integer weights
    (:func:`_rate_weights`), and the numerators sum to a denominator that
    depends only on n and the rate.  Fewer than two records release the
    table itself."""
    n = row.shape[1] - 1
    if n < 2:
        return [[1]] * len(rates)
    weights, _, _ = _rate_weights(n, rates, cache)
    return (row.astype(object) @ weights).T.tolist()


def _laws(
    strata: Sequence[Sequence[tuple]], rates: Sequence[Fraction], cache: dict
) -> list[list[list[tuple[list[tuple[int, ...]], list[int]]]]]:
    """Per rate, the laws of tables given by their :func:`_stratum_rows`,
    each as its strata's ``(tables, numerators)`` (:func:`_row_laws`),
    as :func:`_pair_ratio` compares them."""
    laws = [[(tables, _row_laws(row, rates, cache)) for tables, _, row in parts] for parts in strata]
    return [[[(tables, nums[r]) for tables, nums in law] for law in laws] for r in range(len(rates))]


def _law(
    table: ContingencyTable, p: RateLike, max_permutations: int, cache: dict
) -> tuple[dict[tuple[int, ...], int], int]:
    """The swapper's exact output law on ``table`` at rate p, the product
    of its strata's laws (:func:`_laws`): integer numerators by canonical
    key, and their denominator.  The product of the universe sizes of the
    strata of at least two records is held to ``max_permutations``
    before any pair count is built."""
    rate = to_exact_rate(_unit_rate(p))
    flat = table.canonical_key()
    if rate == 0:
        return {flat: 1}, 1
    strata = _strata(flat, table.domain)
    swap = table.domain.swap
    total = math.prod(len(_universe(*_margins(part, swap), max_permutations, cache)) for part in strata if sum(part) >= 2)
    if total > max_permutations:
        raise EnumerationBudgetError(f"{total} composite tables exceed the budget of {max_permutations}")
    nums, denom = {(): 1}, 1
    [[law]] = _laws(_stratum_rows([flat], table.domain, max_permutations, cache), (rate,), cache)
    for tables, row in law:
        nums = {key + t: v * u for key, v in nums.items() for t, u in zip(tables, row) if u}
        denom *= sum(row)
    return nums, denom


def _row_ratio(us: Sequence[int], vs: Sequence[int]) -> Union[tuple[int, ...], None]:
    """The largest u/v and the largest v/u of two aligned numerator rows
    (0 off the support), each as numerator, denominator and first index
    attaining it, six ints; None when the supports differ.  Both start at
    1 at index 0; with one sum, a side stays there only if all entries
    are equal, and an entry can raise only the side it leans toward."""
    up_num = up_den = down_num = down_den = 1
    up = down = 0
    for index, u, v in zip(itertools.count(), us, vs):
        if u > v:
            if not v:
                return None
            if u * up_den > up_num * v:
                up_num, up_den, up = u, v, index
        elif u < v:
            if not u:
                return None
            if v * down_den > down_num * u:
                down_num, down_den, down = v, u, index
    return up_num, up_den, up, down_num, down_den, down


def _pair_ratio(law: Sequence, other: Sequence) -> Union[tuple[Fraction, tuple[int, ...]], None]:
    """The largest atom ratio either way round of two laws, each as its
    strata's ``(tables, row)``, and the smallest key attaining it, by the
    pair lemma over the strata's :func:`_row_ratio` (see the module
    docstring); None when the supports differ, as when a stratum's laws
    lie over different universes (one cache holds one list per universe)."""
    up_num = up_den = down_num = down_den = 1
    up = down = ()
    for (tables, us), (other_tables, vs) in zip(law, other):
        hit = _row_ratio(us, vs) if tables is other_tables else None
        if hit is None:
            return None
        n, d, i, n2, d2, i2 = hit
        up_num, up_den, up = up_num * n, up_den * d, up + tables[i]
        down_num, down_den, down = down_num * n2, down_den * d2, down + tables[i2]
    lean = up_num * down_den - down_num * up_den
    if lean < 0 or not lean and down < up:
        return Fraction(down_num, down_den), down
    return Fraction(up_num, up_den), up


def _largest_ratio(
    nums: Mapping[tuple[int, ...], int], other: Mapping[tuple[int, ...], int]
) -> Union[tuple[Fraction, tuple[int, ...]], None]:
    """:func:`max_probability_ratio` of two laws with one denominator,
    given their numerators: each atom ratio is a ratio of numerators,
    compared in key order as one row."""
    keys = sorted(nums.keys() | other.keys())
    return _pair_ratio(*([(keys, [law.get(key, 0) for key in keys])] for law in (nums, other)))


def _log_ratio(hit: Union[tuple[Fraction, object], None]) -> float:
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
    whole stratum of size >= 2.  Above p = 0, each stratum universe is
    held to ``max_permutations`` pair counts and the product of their
    sizes, the composite law's tables, to ``max_permutations`` too.
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
    flattened row-major, in lexicographic order: :func:`_matrices`, none
    when the totals differ.  The walk is cut at ``max_tables + 1``, so
    :class:`EnumerationBudgetError` is raised exactly when more than
    ``max_tables`` tables exist, before more are built.
    """
    if sum(row_sums) != sum(col_sums):
        return []
    # no list holds more than sys.maxsize items, so a larger budget never binds
    tables = list(itertools.islice(_matrices(row_sums, col_sums), max(0, min(max_tables + 1, sys.maxsize))))
    if len(tables) > max_tables:
        raise EnumerationBudgetError(f"margin-constrained tables exceed the budget of {max_tables}")
    return tables


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
    keys = table.canonical_key(), table_prime.canonical_key()
    [laws] = _laws(_stratum_rows(keys, x.domain, max_permutations, cache), (rate,), cache)
    hit = _pair_ratio(*laws)
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
    the max over pairs of multiplicative distance per unit Hamming, by
    :func:`_universe_optima` on the rows of one pair-count build per
    stratum universe (:func:`_stratum_rows`).

    Tables over different domains raise
    :class:`~permuswap.dataset.DomainMismatchError`, and tables of
    different record counts :class:`UniverseMismatchError`; tables of
    one count whose margins differ are infinitely apart.  The rate is
    checked first.  Both guards refuse before any pair count is built:
    the first table's stratum universes, each held to
    ``max_permutations`` pair counts, then the C(U, 2) pairs, which it
    bounds too.  Fewer than two distinct tables measure 0."""
    tables, rate = list(universe), to_exact_rate(_unit_rate(p))
    if not tables:
        return 0.0
    domain = tables[0].domain
    for other in tables[1:]:
        _require_same_domain(tables[0], other)
    keys = [t.canonical_key() for t in tables]
    if len(set(map(sum, keys))) > 1:
        raise UniverseMismatchError("tables of different record counts share no universe")
    cache: dict = {}
    for part in _strata(keys[0], domain):
        if sum(part) >= 2:
            _universe(*_margins(part, domain.swap), max_permutations, cache)
    pairs = math.comb(len(tables), 2)
    if pairs > max_permutations:
        raise EnumerationBudgetError(f"{pairs} table pairs exceed the budget of {max_permutations}")
    if not all(same_universe(tables[0], other) for other in tables[1:]):
        return math.inf
    # a table listed twice adds only pairs at d_Ham 0
    keys = list(dict.fromkeys(keys))
    if len(keys) < 2:
        return 0.0
    strata = _held_rows(_stratum_rows(keys, domain, max_permutations, cache))
    [(measured, _, _)], _ = _universe_optima(strata, [rate], [math.inf], cache)
    return measured


def _first_moves(strata: Sequence[tuple]) -> np.ndarray:
    """The fewest records a within-stratum permutation moves to carry
    compared table i onto table j, or -1 where none does, K x K: the first
    nonzero k of the pair counts rows[positions[i], index[j]], summed over
    the strata as :func:`_universe_optima` reads them."""
    total, reached = 0, True
    for _, held, positions, index in strata:
        moved = held != 0
        at = positions[:, None], index
        total = total + moved.argmax(axis=2)[at]
        reached = reached & moved.any(axis=2)[at]
    return np.where(reached, total, -1)


@functools.lru_cache(maxsize=1024)
def _weight_row(n: int, a: int, c: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """:func:`_stratum_weights` at n records and rate a/c, and each
    divided by the largest, correctly rounded to a float; a function of
    integers alone, held for the process."""
    weights, _ = _stratum_weights(n, Fraction(a, c))
    top = max(weights)
    return tuple(weights), tuple(w / top for w in weights)


def _rate_weights(n: int, rates: Sequence[Fraction], cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three (n + 1) x R arrays of the rates' :func:`_weight_row` at n
    records: the integer weights (object), the floats, and where each
    weight is nonzero; held in ``cache`` under ``("weights", n)`` for
    the rates they were built for, which a sweep passes for every
    stratum and a law at one rate for every table."""
    rates = tuple(rates)
    held = cache.get(("weights", n))
    if held is None or held[0] != rates:
        ints, floats = zip(*(_weight_row(n, rate.numerator, rate.denominator) for rate in rates))
        exact = np.array(ints, dtype=object).T
        held = cache["weights", n] = rates, exact, np.array(floats).T, exact != 0
    return held[1:]


def _held_rows(strata: Sequence[Sequence[tuple]]) -> list[tuple]:
    """Tables of one universe given by their :func:`_stratum_rows`, as
    :func:`_universe_optima` reads them: per stratum universe of two tables
    or more, its tables, the distinct rows held, each table's position
    among them and its index in the stratum universe."""
    held = []
    for parts in zip(*strata):
        tables = parts[0][0]
        if len(tables) > 1:
            index = np.array([index for _, index, _ in parts])
            _, firsts, positions = np.unique(index, return_index=True, return_inverse=True)
            held.append((tables, np.stack([parts[k][2] for k in firsts.tolist()]), positions, index))
    return held


def _universe_optima(
    strata: Sequence[tuple], rates: Sequence[Fraction], budgets: Sequence[float], cache: dict
) -> tuple[list[tuple[float, list[int], list[tuple[int, int, float]]]], np.ndarray]:
    """Every rate's pair checks on K >= 2 distinct tables of one universe,
    given per stratum of two tables or more ``(tables, rows, positions,
    index)``: the U tables, R rows of their :func:`_pair_tensor` N,
    R x U x (n + 1), and each table's position among the rows and index
    among the tables (a whole N passes 0..U - 1 twice); and a budget per
    rate.  Per rate: the measured optimum, the tables whose law misses
    part of the universe, and each pair i < j whose distance per unit of
    d_Ham exceeds the budget plus ``LOG_SLACK``, with its value, in pair
    order; and each pair's d_Ham, one int64, in pair order.

    Per stratum, the laws at every rate are one float product, N @ W,
    with W each rate's weights divided by its largest
    (:func:`_rate_weights`); the supports, rate by rate, are where N is
    nonzero at a k the rate weighs.  A pair whose supports differ in a
    stratum is infinitely apart.  Every other pair's float value is the
    larger of the sums over the strata of its signed largest and smallest
    log ratio, the smallest negated, per unit of d_Ham (the pair lemma),
    from one numpy scan in blocks of pairs of at most ``_SCAN_FLOATS``
    floats or one pair's U R.

    Floats are only a filter.  A stratum law below (n + 1) tiny / eps at
    an atom of its support, where underflow could reach the leading
    digits, is shaky at that rate.  Each pair with a shaky row, and each
    pair whose float lies within ``_RECHECK`` of the rate's largest float
    or of its budget plus ``LOG_SLACK``, is compared exactly by
    :func:`_pair_ratio` on the integer laws of all its strata
    (:func:`_row_laws`).  Every other float lies far inside that band of
    its exact value (see the module docstring)."""
    rows, cols = _upper(len(strata[0][2]), cache)
    # d_Ham sums over the strata the tables do not all share, each table's counts read by its
    # index there, in blocks of pairs of at most _SCAN_FLOATS counts
    counts = np.concatenate([np.asarray(tables)[index] for tables, _, _, index in strata], axis=1)
    d_ham, step = np.empty(len(rows), dtype=np.int64), max(1, _SCAN_FLOATS // counts.shape[1])
    for lo in range(0, len(rows), step):
        d_ham[lo : lo + step] = np.abs(counts[rows[lo : lo + step]] - counts[cols[lo : lo + step]]).sum(axis=1) // 2
    if not rates:
        return [], d_ham
    logs, apart, missing = [], None, [[] for _ in rates]
    for tables, held, positions, _ in strata:
        n = held.shape[2] - 1
        _, scaled, weighed = _rate_weights(n, rates, cache)
        laws = np.empty((len(held), len(tables), len(rates)))
        step = max(1, _SCAN_FLOATS // held[0].size)
        for lo in range(0, len(held), step):
            laws[lo : lo + step] = np.asarray(held[lo : lo + step] / math.factorial(n), dtype=float) @ scaled
        # a law below this may have lost its leading digits to underflow; an unsupported one is 0
        floor = (n + 1) * _TINY
        logs.append(np.log(np.maximum(laws, floor))[positions])
        if laws.min(initial=math.inf) < floor:
            # supports that differ make a pair infinitely apart, and a shaky row's
            # pairs are compared exactly; neither takes part in the largest float
            supports = (held != 0) @ weighed
            full = supports.all(axis=1)
            if apart is None:
                apart = np.zeros((len(rows), len(rates)), dtype=bool)
                shaky, lacking = np.zeros((2, len(positions), len(rates)), dtype=bool)
            for r in np.flatnonzero(~full.all(axis=0)).tolist():
                ids, _ = _first_seen(supports[:, :, r])
                apart[:, r] |= ids[positions[rows]] != ids[positions[cols]]
            lacking |= ~full[positions]
            shaky |= (supports & (laws < floor)).any(axis=1)[positions]
    values = np.empty((len(rows), len(rates)))
    step = max(1, _SCAN_FLOATS // max(log[0].size for log in logs))
    for lo in range(0, len(rows), step):
        a, b = rows[lo : lo + step], cols[lo : lo + step]
        up = down = 0.0
        for log in logs:
            block = log[a] - log[b]
            up, down = up + block.max(axis=1), down - block.min(axis=1)
        values[lo : lo + step] = np.maximum(up, down) / d_ham[lo : lo + step, None]
    if apart is None:
        top = values.max(axis=0, initial=0.0)
    else:
        missing = [np.flatnonzero(column).tolist() for column in lacking.T]
        aside = apart | shaky[rows] | shaky[cols]
        top = values.max(axis=0, initial=0.0, where=~aside)
        values[aside] = math.inf
    limits = [budget + LOG_SLACK for budget in budgets]
    # within _RECHECK of the lower of the two, relative to its size or 1
    low = np.minimum(top, limits)
    pairs, at = np.nonzero(values >= low - _RECHECK * np.maximum(abs(low), 1.0))
    measured = [0.0] * len(rates)
    exceeded: list[list[tuple[int, int, float]]] = [[] for _ in rates]
    # each rechecked table's strata as (tables, integer laws at every rate)
    exact: dict = {}
    found = zip(pairs.tolist(), rows[pairs].tolist(), cols[pairs].tolist(), at.tolist(), d_ham[pairs].tolist())
    for pair, i, j, r, distance in found:
        value = math.inf
        if apart is None or not apart[pair, r]:
            for table in {i, j} - exact.keys():
                exact[table] = [(tables, _row_laws(held[pos[table]], rates, cache)) for tables, held, pos, _ in strata]
            law = [(tables, laws[r]) for tables, laws in exact[i]]
            other = [(tables, laws[r]) for tables, laws in exact[j]]
            value = _log_ratio(_pair_ratio(law, other)) / distance
        measured[r] = max(measured[r], value)
        if value > limits[r]:
            exceeded[r].append((i, j, value))
    return list(zip(measured, missing, exceeded)), d_ham


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
    permutation moves, read off the stratum move counts, equals d_Ham,
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


def _odds_rows(inv: SwapInvariants) -> np.ndarray:
    """The strata with the structure of :func:`odds_bound_applies`."""
    small = (inv.mh.max(axis=1, initial=0) <= 1) & (inv.ms.max(axis=1, initial=0) <= 1)
    return small & (inv.stratum_sizes >= 2)


def odds_bound_applies(inv: SwapInvariants) -> bool:
    """Universe structure forcing a budget of at least ln(o): some
    stratum of size >= 2 whose margins are all 0 or 1 (no vacuous
    permutations exist there)."""
    return bool(_odds_rows(inv).any())


def _ratio_rows(inv: SwapInvariants, b: Union[int, np.ndarray]) -> np.ndarray:
    """The strata with the structure of :func:`ratio_bound_applies` at
    bound b, one bound for all strata or one per stratum."""
    # at b = 2 the two singletons already cap every margin at 1
    cap = np.maximum(np.divide(b, 2) - 1, 1)
    return (
        (b >= 2)
        & (b != 3)
        & (inv.stratum_sizes == b)
        & ((inv.mh == 1).sum(axis=1) >= 2)
        & ((inv.ms == 1).sum(axis=1) >= 2)
        & (inv.mh.max(axis=1, initial=0) <= cap)
        & (inv.ms.max(axis=1, initial=0) <= cap)
    )


def ratio_bound_applies(inv: SwapInvariants) -> bool:
    """Universe structure forcing ln(d(b)/d(b-2))/2 - ln(o): a stratum
    realizing b with two singleton hold rows and two singleton swap
    columns, and (beyond b = 2) margins small enough (<= b/2 - 1) that a
    full-stratum derangement can move every record's cell."""
    return bool(_ratio_rows(inv, invariant_stratum_bound(inv)).any())


def _stratum_flags(inv: SwapInvariants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each stratum's b, odds and ratio structure as a universe on its
    own, one array each: its :func:`invariant_stratum_bound`,
    :func:`odds_bound_applies` and :func:`ratio_bound_applies`."""
    bounds = _stratum_bounds(inv)
    return bounds, _odds_rows(inv), _ratio_rows(inv, bounds)


def _orbit_witness(
    flags: tuple[np.ndarray, np.ndarray, np.ndarray], ranks: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """For each row of ``ranks``, one universe's strata as indices into
    their :func:`_stratum_flags`: the universe's b, and for each
    condition of :func:`permuswap.budget.psa_lower_bounds` whether the
    universe exhibits its witness structure, at any rate.  b is the
    largest stratum bound, the odds structure shows in any stratum and
    the ratio structure in a stratum realizing b."""
    bounds, odds, ratio = (flag[ranks] for flag in flags)
    b = bounds.max(axis=1, initial=0)
    return b, {
        "degenerate-rate": b > 0,
        "selection-odds": odds.any(axis=1),
        "derangement-ratio": (ratio & (bounds == b[:, None])).any(axis=1),
    }


def _witness_row(witness: tuple[np.ndarray, dict[str, np.ndarray]], row: int) -> tuple[int, set[str]]:
    """Row ``row`` of an :func:`_orbit_witness`: b and the witnessed conditions."""
    b, witnessed = witness
    return int(b[row]), {condition for condition, held in witnessed.items() if held[row]}


def _universe_witness(inv: SwapInvariants) -> tuple[int, set[str]]:
    """One universe's b and witnessed conditions, from all its strata."""
    return _witness_row(_orbit_witness(_stratum_flags(inv), np.arange(len(inv.mh))[None]), 0)


def applicable_lower_bounds(inv: SwapInvariants, p: float) -> list[LowerBound]:
    """The entries of :func:`permuswap.budget.psa_lower_bounds` whose
    witness structure this universe exhibits."""
    b, witnessed = _universe_witness(inv)
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


def _lexsorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stable lexicographic sort of the rows of ``keys``: the order,
    and a mask of the sorted rows that differ from the row before them."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, starts


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An id for each row of ``keys``, equal for equal rows and numbered
    in order of first appearance, and the index of each id's first row."""
    order, starts = _lexsorted(keys)
    # the sort is stable, so each run of equal rows starts at its first row
    firsts = order[starts]
    by_first = np.argsort(firsts)
    rank = np.empty(len(firsts), dtype=np.intp)
    rank[by_first] = np.arange(len(firsts))
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = rank[np.cumsum(starts) - 1]
    return ids, firsts[by_first]


def _orbit_ids(mh: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relabelling orbit of each of U universes, given their margins
    as (U, M, H) and (U, M, S) arrays.  Each stratum's hold and swap
    margins are sorted and the distinct sorted stratum rows are ranked in
    lexicographic order; returns each universe's ranks in ascending
    order, a (U, M) array, and the (K, H + S) sorted stratum row of each
    rank.  Two universes share a row of ranks exactly when relabelling
    the hold values and the swap values of each stratum, and permuting
    the strata, carries one onto the other."""
    strata = np.concatenate((np.sort(mh, axis=2), np.sort(ms, axis=2)), axis=2)
    universes, match, width = strata.shape
    rows = strata.reshape(universes * match, width)
    order, starts = _lexsorted(rows)
    ranks = np.empty(len(rows), dtype=np.intp)
    ranks[order] = np.cumsum(starts) - 1
    return np.sort(ranks.reshape(universes, match), axis=1), rows[order[starts]]


def _table(domain: Domain, key: Sequence[int]) -> ContingencyTable:
    return ContingencyTable(np.array(key, dtype=np.int64).reshape(domain.shape))


def _bounds_at(
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]], p: float, b: int
) -> tuple[BudgetResult, list[LowerBound]]:
    """The budget and lower bounds at float rate p and bound b, computed
    once per (p, b) and held in ``bounds``."""
    if (p, b) not in bounds:
        bounds[p, b] = psa_budget(p, b), psa_lower_bounds(p, b)
    return bounds[p, b]


def _check_universe(
    keys: Sequence[tuple[int, ...]],
    domain: Domain,
    witness: tuple[int, set[str]],
    rates: Sequence[Fraction],
    floats: Sequence[float],
    max_permutations: int,
    cache: dict,
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]],
) -> tuple[UniverseCheck, list[str]]:
    """Every check :func:`dp_sweep` makes on one universe, given its
    tables' canonical keys over ``domain``, its b and witnessed
    conditions, and the rates with their floats: its summary and the
    failures it finds.  The strata are a one-stratum universe's whole
    :func:`_pair_tensor`, or the rows that the tables of a universe of
    several strata hold (:func:`_stratum_rows`), which only the sweep's
    re-check of a failing orbit reaches.  :func:`_universe_optima`
    measures every rate and gives each pair's d_Ham, which each ordered
    pair's connecting minimum (:func:`_first_moves`) must equal."""
    b, witnessed = witness
    at = [_bounds_at(bounds, p, b) for p in floats]
    budgets = [budget.epsilon for budget, _ in at]
    checked, disagree = [(0.0, [], [])] * len(rates), []
    if len(keys) > 1:
        if domain.match == 1:
            whole = np.arange(len(keys))
            strata = [(keys, _pair_tensor(keys, domain.swap, cache), whole, whole)]
        else:
            strata = _held_rows(_stratum_rows(keys, domain, max_permutations, cache))
        checked, d_ham = _universe_optima(strata, rates, budgets, cache)
        moves = _first_moves(strata)
        above, below = _upper(len(keys), cache)
        # both orders of each pair i < j first: only a failure needs the K x K listing, in order
        if (moves[above, below] != d_ham).any() or (moves[below, above] != d_ham).any():
            distances = np.zeros_like(moves)
            distances[above, below] = distances[below, above] = d_ham
            wrong = moves != distances
            np.fill_diagonal(wrong, False)
            disagree = zip(moves[wrong].tolist(), distances[wrong].tolist())
    failures: list[str] = []
    measured_by_p: dict[float, float] = {}
    budget_by_p: dict[float, float] = {}
    for rate, p, (budget, lower), (measured, missing, exceeded) in zip(rates, floats, at, checked):
        for i in missing:
            failures.append(
                f"support differs from universe at p={rate} for "
                f"{_table(domain, keys[i]).canonical_string()}"
            )
        for i, j, value in exceeded:
            failures.append(
                f"budget exceeded at p={rate}: measured {value} > "
                f"{budget.epsilon} for pair "
                f"{_table(domain, keys[i]).canonical_string()} vs "
                f"{_table(domain, keys[j]).canonical_string()}"
            )
        measured_by_p[p] = measured
        budget_by_p[p] = budget.epsilon
        for bound, condition in lower:
            if condition in witnessed and measured < bound - LOG_SLACK:
                failures.append(
                    f"lower bound violated at p={rate}: measured {measured} < "
                    f"{bound} ({condition}) in universe of "
                    f"{_table(domain, keys[0]).canonical_string()}"
                )
    for moved, distance in disagree:
        failures.append(f"connecting minimum {moved if moved >= 0 else None} disagrees with d_Ham {distance}")
    check = UniverseCheck(b=b, size=len(keys), measured=measured_by_p, budget=budget_by_p)
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
    within-stratum permutation moves between them, read off the strata's
    pair counts, equals d_Ham (which no permutation beats), so some
    permutation moving exactly d_Ham records connects the pair.

    One stratum is the unit of work (see the module docstring).  Each
    distinct sorted stratum row of hold and swap margins is checked once,
    by :func:`_check_universe` on its single-stratum universe, whose pair
    counts give its laws at every rate and its connecting minima.  A
    relabelling orbit of universes is the sorted row of its strata's
    ranks, and its results are array reductions over those ranks of the
    checked strata's measured optima (one strata x rates table), flags
    and failures: b and the measured optimum at each rate are the
    largest of its strata's, the odds structure is witnessed when any
    stratum has it and the ratio structure when a stratum has it at the
    orbit's b.  The orbit's budget and lower bounds are those at its own
    b, so the verdict assumes no monotonicity of either in b.  Each
    orbit gets one :class:`UniverseCheck`, and every member of the orbit
    shares that one object, whose dicts are not copied and must not be
    written into.  A universe is checked pair by pair, as the unreduced
    sweep would check it, when one of its orbit's strata's checks failed
    or when the orbit's optimum exceeds its budget plus ``LOG_SLACK`` or
    falls below a lower bound it witnesses; so a failing sweep lists
    each failure where it occurs.
    ``pair_checks`` and ``connecting_checks`` count the pairs covered:
    C(size, 2) per rate and size * (size - 1) per universe.

    The sweep works on count rows: every dataset is enumerated once, as
    one row of an integer matrix in the order of
    :func:`enumerate_small_datasets`, and the universes and their orbits
    are found by grouping rows and margins with one lexicographic sort
    each.  Tables are count tuples; no dataset or permutation is built.
    The rates are turned into floats once, and the budget and lower
    bounds computed once per (rate, b), both functions of the float
    rate; row polynomials, pair counts, universes and weights are shared
    through one cache.

    Every rate must lie strictly inside (0, 1), as an exact rational and
    as a float, since the budget is computed at the float: at an
    endpoint the budget is infinite and the laws are degenerate, so
    nothing is checked.  The rates must be distinct as floats, which key
    the summaries.  ``max_permutations`` holds each checked stratum
    universe of U tables of n records to its U^2 (n + 1) pair counts, and
    bounds the datasets as well: the C(cells + max_records, max_records)
    of them are counted, and refused with :class:`EnumerationBudgetError`,
    before any is enumerated.
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
    strata_of, stratum_rows = _orbit_ids(mh[firsts], ms[firsts])
    orbit_of, orbit_firsts = _first_seen(strata_of)
    # universe u's members in enumeration order: by_universe[edges[u]:edges[u + 1]]
    by_universe = np.argsort(universe_of, kind="stable")
    edges = np.searchsorted(universe_of[by_universe], np.arange(len(firsts) + 1)).tolist()
    sizes = np.diff(edges)

    cache: dict = {}
    bounds: dict[tuple[float, int], tuple[BudgetResult, list[LowerBound]]] = {}
    floats = [float(rate) for rate in rates]
    one = Domain(1, domain.hold, domain.swap)
    holds, swaps = stratum_rows[:, : domain.hold], stratum_rows[:, domain.hold :]
    flags = _stratum_flags(SwapInvariants(holds, swaps))
    own = _orbit_witness(flags, np.arange(len(stratum_rows))[:, None])
    measured, broken = [], []
    for k, (h, s) in enumerate(zip(holds.tolist(), swaps.tolist())):
        keys = _universe(tuple(h), tuple(s), max_permutations, cache)
        check, found = _check_universe(
            keys, one, _witness_row(own, k), rates, floats, max_permutations, cache, bounds
        )
        measured.append(list(check.measured.values()))
        broken.append(bool(found))

    # each orbit's strata are one row of ranks; its results reduce over them
    ranks = strata_of[orbit_firsts]
    b, witnessed = witness = _orbit_witness(flags, ranks)
    table = np.array(measured, dtype=float).reshape(len(measured), len(floats))
    optimum = table[ranks].max(axis=1, initial=0.0)
    failed = np.array(broken, dtype=bool)[ranks].any(axis=1)
    levels, level_of = np.unique(b, return_inverse=True)
    budgets = np.empty((len(levels), len(floats)))
    # an absent lower bound is -inf, which no optimum falls below
    lower = {condition: np.full_like(budgets, -math.inf) for condition in witnessed}
    for i, level in enumerate(levels.tolist()):
        for j, p in enumerate(floats):
            budget, at_level = _bounds_at(bounds, p, level)
            budgets[i, j] = budget.epsilon
            for value, condition in at_level:
                lower[condition][i, j] = value
    failed |= (optimum > budgets[level_of] + LOG_SLACK).any(axis=1)
    for condition, held in witnessed.items():
        failed |= held & (optimum < lower[condition][level_of] - LOG_SLACK).any(axis=1)
    budget_rows, sizes_of = budgets.tolist(), sizes.tolist()
    orbits = [
        UniverseCheck(b_o, sizes_of[u], dict(zip(floats, row)), dict(zip(floats, budget_rows[level])))
        for u, b_o, row, level in zip(orbit_firsts.tolist(), b.tolist(), optimum.tolist(), level_of.tolist())
    ]
    # a universe of a failing orbit is checked pair by pair, as the unreduced sweep checks it
    universes = [orbits[orbit] for orbit in orbit_of.tolist()]
    failures: list[str] = []
    for u in np.flatnonzero(failed[orbit_of]).tolist():
        keys = list(map(tuple, rows[by_universe[edges[u] : edges[u + 1]]].tolist()))
        universes[u], found = _check_universe(
            keys, domain, _witness_row(witness, orbit_of[u]), rates, floats, max_permutations, cache, bounds
        )
        failures.extend(found)
    return SweepReport(
        domain=domain,
        max_records=max_records,
        p_values=rates,
        universe_count=len(firsts),
        dataset_count=len(rows),
        pair_checks=len(rates) * int((sizes * (sizes - 1) // 2).sum()),
        connecting_checks=int((sizes * (sizes - 1)).sum()),
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

    The measured optimum is the largest over the distinct sorted strata
    of each one's universe on its own (see the module docstring), each
    of U tables of n records held to ``max_permutations`` by its
    U^2 (n + 1) pair counts; ``universe_size`` is the product of
    the strata's universe sizes.  Each distinct stratum universe's pair
    counts are built once (:func:`_pair_tensor`) and measured at every
    rate by :func:`_universe_optima`, as :func:`dp_sweep` checks a
    stratum.  At the endpoint rates
    an infinite measurement is the expected outcome (the budget is
    infinite there too); rows carry a flag so reports can mark them
    rather than fail.  A rate inside (0, 1) whose float is 0.0 or 1.0 is
    refused with ``ValueError``: its law would be computed at the
    rational but its budget at the float."""
    rates = [to_exact_rate(_unit_rate(p)) for p in p_values]
    refused = [str(rate) for rate in rates if _float_endpoint(rate)]
    if refused:
        raise ValueError(f"rates inside (0, 1) that round to 0.0 or 1.0 as floats: {', '.join(refused)}")
    inv = swap_invariants(x)
    keys = [(tuple(h), tuple(s)) for h, s in zip(*(np.sort(a, axis=1).tolist() for a in (inv.mh, inv.ms)))]
    cache: dict = {}
    strata = {key: _universe(*key, max_permutations, cache) for key in dict.fromkeys(keys)}
    size = math.prod(len(strata[key]) for key in keys)
    b = invariant_stratum_bound(inv)
    budgets = [psa_budget(float(rate), b).epsilon for rate in rates]
    optima = []
    for tables in strata.values():
        if len(tables) > 1:
            whole = np.arange(len(tables))
            stratum = tables, _pair_tensor(tables, x.domain.swap, cache), whole, whole
            checked, _ = _universe_optima([stratum], rates, budgets, cache)
            optima.append([measured for measured, _, _ in checked])
    rows = []
    for r, (rate, budget) in enumerate(zip(rates, budgets)):
        measured = max((row[r] for row in optima), default=0.0)
        passed = measured <= budget + LOG_SLACK
        rows.append(UniverseReport(b, size, float(rate), budget, measured, passed, rate in (0, 1) and b > 0))
    return rows

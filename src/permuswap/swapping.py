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
under parallel execution.  The keys of every caller (the swapper, the
utility runner and the synthesizer) are listed in the README: each key
gives exactly the stream ``np.random.default_rng(key)`` gives.  One call
derives its keys' PCG64 states in vectorized passes of up to
``_KEYS_PER_PASS`` keys (``_seed_words``, a numpy port of
``SeedSequence``) and sets one generator to each state in turn.

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
from typing import Iterator, NamedTuple, Sequence, Union

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
    return operator.index(seed) & (2**64 - 1)


# numpy's SeedSequence (numpy/random/bit_generator.pyx), vectorized over
# keys.  Each hashmix call xors with one power of MULT_A and multiplies by
# the next, in a call order fixed by the key's word count alone, so every
# constant is computed here.  The arithmetic is uint32 and wraps by design;
# the constants are numpy uint32 so that value-based casting (numpy 1) and
# NEP 50 (numpy 2) both keep it in uint32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MAX_KEY_INTS = 8
_MAX_STATE_WORDS = 8  # PCG64 takes four uint64 words
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32).reshape(-1, 1)


# calls 0-3 fill the pool; calls 4-15 mix each pool word into the other
# three (the source row gets a dummy constant and keeps its value); every
# later entropy word w takes calls 4w to 4w + 3
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 8 * _MAX_KEY_INTS + 1)
_FILL_A = (_HASH_A[0:4], _HASH_A[1:5])
_MIX_A = []
for _src in range(_POOL_SIZE):
    _calls = [4 + 3 * _src + d - (d > _src) if d != _src else 0 for d in range(_POOL_SIZE)]
    _MIX_A.append((_HASH_A[_calls], _HASH_A[[c + 1 for c in _calls]]))
del _src, _calls
# generate_state reads the pool cyclically
_CYCLE = np.arange(_MAX_STATE_WORDS) % _POOL_SIZE
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, _MAX_STATE_WORDS + 1)
# PCG64 seeding (pcg_setseq_128_srandom_r) with the default multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1
# seed keys derived per pass, which bounds the memory a pass takes
_KEYS_PER_PASS = 1 << 14


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _XSHIFT)


def _seed_words(keys: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words)`` for every row of ``keys``.

    ``keys`` is an (n, k) uint64 array, one key of k <= 8 ints per row.
    Each int enters the entropy as one uint32 word, or as two (low word
    first) when it is 2**32 or more, as numpy converts it.  Returns
    (n_words, n) uint32 words, one column per key.
    """
    n, k = keys.shape
    if k > _MAX_KEY_INTS:
        raise ValueError(f"a seed key holds at most {_MAX_KEY_INTS} ints")
    high = keys >> np.uint64(32)
    width = 1 + (high != 0)
    end = np.cumsum(width, axis=1)
    start = (end - width).T
    words = np.zeros((max(2 * k, _POOL_SIZE), n), dtype=np.uint32)
    cols = np.arange(n)
    # a one-word int's zero high word lands where the next int's low word
    # then overwrites it, or past the key's end
    words[start + 1, cols] = high.T
    words[start, cols] = keys.T
    pool = _hashmix(words[:_POOL_SIZE], _FILL_A)
    for src, consts in enumerate(_MIX_A):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(pool[src], consts)
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    length = end[:, -1]
    for w in range(_POOL_SIZE, length.max(initial=0)):
        consts = (_HASH_A[4 * w : 4 * w + 4], _HASH_A[4 * w + 1 : 4 * w + 5])
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(words[w], consts)
        mixed ^= mixed >> _XSHIFT
        pool = np.where(w < length, mixed, pool)
    return _hashmix(pool[_CYCLE[:n_words]], (_HASH_B[:n_words], _HASH_B[1 : n_words + 1]))


def _seed_uint64(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(1, np.uint64)[0]`` for every key."""
    low, high = _seed_words(keys, 2).astype(np.uint64)
    return low | high << np.uint64(32)


def _pcg64_states(keys: np.ndarray) -> list[dict]:
    """The ``PCG64.state`` that ``PCG64(key)`` leaves, for every key.

    The 128-bit step runs on Python ints, one key at a time: the state
    setter takes Python ints, and building them costs more than the
    arithmetic.
    """
    words = _seed_words(keys, _MAX_STATE_WORDS).astype(np.uint64)
    # generate_state(4, np.uint64) is seed high, seed low, inc high, inc low
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in (words[0::2] | words[1::2] << np.uint64(32)).T.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def _stream_states(seeds: np.ndarray, strata: Sequence[int]) -> Iterator[dict]:
    """The state of substream ``(seed, m)`` for each seed of the uint64
    array ``seeds`` and, within it, each stratum index ``m`` in ``strata``.

    Each pass derives up to ``_KEYS_PER_PASS`` states at once.
    """
    strata = np.asarray(strata, dtype=np.uint64)
    total = len(seeds) * len(strata)
    for lo in range(0, total, _KEYS_PER_PASS):
        seed_index, stratum_index = np.divmod(np.arange(lo, min(lo + _KEYS_PER_PASS, total)), len(strata))
        yield from _pcg64_states(np.stack((seeds[seed_index], strata[stratum_index]), axis=1))


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


def _active_strata(bounds: Sequence[int]) -> list[int]:
    """The strata of at least two records, the only ones that draw."""
    return [m for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi - lo >= 2]


def _draw_mapping(
    spans: tuple[np.ndarray, Sequence[int]],
    strata: Sequence[int],
    p: float,
    states: Iterator[dict],
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """The swapper's draws over the stratum spans of ``stratum_order``.

    ``strata`` is ``_active_strata(bounds)``.  ``states`` yields each
    stratum's substream state in turn (see ``_stream_states``), and the
    PCG64 ``rng`` is set to it before the stratum's draws; ``states`` may
    run on into later calls.  Returns the position mapping (position i
    takes the swap value of position ``mapping[i]``), the records
    selected and the selection redraws.  ``p`` must already be validated.
    """
    order, bounds = spans
    mapping = np.arange(len(order))
    selected = retries = 0
    bit_generator = rng.bit_generator
    # zip takes the stratum first, so it takes no state past the last one
    for m, state in zip(strata, states):
        bit_generator.state = state
        lo, hi = bounds[m], bounds[m + 1]
        hits, redraws = _select(hi - lo, p, rng)
        selected += len(hits)
        retries += redraws
        chosen = order[lo:hi][hits]
        mapping[chosen] = chosen[_derange(len(hits), rng)]
    return mapping, selected, retries


def _stream_generator() -> np.random.Generator:
    # the seed is never drawn from: each stratum sets its own state first
    return np.random.Generator(np.random.PCG64(0))


def run_psa_details(x: Dataset, params: PsaParams) -> SwapRun:
    """Run the swapper and keep the realized permutation and rates."""
    n = len(x)
    m, h, s = x.codes.T
    spans = stratum_order(x)
    strata = _active_strata(spans[1])
    states = _stream_states(np.array([_normalized_seed(params.seed)], dtype=np.uint64), strata)
    mapping, selected, retries = _draw_mapping(spans, strata, params.p, states, _stream_generator())
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

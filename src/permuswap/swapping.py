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
gives exactly the stream ``np.random.default_rng(key)`` gives.  Seeds
wrap to 64 bits once, where they enter (the seed of
:func:`run_psa_details` and of the synthesizer, and the prefix of
``_replication_seeds``); from there on the run seeds travel as uint64
arrays.  The keys' PCG64 states are derived in vectorized passes of up
to ``_KEYS_PER_PASS`` keys: ``_seed_words`` is a numpy port
of ``SeedSequence``, and ``_pcg64_seeded`` the PCG64 seeding on 128-bit
values held as hi/lo uint64 arrays.  From there a key draws one of two
ways:

- on a seated generator: ``_substreams`` sets one generator to each
  key's state in turn; the synthesizer draws only this way, small
  strata as raw words (see :mod:`permuswap.synth`);
- on the kernel: ``_draw_many`` runs the swapper's selection and
  derangement for many keys at once in the same hi/lo arrays,
  reproducing ``Generator.random`` and ``Generator.permutation``
  (see ``_select_many`` and ``_derange_many``).  A key that selects
  two records takes their swap, the one derangement of two records,
  without drawing it: nothing reads a key's stream after its
  derangement.

The utility runner's replication seeds come from ``_replication_seeds``
as one uint64 array per pass of ``_KEYS_PER_PASS`` keys.

Derangements are sampled by rejection from uniform permutations of the
selected set (accept iff no fixed point, expected < e retries), which
is exactly uniform over derangements.

The swapper works on the columnar ``Dataset.codes`` array: strata come
from one stable argsort of the match column, each stratum's draws fill
a numpy position mapping, and the output table is counted directly
from the columns ``(m, h, s[mapping])``.  No per-record object is built
and no swapped :class:`Dataset` is materialized; only
:func:`apply_permutation` builds one, for callers that want it.

The draws themselves are one call, ``_draw_mapping``, over the stratum
spans of :func:`~permuswap.dataset.stratum_order` and a uint64 array of
run seeds.  It dispatches a stratum on its size alone: a stratum of at most
``_KERNEL_MAX_RECORDS`` records draws on the kernel, and every larger
one on a seated generator.
:func:`run_psa_details` is that call for one seed plus the output table;
the utility runner computes the spans once per dataset and makes the
same call for a block of replications at a time, so both realize the
same permutation for the same seed.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .budget import RateLike, _unit_rate, derangement_count, to_exact_rate
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
]


@dataclass(frozen=True)
class PsaParams:
    """Swap-selection probability and the 64-bit run seed."""

    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(_unit_rate(self.p)))
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


# PCG64 (numpy/random/src/pcg64) on 128-bit values held as hi/lo uint64
# arrays, so that many substreams draw at once.  A step is
# state = state * _PCG_MULT + inc mod 2**128, and an output is the XSL-RR
# of the new state, rotr64(hi ^ lo, hi >> 58).  Products wrap mod 2**64 by
# design; the high word of lo * lo' is summed from 32-bit limbs.  Every
# operand is a uint64 array or numpy scalar, never a Python int or an
# int64 array, so value-based casting (numpy 1) and NEP 50 (numpy 2) both
# keep the arithmetic in uint64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)


def _words128(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    cross = a1 * b0 + (a0 * b0 >> _U32)
    mid = a0 * b1 + (cross & _LOW32)
    carry = a1 * b1 + (cross >> _U32) + (mid >> _U32)
    return a_hi * b_lo + a_lo * b_hi + carry, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    word = hi ^ lo
    turn = hi >> _U58
    return word >> turn | word << (_U64 - turn & _U63)


def _pcg64_seeded(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """State and increment (hi, lo, inc hi, inc lo) of ``PCG64(key)`` for
    every key."""
    words = _seed_words(keys, _MAX_STATE_WORDS).astype(np.uint64)
    # generate_state(4, np.uint64) is seed high, seed low, seq high, seq low;
    # pcg_setseq_128_srandom_r sets inc = seq << 1 | 1 and steps from seed + inc
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | words[1::2] << _U32
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    return (*_jump((*_add128(seed_hi, seed_lo, inc_hi, inc_lo), inc_hi, inc_lo), 1), inc_hi, inc_lo)


def _pcg64_dicts(*words: np.ndarray) -> list[dict]:
    """``PCG64.state`` dicts, no half buffered, from (hi, lo, inc hi, inc lo)."""
    return [
        {"bit_generator": "PCG64", "state": {"state": h << 64 | l, "inc": ih << 64 | il}, "has_uint32": 0, "uinteger": 0}
        for h, l, ih, il in zip(*(w.tolist() for w in words))
    ]


def _pcg64_states(keys: np.ndarray) -> list[dict]:
    """The ``PCG64.state`` that ``PCG64(key)`` leaves, for every key."""
    return _pcg64_dicts(*_pcg64_seeded(keys))


# The swapper's draws for many keys at once (see _draw_mapping), for
# strata of at most _KERNEL_MAX_RECORDS records: the width of the tables
# below.
_KERNEL_MAX_RECORDS = 64
# 64-bit outputs _derange_many draws per key at a time; finished keys
# drop out between refills
_OUTPUTS_PER_REFILL = 8
# _derange_many hands its keys to a seated generator once fewer than this
# many times the widest derangement's size are left.  Timed on strata of
# 2-32 records at p = 0.5 and 0.9 with 32-256 keys, 4 and 8 ran fastest;
# 0.5 and 1 ran up to 1.8 times slower.
_HANDOFF = 4
# A selection round of at least this many live keys steps them together
# (_stepped_round) rather than jumping each key to every output
# (_jumped_round): a step costs about 35 numpy calls per column, which
# only enough keys pay for.  Stepped time over jumped time per round
# (Python 3.11, numpy 2.4, 2-vCPU VM; strata of 2, 8, 16, 32, 50 and 64
# records and of mixed 2-16 and 2-64 records, three runs): at 512 keys
# 0.54-2.81 (8 records and mixed sizes lose), at 768 keys 0.33-1.01, at
# 1,024 keys 0.33-0.86.
_STEP_MIN_KEYS = 768
_MASK128 = 2**128 - 1


def _jump_table(count: int) -> tuple[np.ndarray, ...]:
    """For j <= count: j steps from a state s leave MULT**j * s +
    (1 + MULT + ... + MULT**(j-1)) * inc, as (mult hi, mult lo, add hi,
    add lo)."""
    mult, add = [1], [0]
    for _ in range(count):
        mult.append(mult[-1] * _PCG_MULT & _MASK128)
        add.append((add[-1] * _PCG_MULT + 1) & _MASK128)
    return (*_words128(mult), *_words128(add))


_JUMPS = _jump_table(max(_KERNEL_MAX_RECORDS, _OUTPUTS_PER_REFILL))
# random_interval(i) keeps a 32-bit draw u when u & mask <= i, mask being
# the smallest all-ones mask >= i
_INTERVAL_MASKS = np.array([(1 << i.bit_length()) - 1 for i in range(_KERNEL_MAX_RECORDS)], dtype=np.int64)


def _jump(state: tuple[np.ndarray, ...], ahead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state ``ahead`` steps on from ``state`` (hi, lo, inc hi, inc lo);
    the arrays broadcast."""
    hi, lo, inc_hi, inc_lo = state
    mult_hi, mult_lo, add_hi, add_lo = (table[ahead] for table in _JUMPS)
    return _add128(*_mul128(hi, lo, mult_hi, mult_lo), *_mul128(inc_hi, inc_lo, add_hi, add_lo))


def _jumped_round(state: tuple[np.ndarray, ...], n: np.ndarray, threshold: np.uint64):
    """One selection round that jumps every key to all n of its outputs
    at once.  Returns the hits' rows and positions and the states after
    each key's n outputs."""
    ends = np.cumsum(n)
    row = np.repeat(np.arange(len(n)), n)
    position = np.arange(ends[-1]) - (ends - n)[row]
    out_hi, out_lo = _jump(tuple(a[row] for a in state), position + 1)
    hit = _xsl_rr(out_hi, out_lo) >> _U11 < threshold
    return row[hit], position[hit], out_hi[ends - 1], out_lo[ends - 1]


def _stepped_round(state: tuple[np.ndarray, ...], n: np.ndarray, threshold: np.uint64):
    """``_jumped_round`` by single PCG64 steps, one column of outputs per
    step.  ``n`` must be in descending order: the keys still inside their
    round at a column are then a prefix of the rows, and the keys whose
    round ends there the tail of that prefix."""
    hi, lo, inc_hi, inc_lo = state
    width = int(n[0])
    # inside[c] keys have more than c outputs
    inside = np.searchsorted(-n, -np.arange(width + 1)).tolist()
    hit = np.zeros((width, len(n)), dtype=bool)
    end_hi, end_lo = np.empty_like(hi), np.empty_like(lo)
    for c in range(width):
        k, after = inside[c], inside[c + 1]
        hi, lo = _add128(*_mul128(hi[:k], lo[:k], _MULT_HI, _MULT_LO), inc_hi[:k], inc_lo[:k])
        hit[c, :k] = _xsl_rr(hi, lo) >> _U11 < threshold
        end_hi[after:k], end_lo[after:k] = hi[after:], lo[after:]
    position, row = hit.nonzero()
    return row, position, end_hi, end_lo


def _select_many(state: tuple[np.ndarray, ...], sizes: np.ndarray, p: float):
    """``_select`` for every key: ``Generator.random(n) < p`` is
    ``(next64 >> 11) * 2**-53 < p`` on n consecutive outputs, redrawn
    while exactly one is a hit.

    ``state`` is (hi, lo, inc hi, inc lo) per key and ``sizes`` the
    stratum sizes (each >= 2).  A round of at least ``_STEP_MIN_KEYS``
    live keys steps them together (``_stepped_round``); a smaller one
    jumps each key to its outputs (``_jumped_round``).  Returns the hits'
    keys and positions, sorted by key and then position, the hits and the
    redraws per key, and the states after the accepted round.
    """
    # keys in descending size, as _stepped_round takes them
    live = np.argsort(-sizes, kind="stable")
    hi, lo, inc_hi, inc_lo = (a[live] for a in state)
    # (u >> 11) * 2**-53 < p exactly when u >> 11 < ceil(p * 2**53)
    threshold = np.uint64(math.ceil(p * 2.0**53))
    found = np.zeros(len(sizes), dtype=np.intp)
    redraws = np.zeros(len(sizes), dtype=np.intp)
    end_hi, end_lo = np.empty_like(hi), np.empty_like(lo)
    hit_keys, hit_positions = [], []
    while len(live):
        draw_round = _stepped_round if len(live) >= _STEP_MIN_KEYS else _jumped_round
        row, position, hi, lo = draw_round((hi, lo, inc_hi, inc_lo), sizes[live], threshold)
        hits = np.bincount(row, minlength=len(live))
        accept = hits != 1
        keys = live[accept]
        found[keys] = hits[accept]
        end_hi[keys], end_lo[keys] = hi[accept], lo[accept]
        taken = accept[row]
        hit_keys.append(live[row[taken]])
        hit_positions.append(position[taken])
        retry = ~accept
        live, hi, lo, inc_hi, inc_lo = live[retry], hi[retry], lo[retry], inc_hi[retry], inc_lo[retry]
        redraws[live] += 1
    hit_keys = np.concatenate(hit_keys)
    order = np.argsort(hit_keys, kind="stable")
    return hit_keys[order], np.concatenate(hit_positions)[order], found, redraws, (end_hi, end_lo)


def _derange_many(state: tuple[np.ndarray, ...], sizes: np.ndarray) -> np.ndarray:
    """``_derange`` for every key, in lockstep: each unfinished key takes
    one 32-bit draw per iteration.

    ``Generator.permutation(k)`` shuffles ``arange(k)`` by Fisher-Yates
    from i = k - 1 down to 1, swapping i with ``random_interval(i)``.
    A 32-bit draw is the low half of a fresh 64-bit output, then its
    buffered high half; the buffer carries over into a redrawn shuffle.
    Every key starts with an empty buffer, as the selection draws 64-bit
    outputs only, so all keys take the same half at each iteration, and
    the draws come ``_OUTPUTS_PER_REFILL`` outputs at a time.  Finished
    keys drop out when the draws are refilled.  ``sizes`` are each >= 3:
    ``_draw_many`` swaps a pair itself.  Returns one row per key whose
    first ``size`` entries are its derangement.
    """
    hi, lo, inc_hi, inc_lo = state
    cols = np.arange(sizes.max())
    fresh = np.where(cols < sizes[:, None], cols, -1)
    out = np.empty_like(fresh)
    perm = fresh.copy()
    key = np.arange(len(sizes))
    top = sizes - 1  # the position a row's shuffle fills next; -1 once finished
    # a position is final once filled, so a fixed point shows when it is
    fixed = np.zeros(len(sizes), dtype=bool)
    ahead = np.arange(1, _OUTPUTS_PER_REFILL + 1)
    remaining = len(sizes)
    while True:
        keep = top >= 0
        key, hi, lo, inc_hi, inc_lo, fresh, perm, top, fixed = (
            a[keep] for a in (key, hi, lo, inc_hi, inc_lo, fresh, perm, top, fixed)
        )
        if len(key) < _HANDOFF * len(cols):
            # Too few keys left to pay for a lockstep pass.  No half is
            # buffered here, and shuffling the unfilled prefix of a row is
            # the rest of its shuffle; each key finishes on a seated generator.
            rng = np.random.Generator(np.random.PCG64(0))
            for k, row, last, state in zip(key.tolist(), perm, top.tolist(), _pcg64_dicts(hi, lo, inc_hi, inc_lo)):
                rng.bit_generator.state = state
                rng.shuffle(row[: last + 1])
                if (row == cols).any():
                    row[: sizes[k]] = _derange(sizes[k], rng)
                out[k] = row
            return out
        words_hi, words_lo = _jump((hi[:, None], lo[:, None], inc_hi[:, None], inc_lo[:, None]), ahead)
        hi, lo = words_hi[:, -1], words_lo[:, -1]
        words = _xsl_rr(words_hi, words_lo)
        draws = np.stack((words & _LOW32, words >> _U32), axis=-1).reshape(len(key), -1).astype(np.int64)
        for value in draws.T:
            pick = value & _INTERVAL_MASKS[top]
            rows = np.flatnonzero(pick <= top)
            at, to = top[rows], pick[rows]
            moved = perm[rows, to]
            perm[rows, to] = perm[rows, at]
            perm[rows, at] = moved
            fixed[rows] |= moved == at
            top[rows] = at - 1
            done = rows[at == 1]
            if not len(done):
                continue
            again = fixed[done] | (perm[done, 0] == 0)
            again, finished = done[again], done[~again]
            perm[again] = fresh[again]
            fixed[again] = False
            top[again] = sizes[key[again]] - 1
            out[key[finished]] = perm[finished]
            top[finished] = -1
            remaining -= len(finished)
            if not remaining:
                return out


def _draw_many(keys: np.ndarray, sizes: np.ndarray, p: float):
    """The swapper's draws for many keys, bit-identical to ``_select`` and
    then ``_derange`` on ``np.random.default_rng(key)`` for each key.

    A key with two hits takes their swap, the one derangement of two
    records, without drawing it: no key's stream is read after its
    derangement, so the draws ``_derange`` would make there change
    nothing.  Keys with three or more hits draw on ``_derange_many``.
    Returns the hits' keys and positions (sorted by key, then position),
    for each hit the index of the hit whose swap value it takes, and the
    hits and the selection redraws per key.
    """
    state = _pcg64_seeded(keys)
    hit_key, hit_position, found, redraws, end = _select_many(state, sizes, p)
    first = (np.cumsum(found) - found)[hit_key]
    local = np.arange(len(hit_key)) - first
    # hit 0 of a pair takes hit 1 and hit 1 takes hit 0
    target = 1 - local
    deranged = np.flatnonzero(found >= 3)
    if len(deranged):
        perms = _derange_many((*(a[deranged] for a in end), *(a[deranged] for a in state[2:])), found[deranged])
        row = np.empty(len(found), dtype=np.intp)
        row[deranged] = np.arange(len(deranged))
        wide = found[hit_key] >= 3
        target[wide] = perms[row[hit_key[wide]], local[wide]]
    return hit_key, hit_position, first + target, found, redraws


def _substreams(seeds: np.ndarray, strata: Sequence[int]) -> Iterator[np.random.Generator]:
    """Substream ``(seed, m)`` for each of ``seeds``, a uint64 array of
    normalized seeds, and, within it, each stratum index ``m`` in
    ``strata``.

    Every item is the same PCG64 generator, set to the substream's state
    as it is yielded.  The seeds' type is checked on the call.  States
    are derived as the items are used, in passes of at most
    ``_KEYS_PER_PASS`` keys.
    """
    seeds = np.asarray(seeds)
    if seeds.dtype != np.uint64:
        # any other array would mix with the uint64 strata into floats
        raise TypeError(f"seeds must be a uint64 array, not {seeds.dtype}")
    strata = np.asarray(strata, dtype=np.uint64)
    keys = np.column_stack((seeds.repeat(len(strata)), np.tile(strata, len(seeds))))

    def seated() -> Iterator[np.random.Generator]:
        # never drawn from before a state is set
        rng = np.random.Generator(np.random.PCG64(0))
        for lo in range(0, len(keys), _KEYS_PER_PASS):
            for state in _pcg64_states(keys[lo : lo + _KEYS_PER_PASS]):
                rng.bit_generator.state = state
                yield rng

    return seated()


def _replication_seeds(seed: int, rate_index: int, reps: int) -> Iterator[np.ndarray]:
    """The utility runner's replication seeds: the first uint64 word of
    key ``(seed, rate_index, r)`` for r < ``reps``, as uint64 arrays of at
    most ``_KEYS_PER_PASS`` seeds, one per pass."""
    prefix = np.array([_normalized_seed(seed), rate_index], dtype=np.uint64)
    for first in range(0, reps, _KEYS_PER_PASS):
        rows = np.arange(first, min(first + _KEYS_PER_PASS, reps), dtype=np.uint64)
        keys = np.column_stack((np.broadcast_to(prefix, (len(rows), 2)), rows))
        yield _seed_uint64(keys)


class Permutation:
    """A bijection g on record positions; position i takes the swap
    value of position g(i).

    The derangement count |{i : g(i) != i}| of a bijection is never 1,
    which is exactly the constraint the selection stage enforces.

    The checked entries are kept as one read-only int64 array, which
    equality, hashing, ``derange_count`` and :func:`apply_permutation`
    read.  ``mapping``, the same entries as a tuple of Python ints, is
    built on its first read.  A 1-D numpy integer array is checked as it
    is; any other input is read entry by entry, and an entry that is not
    an integer raises ``TypeError``.
    """

    __slots__ = ("_positions", "_mapping")

    def __init__(self, mapping: Union[Sequence[int], np.ndarray]) -> None:
        positions, entries = mapping, None
        if not (isinstance(positions, np.ndarray) and positions.ndim == 1 and positions.dtype.kind in "iu"):
            entries = tuple(map(operator.index, positions))
            try:
                positions = np.array(entries, dtype=np.int64)
            except OverflowError:  # past int64, so no record's position
                raise ValueError("mapping is not a bijection on record positions") from None
        n = len(positions)
        # n entries in [0, n), none of them twice
        if n and (
            positions.min() < 0
            or positions.max() >= n
            or np.bincount(positions.astype(np.intp), minlength=n).max() > 1
        ):
            raise ValueError("mapping is not a bijection on record positions")
        positions = positions.astype(np.int64, copy=entries is None)
        positions.flags.writeable = False
        self._positions = positions
        self._mapping = entries

    @property
    def mapping(self) -> tuple[int, ...]:
        if self._mapping is None:
            self._mapping = tuple(self._positions.tolist())
        return self._mapping

    def __len__(self) -> int:
        return len(self._positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return bool(np.array_equal(self._positions, other._positions))

    def __hash__(self) -> int:
        return hash(self._positions.tobytes())

    def __repr__(self) -> str:
        return f"Permutation(mapping={self.mapping!r})"

    @property
    def derange_count(self) -> int:
        return int(np.count_nonzero(self._positions != np.arange(len(self._positions))))

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
    codes[:, 2] = x.codes[perm._positions, 2]
    return Dataset._from_codes(codes, x.domain, x.schema)


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
    stratum_size: int, p: RateLike, rng: np.random.Generator
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
    hits, retries = _select(n, float(_unit_rate(p)), rng)
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
    seeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The swapper's draws over the stratum spans of ``stratum_order``,
    once for each of ``seeds``, a uint64 array of normalized seeds.

    ``strata`` is ``_active_strata(bounds)``; stratum m of run r draws
    from substream ``(seeds[r], m)``.  The keys of strata of at most
    ``_KERNEL_MAX_RECORDS`` records draw through ``_draw_many``, in
    passes of at most ``_KEYS_PER_PASS`` keys; every other key draws on
    a seated generator from ``_substreams``.  Returns one position
    mapping per run (position i takes the swap value of position
    ``mapping[i]``), and the records selected and the selection redraws
    per run.  ``p`` must already be validated.
    """
    order, bounds = spans
    mappings = np.broadcast_to(np.arange(len(order)), (len(seeds), len(order))).copy()
    selected, retries = [0] * len(seeds), [0] * len(seeds)
    strata = np.asarray(strata, dtype=np.intp)
    starts, sizes = np.asarray(bounds[:-1])[strata], np.diff(bounds)[strata]
    batched = sizes <= _KERNEL_MAX_RECORDS
    looped = strata[~batched].tolist()
    if looped:
        streams = _substreams(seeds, looped)
        for r, mapping in enumerate(mappings):
            # zip takes the stratum first, so it takes no stream past the run's last
            for m, rng in zip(looped, streams):
                lo, hi = bounds[m], bounds[m + 1]
                hits, redraws = _select(hi - lo, p, rng)
                selected[r] += len(hits)
                retries[r] += redraws
                chosen = order[lo:hi][hits]
                mapping[chosen] = chosen[_derange(len(hits), rng)]
    selected, retries = np.array(selected, dtype=np.intp), np.array(retries, dtype=np.intp)
    if not batched.any():
        return mappings, selected, retries
    starts, sizes, batched = starts[batched], sizes[batched], strata[batched].astype(np.uint64)
    count = len(seeds) * len(batched)
    for first in range(0, count, _KEYS_PER_PASS):
        run, column = np.divmod(np.arange(first, min(first + _KEYS_PER_PASS, count)), len(batched))
        keys = np.column_stack((seeds[run], batched[column]))
        hit_key, hit_position, source, found, redraws = _draw_many(keys, sizes[column], p)
        hit_run = run[hit_key]
        chosen = order[starts[column[hit_key]] + hit_position]
        mappings[hit_run, chosen] = chosen[source]
        selected += np.bincount(hit_run, minlength=len(seeds))
        retries += np.bincount(run, weights=redraws, minlength=len(seeds)).astype(np.intp)
    return mappings, selected, retries


def run_psa_details(x: Dataset, params: PsaParams) -> SwapRun:
    """Run the swapper and keep the realized permutation and rates."""
    n = len(x)
    m, h, s = x.codes.T
    spans = stratum_order(x)
    seeds = np.array([_normalized_seed(params.seed)], dtype=np.uint64)
    mappings, selected, retries = _draw_mapping(spans, _active_strata(spans[1]), params.p, seeds)
    mapping, selected, retries = mappings[0], int(selected[0]), int(retries[0])
    swapped = s[mapping]
    changed = int(np.count_nonzero(swapped != s))
    return SwapRun(
        table=tabulate_columns(m, h, swapped, x.domain),
        permutation=Permutation(mapping),
        selected_count=selected,
        selection_retries=retries,
        raw_selection_rate=selected / n if n else 0.0,
        effective_swap_rate=changed / n if n else 0.0,
    )


def run_psa(x: Dataset, params: PsaParams) -> ContingencyTable:
    """Release the saturated contingency table of the swapped dataset."""
    return run_psa_details(x, params).table

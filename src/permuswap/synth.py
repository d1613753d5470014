"""Synthetic categorical microdata with a controllable stratum bound.

Each stratum spec becomes one match category.  A *mixed* stratum of
size >= 2 is guaranteed to contain two records with different
(hold, swap) values, so it counts toward the stratum bound b; a
*constant* stratum holds identical records and never does, no matter
how large.  The largest mixed stratum therefore pins b exactly.

Stratum m draws from the substream keyed (seed, m), the stream
``np.random.default_rng(key)`` gives, through the swapper's
``_substreams``; so output is a pure function of (specs, domain sizes,
seed).  Labels are zero-padded, which makes written CSVs
round-trip through ingestion (inferred category order is
lexicographic, and zero-padded labels sort like their indices).

A mixed stratum of n records draws ``integers(0, H, n)`` then
``integers(0, S, n)``, and a constant one ``integers(0, H)`` then
``integers(0, S)``.  For a level count 2 <= k <= 2**32, numpy draws
each such value from one 32-bit half of the generator's 64-bit
outputs, low half first, with the half left over carried to the next
call; a level count of 1 draws nothing.  So a stratum of at most
``_RAW_MAX_RECORDS`` records takes just the raw words its draws need
(``random_raw``), and numpy's bounded transform (:func:`_bounded`) then
runs over the halves of all such strata at once.  A stratum whose
halves hold a rejected one (numpy would draw past it), a larger
stratum, and every stratum when a level count is past 2**32, draw with
``Generator.integers`` itself.
"""

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetSchema, Domain
from .ingest import default_axis_labels
from .swapping import _normalized_seed, _substreams

__all__ = ["StratumSpec", "synthesize"]

# A stratum of at most this many records draws raw words.  The bound
# comes from timing synthesize on 200 mixed strata of one size, H, S =
# 2, 14, with every stratum on raw words and with every one on
# Generator.integers (Python 3.11, numpy 2.4, 2-vCPU VM).  Raw words over
# integers, at 32 / 128 / 256 / 384 / 448 / 512 / 768 / 1,024 records:
# 0.38 / 0.63 / 0.76 / 0.88 / 0.94 / 1.03 / 1.25 / 1.44; at 4,000,000
# records a stratum (8 strata), 2.0.
_RAW_MAX_RECORDS = 448
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class StratumSpec:
    size: int
    mixed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 0:
            raise ValueError("stratum size must be non-negative")


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of 64-bit words, each word's low half first."""
    return words.astype("<u8", copy=False).view("<u4")


def _bounded(halves: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded transform of 32-bit halves to ``integers(0, k)``,
    for 2 <= k <= 2**32 (Lemire's method): half u gives ``(u * k) >> 32``,
    and numpy rejects it, drawing the next half instead, when
    ``(u * k) mod 2**32 < 2**32 mod k``.  Returns the values and the
    rejected mask."""
    product = np.multiply(halves, np.uint64(k), dtype=np.uint64)
    rejected = _halves(product)[0::2] < (1 << 32) % k
    product >>= np.uint64(32)
    return product.view(np.int64), rejected


def _draw(rng: np.random.Generator, spec: StratumSpec, hold_levels: int, swap_levels: int, rows: np.ndarray) -> None:
    """Fill the hold and swap codes of one stratum's ``rows`` with ``Generator.integers``."""
    size = spec.size if spec.mixed else None
    rows[:, 1] = rng.integers(0, hold_levels, size=size)
    rows[:, 2] = rng.integers(0, swap_levels, size=size)


def synthesize(
    strata: Sequence[StratumSpec],
    hold_levels: int,
    swap_levels: int,
    seed: int = 0,
) -> Dataset:
    """Generate one record stream per stratum spec."""
    if hold_levels < 1 or swap_levels < 1:
        raise ValueError("hold and swap axes need at least one level")
    # sizes are non-negative, so a total that fits int64 bounds each size too
    total = sum(spec.size for spec in strata)
    if total > _INT64_MAX:
        raise ValueError(f"strata: {total} records in all, more than int64 holds ({_INT64_MAX})")
    seeds = np.array([_normalized_seed(seed)], dtype=np.uint64)
    streams = _substreams(seeds, range(len(strata)))
    sizes = np.fromiter((spec.size for spec in strata), dtype=np.int64, count=len(strata))
    mixed = np.fromiter((spec.mixed for spec in strata), dtype=bool, count=len(strata))
    # strata that must stay mixed
    mixable = mixed & (sizes >= 2)
    if hold_levels * swap_levels < 2 and mixable.any():
        raise ValueError("a mixed stratum of size >= 2 needs at least two (hold, swap) cells")
    ends = sizes.cumsum()
    starts = ends - sizes
    try:
        codes = np.empty((total, 3), dtype=np.int64)
    except (MemoryError, ValueError):  # ValueError: more bytes than numpy can index
        raise ValueError(f"strata: {total} records need {total * 3 * 8} bytes, more than can be allocated") from None
    codes[:, 0] = np.arange(len(strata)).repeat(sizes)

    # halves per axis that draws: one per record, or one for a constant stratum
    per_axis = np.where(mixed, sizes, 1)
    drawing = (hold_levels > 1) + (swap_levels > 1)
    raw = (sizes <= _RAW_MAX_RECORDS) & (max(hold_levels, swap_levels) <= 1 << 32)
    words = np.where(raw, (per_axis * drawing + 1) // 2, 0)
    draws = []
    for m, (rng, in_raw, n_words) in enumerate(zip(streams, raw.tolist(), words.tolist())):
        if not in_raw:
            _draw(rng, strata[m], hold_levels, swap_levels, codes[starts[m] : ends[m]])
        elif n_words:
            draws.append(rng.bit_generator.random_raw(n_words))

    # the records of raw strata, and the half each one's hold draw takes
    rows = raw.repeat(sizes) if not raw.all() else slice(None)
    raw_sizes = sizes[raw]
    first_half = 2 * (words[raw].cumsum() - words[raw])
    step = mixed[raw].repeat(raw_sizes)
    half = np.arange(len(step)) - (raw_sizes.cumsum() - raw_sizes).repeat(raw_sizes)
    half *= step
    half += first_half.repeat(raw_sizes)
    halves = _halves(np.concatenate(draws)) if draws else np.zeros(0, np.uint32)
    rejected = np.zeros(len(half), bool)
    for axis, k in ((1, hold_levels), (2, swap_levels)):
        if k == 1:
            codes[rows, axis] = 0
            continue
        values, bad = _bounded(halves[half], k)
        codes[rows, axis] = values
        rejected |= bad
        # the swap draws follow the hold draws
        half += per_axis[raw].repeat(raw_sizes)
    if rejected.any():
        redraw = np.unique(codes[rows, 0][rejected]).tolist()
        for m, rng in zip(redraw, _substreams(seeds, redraw)):
            _draw(rng, strata[m], hold_levels, swap_levels, codes[starts[m] : ends[m]])

    # force one differing record into each mixed stratum of identical records
    hold, swap = codes[:, 1], codes[:, 2]
    # changes[i] counts the records j < i that differ from record j + 1
    changes = np.zeros(len(codes), dtype=np.int64)
    np.cumsum((hold[1:] != hold[:-1]) | (swap[1:] != swap[:-1]), out=changes[1:])
    (fix,) = mixable.nonzero()
    fix = starts[fix[changes[ends[fix] - 1] == changes[starts[fix]]]] + 1
    axis, k = (2, swap_levels) if swap_levels > 1 else (1, hold_levels)
    codes[fix, axis] += 1
    codes[fix, axis] %= k

    domain = Domain(len(strata), hold_levels, swap_levels)
    schema = DatasetSchema(
        match_columns=("match",),
        hold_columns=("hold",),
        swap_columns=("swap",),
        match_labels=default_axis_labels("m", domain.match),
        hold_labels=default_axis_labels("h", domain.hold),
        swap_labels=default_axis_labels("s", domain.swap),
    )
    return Dataset._from_codes(codes, domain, schema)

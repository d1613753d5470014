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
"""

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetSchema, Domain
from .ingest import default_axis_labels
from .swapping import _substreams

__all__ = ["StratumSpec", "synthesize"]


@dataclass(frozen=True)
class StratumSpec:
    size: int
    mixed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 0:
            raise ValueError("stratum size must be non-negative")


def synthesize(
    strata: Sequence[StratumSpec],
    hold_levels: int,
    swap_levels: int,
    seed: int = 0,
) -> Dataset:
    """Generate one record stream per stratum spec."""
    if hold_levels < 1 or swap_levels < 1:
        raise ValueError("hold and swap axes need at least one level")
    blocks: list[np.ndarray] = []
    streams = _substreams([seed], range(len(strata)))
    for m, (spec, rng) in enumerate(zip(strata, streams)):
        if spec.mixed:
            hs = rng.integers(0, hold_levels, size=spec.size)
            ss = rng.integers(0, swap_levels, size=spec.size)
            if spec.size >= 2:
                if hold_levels * swap_levels < 2:
                    raise ValueError(
                        "a mixed stratum of size >= 2 needs at least two (hold, swap) cells"
                    )
                if not np.any((hs != hs[0]) | (ss != ss[0])):
                    # force one differing record so the stratum stays mixed
                    if swap_levels > 1:
                        ss[1] = (ss[1] + 1) % swap_levels
                    else:
                        hs[1] = (hs[1] + 1) % hold_levels
        else:
            hs = np.full(spec.size, rng.integers(0, hold_levels))
            ss = np.full(spec.size, rng.integers(0, swap_levels))
        blocks.append(np.column_stack((np.full(spec.size, m), hs, ss)))
    domain = Domain(len(strata), hold_levels, swap_levels)
    schema = DatasetSchema(
        match_columns=("match",),
        hold_columns=("hold",),
        swap_columns=("swap",),
        match_labels=default_axis_labels("m", domain.match),
        hold_labels=default_axis_labels("h", domain.hold),
        swap_labels=default_axis_labels("s", domain.swap),
    )
    return Dataset(np.concatenate(blocks) if blocks else (), domain, schema)

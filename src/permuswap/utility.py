"""Data-utility assessment of swapped tables.

The headline metric is the mean absolute percentage error of a two-way
tabulation: collapse one axis of the saturated table (by default the
match axis, giving the hold-by-swap counts ``n_.hs``) and average
``|true - swapped| / true`` over cells.  Cells with a zero true count
are excluded from the average outright (the ratio is undefined there);
the rule is recorded in the report metadata.

Repeated-run experiments summarize the metric across independent
replications at several swap rates.  Each replication gets its own seed
from the key (seed, rate index, replication index), and its stratum m
draws from the key (replication seed, m), so rates are decoupled,
replications are independent, and the whole report is a deterministic
function of its inputs.  Each key gives the stream
``np.random.default_rng(key)`` gives (see the README).  A rate's
replication seeds come from the swapper's ``_replication_seeds``, as
uint64 arrays, and each block of replications is a slice of one.

What depends only on the dataset is computed once per experiment: the
stratum spans, the true ``n_.hs`` counts and their positive cells, and
each rate's validation.  The replications then run in blocks of at
most ``_KEYS_PER_PASS`` keys and ``_POSITIONS_PER_BLOCK`` mapped
positions.  A block makes one call to the swapper's draws (the call
:func:`~permuswap.swapping.run_psa_details` makes, so strata of at
most ``_KERNEL_MAX_RECORDS`` records draw on the batched kernel), checks
that every drawn mapping is a bijection, counts the swapped ``n_.hs``
of all its replications with one ``bincount`` and averages each row's
error with the kernel that :func:`mape` uses, so each value equals
``mape(tabulate(x), run_psa(x, PsaParams(rate, replication seed)))``.
Where a replication's stratum selects two records, they swap with no
derangement drawn, as in every swapper run (see
:mod:`permuswap.swapping`).

The CSV and JSON text format each distinct value once (``f"{v:.6f}"``
and ``round(v, 6)``) and repeat the result for every replication that
holds it; the MAPE of a few small strata takes only a few values.
"""

import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import RateLike, _unit_rate
from .dataset import ContingencyTable, Dataset, DomainMismatchError, stratum_order, tabulate
from .jsontext import _map_distinct, dumps
from . import swapping
from .swapping import _active_strata, _draw_mapping, _replication_seeds

# replications drawn per block: at most _KEYS_PER_PASS keys, and at most
# this many mapped positions
_POSITIONS_PER_BLOCK = 1 << 20

__all__ = [
    "FiveNumberSummary",
    "UtilityReport",
    "mape",
    "utility_experiment",
    "utility_csv",
    "utility_json",
]

ZERO_CELL_RULE = "cells with zero true count are excluded from the average"
QUARTILE_RULE = (
    "quartiles are medians of the lower/upper halves "
    "(middle value excluded when the count is odd)"
)


def _positive_cells(true_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positive true counts and their mask; the error averages over these."""
    mask = true_counts > 0
    if not bool(mask.any()):
        raise ValueError("all true cells are zero; the error is undefined")
    return true_counts[mask], mask


def _mape(true_positive: np.ndarray, mask: np.ndarray, swapped_counts: np.ndarray) -> np.ndarray:
    """The error of each row of swapped counts (the last axis is the cells).

    ``compress`` keeps the rows C-ordered, so each row's mean sums
    pairwise as a 1-D mean does, bit for bit (a boolean index on the last
    axis leaves them F-ordered, and the mean then sums each row in turn).
    """
    errors = np.abs(true_positive - swapped_counts.compress(mask, axis=-1)) / true_positive
    return errors.mean(axis=-1)


def mape(true_table: ContingencyTable, swapped_table: ContingencyTable) -> float:
    """Cell-wise mean absolute percentage error of the ``n_.hs`` counts.

    Collapsing the match axis gives the tabulation that swapping
    actually perturbs; the released margins ``n_mh.`` and ``n_m.s``
    are preserved by every run, so their error is always zero.
    """
    if true_table.domain != swapped_table.domain:
        raise DomainMismatchError("tables live over different domains")
    true_positive, mask = _positive_cells(true_table.counts.sum(axis=0).ravel())
    return float(_mape(true_positive, mask, swapped_table.counts.sum(axis=0).ravel()))


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _summarize(values: Sequence[float]) -> FiveNumberSummary:
    ordered = sorted(values)
    n = len(ordered)
    lower = ordered[: n // 2]
    upper = ordered[(n + 1) // 2 :]
    med = statistics.median(ordered)
    return FiveNumberSummary(
        minimum=ordered[0],
        q1=statistics.median(lower) if lower else med,
        median=med,
        q3=statistics.median(upper) if upper else med,
        maximum=ordered[-1],
        mean=statistics.fmean(ordered),
    )


@dataclass(frozen=True)
class UtilityReport:
    """Replicated error measurements at one swap rate."""

    rate: float
    replications: int
    mape_values: tuple[float, ...]
    summary: FiveNumberSummary
    metadata: dict[str, str]


def utility_experiment(
    x: Dataset,
    rates: Sequence[RateLike],
    reps: int,
    seed: int,
) -> list[UtilityReport]:
    """Run the swapper ``reps`` times per rate and summarize the errors."""
    if reps < 1:
        raise ValueError("at least one replication is required")
    checked = [float(_unit_rate(rate)) for rate in rates]
    spans = stratum_order(x)
    strata = _active_strata(spans[1])
    _, h, s = x.codes.T
    hs_cell = h * x.domain.swap
    true_counts = tabulate(x).counts.sum(axis=0).ravel()
    true_positive, mask = _positive_cells(true_counts)
    cells = len(true_counts)
    per_block = max(1, min(swapping._KEYS_PER_PASS // max(len(strata), 1), _POSITIONS_PER_BLOCK // max(len(x), 1)))
    reports = []
    for rate_index, p in enumerate(checked):
        values = []
        for seeds in _replication_seeds(seed, rate_index, reps):
            for first in range(0, len(seeds), per_block):
                block = seeds[first : first + per_block]
                mappings, _, _ = _draw_mapping(spans, strata, p, block)
                # the bijection check run_psa_details makes through Permutation
                if not (np.sort(mappings, axis=1) == np.arange(len(x))).all():
                    raise ValueError("mapping is not a bijection on record positions")
                offsets = cells * np.arange(len(block))[:, None]
                swapped = np.bincount((offsets + hs_cell + s[mappings]).ravel(), minlength=cells * len(block))
                values += _mape(true_positive, mask, swapped.reshape(len(block), cells)).tolist()
        reports.append(
            UtilityReport(
                rate=p,
                replications=reps,
                mape_values=tuple(values),
                summary=_summarize(values),
                metadata={
                    "zero_cells": ZERO_CELL_RULE,
                    "quartiles": QUARTILE_RULE,
                    "margin": "match",
                },
            )
        )
    return reports


def utility_csv(reports: Sequence[UtilityReport]) -> str:
    """Long-format ``rate,rep,mape`` CSV text, one line per replication,
    newline-terminated."""
    lines = ["rate,rep,mape"]
    for report in reports:
        rate = f"{report.rate:.6f}"
        values = _map_distinct("{:.6f}".format, report.mape_values)
        lines += [f"{rate},{rep_index},{value}" for rep_index, value in enumerate(values)]
    return "\n".join(lines) + "\n"


def utility_json(reports: Sequence[UtilityReport]) -> str:
    # the fields as they are (asdict would deep-copy every error value),
    # with the errors and the summary rounded
    return dumps([
        {
            **vars(report),
            "mape_values": _map_distinct(lambda v: round(v, 6), report.mape_values),
            "summary": {k: round(v, 6) for k, v in vars(report.summary).items()},
        }
        for report in reports
    ])

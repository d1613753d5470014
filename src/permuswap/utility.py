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
replication seeds and their substreams come from the swapper's
seeding, ``_replication_seeds`` and ``_substreams``, derived pass by
pass as the replications reach them.

What depends only on the dataset is computed once per experiment: the
stratum spans, the true ``n_.hs`` counts and their positive cells, and
each rate's validation.  A replication then runs only the swapper's
draw loop (the one :func:`~permuswap.swapping.run_psa_details` runs),
checks the drawn mapping is a bijection, counts the swapped ``n_.hs``
with one ``bincount`` and averages the error with the kernel that
:func:`mape` uses, so its value equals
``mape(tabulate(x), run_psa(x, PsaParams(rate, replication seed)))``.
"""

import json
import statistics
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .budget import _validate_rate
from .dataset import ContingencyTable, Dataset, DomainMismatchError, stratum_order, tabulate
from .swapping import Permutation, _active_strata, _draw_mapping, _replication_seeds, _substreams

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


def _mape(true_positive: np.ndarray, mask: np.ndarray, swapped_counts: np.ndarray) -> float:
    errors = np.abs(true_positive - swapped_counts[mask]) / true_positive
    return float(errors.mean())


def mape(true_table: ContingencyTable, swapped_table: ContingencyTable) -> float:
    """Cell-wise mean absolute percentage error of the ``n_.hs`` counts.

    Collapsing the match axis gives the tabulation that swapping
    actually perturbs; the released margins ``n_mh.`` and ``n_m.s``
    are preserved by every run, so their error is always zero.
    """
    if true_table.domain != swapped_table.domain:
        raise DomainMismatchError("tables live over different domains")
    true_positive, mask = _positive_cells(true_table.counts.sum(axis=0))
    return _mape(true_positive, mask, swapped_table.counts.sum(axis=0))


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
    rates: Sequence[float],
    reps: int,
    seed: int,
) -> list[UtilityReport]:
    """Run the swapper ``reps`` times per rate and summarize the errors."""
    if reps < 1:
        raise ValueError("at least one replication is required")
    checked = [_validate_rate(rate) for rate in rates]
    spans = stratum_order(x)
    strata = _active_strata(spans[1])
    _, h, s = x.codes.T
    hs_cell = h * x.domain.swap
    true_counts = tabulate(x).counts.sum(axis=0).ravel()
    true_positive, mask = _positive_cells(true_counts)
    reports = []
    for rate_index, p in enumerate(checked):
        streams = _substreams(_replication_seeds(seed, rate_index, reps), strata)
        values = []
        for _ in range(reps):
            mapping, _, _ = _draw_mapping(spans, strata, p, streams)
            Permutation(mapping.tolist())  # the bijection check run_psa_details makes
            swapped = np.bincount(hs_cell + s[mapping], minlength=len(true_counts))
            values.append(_mape(true_positive, mask, swapped))
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
        for rep_index, value in enumerate(report.mape_values):
            lines.append(f"{report.rate:.6f},{rep_index},{value:.6f}")
    return "\n".join(lines) + "\n"


def utility_json(reports: Sequence[UtilityReport]) -> str:
    payload = []
    for report in reports:
        entry = asdict(report)
        entry["mape_values"] = [round(v, 6) for v in report.mape_values]
        entry["summary"] = {k: round(v, 6) for k, v in asdict(report.summary).items()}
        payload.append(entry)
    return json.dumps(payload, indent=2, sort_keys=True)

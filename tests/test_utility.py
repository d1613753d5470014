import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permuswap import (
    ContingencyTable,
    mape,
    utility_experiment,
)
from permuswap import dataset, swapping, utility
from permuswap.dataset import DomainMismatchError
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import (
    FiveNumberSummary,
    UtilityReport,
    _summarize,
    utility_csv,
    utility_json,
)

from conftest import make_dataset


def table(counts):
    return ContingencyTable(np.asarray(counts, dtype=np.int64))


class TestMape:
    def test_identical_tables(self):
        t = table([[[2, 1], [0, 3]]])
        assert mape(t, t) == 0.0

    def test_hand_computed_example(self):
        true = table([[[2, 2], [2, 2]]])
        swapped = table([[[1, 3], [3, 1]]])
        assert mape(true, swapped) == pytest.approx(0.5)

    def test_zero_true_cells_excluded(self):
        true = table([[[4, 0], [0, 0]]])
        swapped = table([[[2, 1], [1, 0]]])
        # only the single positive true cell enters the average
        assert mape(true, swapped) == pytest.approx(0.5)

    def test_all_zero_cells_rejected(self):
        true = table([[[0, 0], [0, 0]]])
        with pytest.raises(ValueError):
            mape(true, true)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(DomainMismatchError):
            mape(table([[[1]]]), table([[[1, 0]]]))



class TestSummary:
    def test_median_of_halves_even_count(self):
        s = _summarize([1.0, 2.0, 3.0, 4.0])
        assert s == FiveNumberSummary(1.0, 1.5, 2.5, 3.5, 4.0, 2.5)

    def test_median_of_halves_odd_count(self):
        s = _summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        # middle value excluded from both halves
        assert s.q1 == 1.5
        assert s.q3 == 4.5
        assert s.median == 3.0

    def test_single_value(self):
        s = _summarize([2.0])
        assert s.q1 == s.median == s.q3 == 2.0


class TestExperiment:
    def test_rate_zero_gives_all_zero(self):
        x = synthesize([StratumSpec(8)], 2, 3, seed=1)
        (report,) = utility_experiment(x, rates=[0.0], reps=5, seed=7)
        assert report.mape_values == (0.0,) * 5
        assert report.summary.mean == 0.0

    def test_reproducible(self):
        x = synthesize([StratumSpec(12), StratumSpec(9)], 3, 3, seed=2)
        a = utility_experiment(x, rates=[0.05, 0.5], reps=8, seed=11)
        b = utility_experiment(x, rates=[0.05, 0.5], reps=8, seed=11)
        assert a == b

    def test_rates_are_decoupled(self):
        """Prepending a rate must not change later rates' draws."""
        x = synthesize([StratumSpec(10)], 3, 3, seed=3)
        solo = utility_experiment(x, rates=[0.5], reps=6, seed=5)[0]
        # the same rate at the same rate-index gives the same values
        again = utility_experiment(x, rates=[0.5, 0.1], reps=6, seed=5)[0]
        assert solo.mape_values == again.mape_values

    def test_replication_count_validated(self):
        x = synthesize([StratumSpec(4)], 2, 2, seed=0)
        with pytest.raises(ValueError):
            utility_experiment(x, rates=[0.1], reps=0, seed=0)

    @pytest.mark.parametrize("rates, reps", [([0.5], 1), ([0.0, 0.05, 0.5, 1.0], 9)])
    def test_per_dataset_work_done_once(self, monkeypatch, rates, reps):
        """The stratum spans and the true table are computed once per
        experiment, whatever the rates and replications; no replication
        builds a full M x H x S table."""
        x = synthesize([StratumSpec(6), StratumSpec(1), StratumSpec(4, mixed=False)], 3, 3, seed=4)
        calls = Counter()
        for name in ("stratum_order", "tabulate", "tabulate_columns"):
            def counted(*args, _fn=getattr(dataset, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            for module in (dataset, swapping, utility):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        reports = utility_experiment(x, rates, reps, seed=3)
        assert [len(r.mape_values) for r in reports] == [reps] * len(rates)
        assert calls == {"stratum_order": 1, "tabulate": 1, "tabulate_columns": 1}

    def test_metadata_records_conventions(self):
        x = synthesize([StratumSpec(6)], 2, 2, seed=0)
        (report,) = utility_experiment(x, rates=[0.3], reps=3, seed=1)
        assert "zero" in report.metadata["zero_cells"]
        assert "halves" in report.metadata["quartiles"]

    def test_monotone_trend_small(self):
        """Heavier swapping hurts the two-way tabulation more, in the
        bulk of seeds (the full 100-trial version is in acceptance)."""
        x = synthesize([StratumSpec(30), StratumSpec(30)], 5, 5, seed=17)
        wins = 0
        for trial in range(20):
            low, high = utility_experiment(x, rates=[0.01, 0.5], reps=10, seed=trial)
            wins += high.summary.mean > low.summary.mean
        assert wins >= 19


class TestEmission:
    def test_long_format_rows(self):
        x = synthesize([StratumSpec(6)], 2, 2, seed=0)
        reports = utility_experiment(x, rates=[0.2, 0.4], reps=3, seed=1)
        text = utility_csv(reports)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "rate,rep,mape"
        assert len(lines) == 7
        assert lines[1].startswith("0.200000,0,") and lines[-1].startswith("0.400000,2,")

    def test_csv_and_json(self):
        x = synthesize([StratumSpec(6)], 2, 2, seed=0)
        reports = utility_experiment(x, rates=[0.2], reps=2, seed=1)
        lines = utility_csv(reports).splitlines()
        assert lines[0] == "rate,rep,mape"
        assert len(lines) == 3
        payload = json.loads(utility_json(reports))
        assert payload[0]["rate"] == 0.2
        assert payload[0]["replications"] == 2


# MAPE-like values and the floats whose rounding or text is odd,
# few enough that values repeat
ERRORS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.0000005, 0.0000015, 5e-324, float("nan"), float("inf")]),
    st.floats(0, 2),
    st.floats(),
)


@st.composite
def reports(draw):
    """1-3 reports of 1-60 drawn values, each with a drawn summary."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        values = tuple(draw(st.lists(ERRORS, min_size=1, max_size=60)))
        summary = FiveNumberSummary(*(draw(ERRORS) for _ in range(6)))
        rate = draw(st.sampled_from([0.0, 0.05, 1 / 3, 1.0]))
        out.append(UtilityReport(rate, len(values), values, summary, {"margin": "match"}))
    return out


@settings(max_examples=200, deadline=None)
@given(reports())
def test_text_formats_each_value_as_on_its_own(drawn):
    """The CSV and JSON text, which format each distinct value once, as
    ``f"{v:.6f}"`` and ``round(v, 6)`` per value give it."""
    rows = ["rate,rep,mape"]
    rows += [f"{r.rate:.6f},{i},{v:.6f}" for r in drawn for i, v in enumerate(r.mape_values)]
    assert utility_csv(drawn) == "\n".join(rows) + "\n"
    payload = [
        {
            **vars(r),
            "mape_values": [round(v, 6) for v in r.mape_values],
            "summary": {k: round(v, 6) for k, v in vars(r.summary).items()},
        }
        for r in drawn
    ]
    assert utility_json(drawn) == json.dumps(payload, indent=2, sort_keys=True)

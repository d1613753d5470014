#!/usr/bin/env python3
"""Benchmark for permuswap: four CLI workloads, end-to-end and per-module metrics.

One workload per process; the last line of standard output is the JSON
result:

    python3 perfbench/run.py --workload swap_bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` times whole CLI runs (``permuswap.cli.main`` in-process)
and reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced CLI run, an untraced replay and a traced replay of the
library calls the subcommand makes, and reports the per-module metrics.
Every run first runs the workload once at the default seed, untimed,
and checks its output files against pinned SHA-256 digests.

``--workload all`` runs every workload, each in its own process.
``--smoke`` runs every workload at a tiny size in both modes and checks
that each metric named in BENCHMARK.json is emitted with its unit.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when
the package sources are missing or the arguments are wrong.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("swap_bulk", "utility_replicates", "oracle_sweep", "oracle_deep")
# set-up repeats per run; setup_s reports their median
SETUP_REPEATS = 3

# The machine's speed drifts by tens of percent over minutes, so each CLI
# run's time is reported relative to a fixed reference pass timed just
# before and just after it (see reference_pass).  Plain times are printed
# on the notes lines.
END_TO_END = {
    "wall_rel": "ref",
    "work_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# a reference block lasts this share of the CLI run before it
REF_SHARE = 0.2
# what the work of one run counts, under the name it has on each workload
WORK_UNIT = {
    "swap_bulk": "records_per_s",
    "utility_replicates": "runs_per_s",
    "oracle_sweep": "pairs_per_s",
    "oracle_deep": "pairs_per_s",
}

PER_LAYER = {
    "ingest.read_csv_columns_s": "s",
    "ingest.cross_classify_s": "s",
    "ingest.write_dataset_csv_s": "s",
    "ingest.bytes_read": "bytes",
    "dataset.construct_s": "s",
    "dataset.tabulate_s": "s",
    "dataset.tabulate_calls": "count",
    "dataset.swap_invariants_s": "s",
    "dataset.max_stratum_b_s": "s",
    "dataset.stratum_indices_s": "s",
    "dataset.strata": "count",
    "swapping.run_psa_details_s": "s",
    "swapping.rng_init_s": "s",
    "swapping.select_s": "s",
    "swapping.derange_s": "s",
    "swapping.apply_permutation_s": "s",
    "swapping.permutation_check_s": "s",
    "swapping.selected": "count",
    "swapping.selection_retries": "count",
    "swapping.selection_accept_ratio": "ratio",
    "swapping.effective_move_ratio": "ratio",
    "swapping.run_psa_call_us_p50": "us",
    "swapping.run_psa_call_us_p99": "us",
    "budget.psa_budget_us": "us",
    "exact.enumerate_small_datasets_s": "s",
    "exact.group_universes_s": "s",
    "exact.universes": "count",
    "exact.distribution_s": "s",
    "exact.distribution_calls": "count",
    "exact.permutations_enumerated": "count",
    "exact.atoms": "count",
    "exact.stratum_reuse_ratio": "ratio",
    "exact.pair_compare_s": "s",
    "exact.connecting_permutation_s": "s",
    "exact.min_connecting_derangement_s": "s",
    "exact.enumerate_universe_s": "s",
    "exact.guard_headroom": "ratio",
    "utility.utility_experiment_s": "s",
    "utility.mape_us_p50": "us",
    "utility.run_psa_share": "ratio",
    "synth.synthesize_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> "float | None":
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def reference_pass() -> float:
    """Time one pass of fixed interpreter work that does not use permuswap.

    Tuple and dict building, counting, sorting and ``Fraction`` sums: the
    kinds of work the CLI spends its time on.  The collector is off so
    that the pass does not depend on how many objects the process holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        acc = Fraction(0)
        for i in range(30_000):
            key = (i % 7, i % 11, i % 13)
            counts[key] = counts.get(key, 0) + 1
            if i % 64 == 0:
                acc += Fraction(i % 97 + 1, i % 89 + 2)
        rows = [(i % 5, (i * 7919) % 100_003, i) for i in range(20_000)]
        index = {row[1]: row for row in rows}
        rows.sort(key=lambda row: row[1])
        sum(row[0] for row in index.values())
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference_block(budget: float) -> float:
    """Median time of reference passes run until ``budget`` seconds (at least one)."""
    passes = [reference_pass()]
    while sum(passes) < budget:
        passes.append(reference_pass())
    return statistics.median(passes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, enumeration_budget: int) -> dict[str, float]:
    """Per-module numbers of one traced replay (``cli.self_s`` and the
    overhead are added by the caller)."""
    c = tr.counts
    us = 1e6
    drawn = c["swapping.strata_drawn"]
    return {
        "ingest.read_csv_columns_s": tr.total("ingest.read_csv_columns"),
        "ingest.cross_classify_s": tr.total("ingest.cross_classify"),
        "ingest.write_dataset_csv_s": tr.total("ingest.write_dataset_csv"),
        "ingest.bytes_read": c["ingest.bytes_read"],
        "dataset.construct_s": tr.total("dataset.construct"),
        "dataset.tabulate_s": tr.total("dataset.tabulate"),
        "dataset.tabulate_calls": tr.calls("dataset.tabulate"),
        "dataset.swap_invariants_s": tr.total("dataset.swap_invariants"),
        "dataset.max_stratum_b_s": tr.total("dataset.max_stratum_b"),
        "dataset.stratum_indices_s": tr.total("dataset.stratum_indices"),
        "dataset.strata": c["dataset.strata"],
        "swapping.run_psa_details_s": tr.total("swapping.run_psa_details"),
        "swapping.rng_init_s": tr.total("swapping.rng_init"),
        "swapping.select_s": tr.total("swapping.select"),
        "swapping.derange_s": tr.total("swapping.derange"),
        "swapping.apply_permutation_s": tr.total("swapping.apply_permutation"),
        "swapping.permutation_check_s": tr.total("swapping.permutation_check"),
        "swapping.selected": c["swapping.selected"],
        "swapping.selection_retries": c["swapping.selection_retries"],
        "swapping.selection_accept_ratio": _ratio(drawn, drawn + c["swapping.selection_retries"]),
        "swapping.effective_move_ratio": _ratio(c["swapping.changed"], c["swapping.selected"]),
        "swapping.run_psa_call_us_p50": percentile(tr.durations("swapping.run_psa_details"), 50) * us,
        "swapping.run_psa_call_us_p99": percentile(tr.durations("swapping.run_psa_details"), 99) * us,
        "budget.psa_budget_us": percentile(tr.durations("budget.psa_budget"), 50) * us,
        "exact.enumerate_small_datasets_s": tr.total("exact.enumerate_small_datasets"),
        "exact.group_universes_s": tr.total("exact.group_universes"),
        "exact.universes": c["exact.universes"],
        "exact.distribution_s": tr.total("exact.distribution"),
        "exact.distribution_calls": c["exact.distribution_calls"],
        "exact.permutations_enumerated": c["exact.permutations_enumerated"],
        "exact.atoms": c["exact.atoms"],
        "exact.stratum_reuse_ratio": _ratio(c["exact.stratum_laws"], c["exact.distinct_stratum_multisets"]),
        "exact.pair_compare_s": tr.total("exact.pair_compare"),
        "exact.connecting_permutation_s": tr.total("exact.connecting_permutation"),
        "exact.min_connecting_derangement_s": tr.total("exact.min_connecting_derangement"),
        "exact.enumerate_universe_s": tr.total("exact.enumerate_universe"),
        "exact.guard_headroom": tr.peaks.get("exact.composite_permutations", 0) / enumeration_budget,
        "utility.utility_experiment_s": tr.total("utility.utility_experiment"),
        "utility.mape_us_p50": percentile(tr.durations("utility.mape"), 50) * us,
        "utility.run_psa_share": _ratio(tr.total("swapping.run_psa_details"), tr.total("utility.replay")),
        "synth.synthesize_s": tr.total("synth.synthesize"),
    }


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    """SHA-256 of the package sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "permuswap").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running one workload


class Outcome:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            shown = failures[:5] + ([f"... {len(failures) - 5} more"] if len(failures) > 5 else [])
            self.messages.extend(f"{label}: {f}" for f in shown)


def _guarded(fn, *args) -> list[str]:
    """Run a check or replay; an exception counts as a failure."""
    try:
        return fn(*args)
    except Exception:  # the benchmark reports the failure and carries on
        return [traceback.format_exc()]


def _cli_run(bench, argv: list[str]) -> tuple[list[str], float]:
    gc.collect()
    start = time.perf_counter()
    try:
        rc = bench.cli_main(argv)
    except Exception:  # a traceback from the CLI is a failed run
        return [traceback.format_exc()], time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return ([] if rc == 0 else [f"exit code {rc}"]), elapsed


def _default_seed_run(bench, wl, base: Path, outcome: Outcome) -> float:
    """Untimed warm-up at the default seed, checked against the pinned digests.

    Returns the CLI run's wall time, a first estimate for the timed runs."""
    work = base / "default"
    work.mkdir(parents=True)
    wl.setup(work, bench.DEFAULT_SEED)
    wl.prepare(work)
    failures, elapsed = _cli_run(bench, wl.argv(work, bench.DEFAULT_SEED))
    if not failures:
        failures = _guarded(wl.check, work, bench.DEFAULT_SEED) + _guarded(wl.digest_failures, work)
    outcome.record("default seed", failures)
    shutil.rmtree(work)
    return elapsed


def run_untraced(bench, wl, work: Path, seed: int, seconds: float, import_s: float, outcome: Outcome, estimate: float):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        wl.setup(work, seed)
        setup_times.append(time.perf_counter() - start)
    wl.prepare(work)
    samples: list[float] = []
    # refs[i] and refs[i + 1] are the reference blocks around samples[i]
    refs = [reference_block(REF_SHARE * estimate)]
    start = time.perf_counter()
    while True:
        failures, elapsed = _cli_run(bench, wl.argv(work, seed))
        samples.append(elapsed)
        refs.append(reference_block(REF_SHARE * elapsed))
        if not failures:
            failures = _guarded(wl.check, work, seed)
        outcome.record(f"run {len(samples)}", failures)
        if time.perf_counter() - start >= seconds:
            break
    wall = statistics.median(samples)
    wall_rel = statistics.median(t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(samples))
    metrics = {
        "wall_rel": wall_rel,
        "work_per_ref": wl.work_items() / wall_rel,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    q = tail_percentile(len(samples))
    tail = f"p{q:g} {percentile(samples, q):.6f} s" if q else "no percentile has 10 samples beyond it"
    notes = [
        f"wall_s median {wall:.6f} s over {len(samples)} runs; {tail}; runs: "
        + ", ".join(f"{t:.6f}" for t in samples),
        f"{WORK_UNIT[wl.name]} {wl.work_items() / wall:.6f} 1/s",
        "reference blocks (median pass, s): " + ", ".join(f"{r:.6f}" for r in refs),
        f"setup_s import {import_s:.6f} s + median set-up of {SETUP_REPEATS}: "
        + ", ".join(f"{t:.6f}" for t in setup_times),
        f"failed_frac {outcome.failed / outcome.attempted:.6f} ({outcome.failed}/{outcome.attempted})",
    ]
    return metrics, notes


def run_traced(bench, wl, work: Path, seed: int, seconds: float, outcome: Outcome, trace_path: Path, env: dict):
    wl.setup(work, seed)
    wl.prepare(work)
    cycles = []
    start = time.perf_counter()
    while True:
        n = len(cycles)
        failures, wall = _cli_run(bench, wl.argv(work, seed))
        if not failures:
            failures = _guarded(wl.check, work, seed)
        outcome.record(f"cycle {n} CLI run", failures)
        timings = []
        traced = Tracer(n)
        for tracer in (Tracer(n, enabled=False), traced):
            gc.collect()
            t0 = time.perf_counter()
            failures = _guarded(wl.replay, tracer, work, seed)
            timings.append(time.perf_counter() - t0)
            outcome.record(f"cycle {n} {'traced' if tracer.enabled else 'untraced'} replay", failures)
        cycles.append((wall, timings[0], timings[1], traced))
        if time.perf_counter() - start >= seconds:
            break
    per_cycle = []
    for wall, _, _, tracer in cycles:
        metrics = layer_metrics(tracer, bench.exact.DEFAULT_ENUMERATION_BUDGET)
        metrics["cli.self_s"] = wall - tracer.children_total(f"cli.{wl.command}")
        per_cycle.append(metrics)
    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    untraced_s = statistics.median(c[1] for c in cycles)
    traced_s = statistics.median(c[2] for c in cycles)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1
    with trace_path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for cycle in cycles:
            cycle[3].write_jsonl(fh)
    notes = [
        f"{len(cycles)} cycles; replay untraced {untraced_s:.6f} s, traced {traced_s:.6f} s",
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    return metrics, notes


def run_workload(bench, name: str, seed: int, seconds: float, trace: int, import_s: float, env: dict, smoke=False):
    """One benchmark run; returns the result object and human-readable notes."""
    wl = bench.make_workload(name, smoke)
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    work = base / "seeded"
    work.mkdir(parents=True)
    outcome = Outcome()
    estimate = _default_seed_run(bench, wl, base, outcome)
    if trace:
        trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
        metrics, notes = run_traced(bench, wl, work, seed, seconds, outcome, trace_path, env)
        units = PER_LAYER
    else:
        metrics, notes = run_untraced(bench, wl, work, seed, seconds, import_s, outcome, estimate)
        units = END_TO_END
    shutil.rmtree(base)
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set {sorted(metrics)} differs from {sorted(units)}")
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # a replay that disagrees with the real run describes a different
        # run, so its per-module numbers are withheld
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units} if correct or not trace else {},
    }
    return result, notes + outcome.messages


def _emit(result: dict, notes: list[str], env: dict) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# smoke mode and all workloads


def smoke(bench, import_s: float) -> int:
    """Every workload, tiny, both modes: every named metric with its unit, all checks passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES) or tuple(bench.WORKLOADS) != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            env = {"workload": name, "seed": 1, "trace": trace, "smoke": True}
            result, notes = run_workload(bench, name, 1, 0, trace, import_s, env, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{name} trace={trace}: emitted metrics differ from BENCHMARK.json {key}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: output checks failed: {notes}")
            print(f"smoke {name} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "permuswap" / "__init__.py").is_file():
        print(f"error: no permuswap sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads as bench  # imports numpy and permuswap

    import_s = time.perf_counter() - start
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(bench, import_s)
    env = environment(args)
    result, notes = run_workload(bench, args.workload, args.seed, args.seconds, args.trace, import_s, env)
    _emit(result, notes, env)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

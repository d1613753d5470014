"""The four benchmark workloads.

Each workload makes its inputs from the workload seed, names the one CLI
call that is timed, checks that call's outputs, and replays the public
library calls the subcommand makes, one span per call, for the traced
run.  The replays call the library from outside; nothing in the package
is patched.  Where a replay re-runs work the subcommand does inside a
library call (the swapper's per-stratum stages, the utility loop, the
sweep), it compares its results with the real call's, so the per-module
numbers describe the same run as the end-to-end numbers.

Why these four: ``swap_bulk`` is the per-record path (ingest, ``Dataset``
validation, ``tabulate``, ``apply_permutation``); ``utility_replicates``
is the fixed cost of one tiny swapper call and bypasses the per-record
costs; ``oracle_sweep`` is the exact oracle over many tiny universes
(``Fraction`` arithmetic and brute-force connecting checks);
``oracle_deep`` is the oracle's n! enumeration on one 8-record stratum.
"""

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from permuswap import exact
from permuswap.budget import psa_budget
from permuswap.cli import main as cli_main
from permuswap.dataset import (
    Dataset,
    Domain,
    Record,
    dataset_from_table,
    hamming_distance,
    max_stratum_b,
    stratum_indices,
    swap_invariants,
    tabulate,
)
from permuswap.ingest import cross_classify, load_roles, read_csv_columns, write_dataset_csv
from permuswap.swapping import (
    Permutation,
    PsaParams,
    apply_permutation,
    run_psa_details,
    sample_derangement,
    select_records,
    to_exact_rate,
)
from permuswap.synth import StratumSpec, synthesize
from permuswap.utility import mape, utility_experiment, utility_json

__all__ = ["DEFAULT_SEED", "WORKLOADS", "BenchError", "cli_main", "make_workload"]

SEED_MASK = 2**64 - 1
# Outputs at this workload seed are pinned by SHA-256 below.
DEFAULT_SEED = 0


class BenchError(RuntimeError):
    """The benchmark could not prepare a workload's inputs."""


def _cli(argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise BenchError(f"permuswap {argv[0]} exited with {rc}")


def _write_roles(path: Path, domain: Domain) -> None:
    roles = {
        "match": ["match"],
        "hold": ["hold"],
        "swap": ["swap"],
        "categories": {
            "match": [f"m{i}" for i in range(domain.match)],
            "hold": [f"h{i}" for i in range(domain.hold)],
            "swap": [f"s{i}" for i in range(domain.swap)],
        },
    }
    path.write_text(json.dumps(roles, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _replay_load(tr, data: Path, roles_path: Path) -> Dataset:
    """The CLI's ``_load_input``: roles first, then the CSV, then cross-classification."""
    roles = tr.call("ingest.load_roles", load_roles, roles_path)
    columns = tr.call("ingest.read_csv_columns", read_csv_columns, data)
    tr.count("ingest.bytes_read", data.stat().st_size + roles_path.stat().st_size)
    x = tr.call("ingest.cross_classify", cross_classify, columns, roles)
    tr.count("dataset.strata", len({r.m for r in x.records}))
    return x


def _same_bytes(a: Path, b: Path) -> list[str]:
    if a.read_bytes() != b.read_bytes():
        return [f"replayed set-up wrote {a.name} differently from the CLI's {b.name}"]
    return []


# ---------------------------------------------------------------------------
# the swapper, stage by stage


@dataclass(frozen=True)
class StageReplay:
    mapping: tuple
    selected: int
    retries: int
    table: object

    def mismatches(self, run) -> list[str]:
        """Differences from the real ``SwapRun``; any one means the stage
        numbers describe a different run."""
        out = []
        if self.selected != run.selected_count:
            out.append(f"replayed selections {self.selected} != selected_count {run.selected_count}")
        if self.retries != run.selection_retries:
            out.append(f"replayed redraws {self.retries} != selection_retries {run.selection_retries}")
        if self.mapping != run.permutation.mapping or self.table != run.table:
            out.append("replayed permutation or table differs from run_psa_details")
        return out


def replay_stages(tr, x: Dataset, params: PsaParams) -> StageReplay:
    """``run_psa_details`` one stage at a time.

    Uses the documented substream key ``default_rng([seed & (2**64-1), m])``
    for each stratum of at least two records, in sorted match order, so
    the draws are the swapper's own.
    """
    with tr.span("swapping.stages"):
        groups = tr.call("dataset.stratum_indices", stratum_indices, x)
        mapping = list(range(len(x.records)))
        selected = retries = drawn = 0
        for m, idx in sorted(groups.items()):
            if len(idx) < 2:
                continue
            with tr.span("swapping.rng_init"):
                rng = np.random.default_rng([params.seed & SEED_MASK, m])
            selection = tr.call("swapping.select", select_records, len(idx), params.p, rng)
            local = tr.call("swapping.derange", sample_derangement, len(selection.indices), rng)
            drawn += 1
            retries += selection.retries
            selected += len(selection.indices)
            for pos, target in zip(selection.indices, local):
                mapping[idx[pos]] = idx[selection.indices[target]]
        perm = tr.call("swapping.permutation_check", Permutation, tuple(mapping))
        swapped = tr.call("swapping.apply_permutation", apply_permutation, perm, x)
        changed = sum(1 for a, b in zip(x.records, swapped.records) if a.s != b.s)
        table = tr.call("dataset.tabulate", tabulate, swapped)
    tr.count("swapping.selected", selected)
    tr.count("swapping.selection_retries", retries)
    tr.count("swapping.strata_drawn", drawn)
    tr.count("swapping.changed", changed)
    return StageReplay(perm.mapping, selected, retries, table)


# ---------------------------------------------------------------------------
# the exact oracle


def _distribution(tr, multisets: set, d: Dataset, rate):
    """``exact_psa_distribution`` plus the counts it implies (interior rates)."""
    strata: dict[int, list] = {}
    for r in d.records:
        strata.setdefault(r.m, []).append((r.h, r.s))
    active = [tuple(sorted(cells)) for cells in strata.values() if len(cells) >= 2]
    perms = math.prod(math.factorial(len(cells)) for cells in active)
    dist = tr.call("exact.distribution", exact.exact_psa_distribution, d, rate)
    tr.count("exact.distribution_calls")
    tr.count("exact.permutations_enumerated", perms)
    tr.count("exact.atoms", len(dist.probs))
    tr.count("exact.stratum_laws", len(active))
    tr.peak("exact.composite_permutations", perms)
    multisets.update(active)
    return dist


def _pair_value(tr, a, b, dist_a, dist_b) -> float:
    with tr.span("exact.pair_compare"):
        return exact.mult_distance(dist_a, dist_b) / hamming_distance(a, b)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    command = ""
    outputs: tuple[str, ...] = ()
    # SHA-256 of each output file at DEFAULT_SEED, per size
    pinned: dict[str, dict[str, str]] = {}

    def __init__(self, smoke: bool) -> None:
        self.size = "smoke" if smoke else "full"

    def setup(self, work: Path, seed: int) -> None:
        """Write the inputs for ``seed`` into ``work`` (timed as set-up)."""

    def prepare(self, work: Path) -> None:
        """Untimed reference values the output checks need."""

    def argv(self, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def work_items(self) -> int:
        raise NotImplementedError

    def check(self, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def replay(self, tr, work: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def digest_failures(self, work: Path) -> list[str]:
        pinned = self.pinned[self.size]
        out = []
        for name in self.outputs:
            got = hashlib.sha256((work / name).read_bytes()).hexdigest()
            if got != pinned.get(name):
                out.append(f"{name}: sha256 {got} differs from the pinned {pinned.get(name)}")
        return out


class SwapBulk(Workload):
    """``synth`` then ``swap --p 0.05``: 500,000 records in 5,005 strata."""

    name = "swap_bulk"
    command = "swap"
    outputs = ("table.csv", "run.json")
    RATE = "0.05"
    HOLD, SWAP = 2, 14
    CONSTANT = 4
    pinned = {
        "full": {
            "table.csv": "62ba57310fc632602869953c63cf36acf29a5773eb793345f9ef3aa2205c04f6",
            "run.json": "faa0d5ad891efaa73539309ec3164596336e0793ea402e491a48c16bc178f2d7",
        },
        "smoke": {
            "table.csv": "71496b4e54b2ebf5b03d74366faa6e69cde07c741286a806a7f270813c73433f",
            "run.json": "45251d80554af026d6ecce7224ed9b120e91e86ea7d8fa6193409eea595bd62f",
        },
    }

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        big, constant, small, n_small = (600, 200, 50, 50) if smoke else (60_000, 20_000, 50, 5_000)
        # four mixed strata, one constant stratum, many small mixed strata
        self.sizes = [big] * 4 + [constant] + [small] * n_small
        self.b = big
        self.records = sum(self.sizes)

    @staticmethod
    def _seeds(seed: int) -> tuple[int, int]:
        # separate synth and swap seeds: equal seeds would reuse one
        # substream per stratum for both the data and the selection
        rng = random.Random(seed)
        return rng.randrange(2**32), rng.randrange(2**32)

    def setup(self, work: Path, seed: int) -> None:
        synth_seed, _ = self._seeds(seed)
        _cli([
            "synth",
            "--strata", ",".join(map(str, self.sizes)),
            "--constant", str(self.CONSTANT),
            "--hold-levels", str(self.HOLD),
            "--swap-levels", str(self.SWAP),
            "--seed", str(synth_seed),
            "--out", str(work / "data.csv"),
            "--roles-out", str(work / "roles.json"),
        ])

    def prepare(self, work: Path) -> None:
        # margins of the input, read without the package's ingest code
        roles = json.loads((work / "roles.json").read_text(encoding="utf-8"))
        cats = [roles["categories"][axis] for axis in ("match", "hold", "swap")]
        index = [{label: i for i, label in enumerate(c)} for c in cats]
        lines = (work / "data.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "match,hold,swap":
            raise BenchError("data.csv: unexpected header")
        rows = [line.split(",") for line in lines[1:]]
        m, h, s = (np.fromiter((index[k][r[k]] for r in rows), np.int64, len(rows)) for k in range(3))
        self.shape = tuple(len(c) for c in cats)
        mx, hx, sx = self.shape
        self.mh = np.zeros((mx, hx), np.int64)
        self.ms = np.zeros((mx, sx), np.int64)
        np.add.at(self.mh, (m, h), 1)
        np.add.at(self.ms, (m, s), 1)
        self.n = len(rows)

    def argv(self, work: Path, seed: int) -> list[str]:
        _, swap_seed = self._seeds(seed)
        return [
            "swap",
            "--input", str(work / "data.csv"),
            "--roles", str(work / "roles.json"),
            "--p", self.RATE,
            "--seed", str(swap_seed),
            "--out", str(work / "table.csv"),
            "--sidecar", str(work / "run.json"),
        ]

    def work_items(self) -> int:
        return self.records

    def check(self, work: Path, seed: int) -> list[str]:
        out = []
        if self.n != self.records:
            out.append(f"input has {self.n} records, expected {self.records}")
        mx, hx, sx = self.shape
        lines = (work / "table.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != "m,h,s,count" or len(lines) != 1 + mx * hx * sx:
            return out + ["table.csv: wrong header or row count"]
        rows = np.array([line.split(",") for line in lines[1:]], dtype=np.int64)
        if not np.array_equal(rows[:, :3], np.indices(self.shape).reshape(3, -1).T):
            out.append("table.csv: cells out of row-major order")
        counts = rows[:, 3].reshape(self.shape)
        if (counts < 0).any():
            out.append("table.csv: negative count")
        if not np.array_equal(counts.sum(axis=2), self.mh):
            out.append("table.csv: n_mh. differs from the input's")
        if not np.array_equal(counts.sum(axis=1), self.ms):
            out.append("table.csv: n_m.s differs from the input's")
        if int(counts.sum()) != self.n:
            out.append("table.csv: total differs from the record count")
        side = json.loads((work / "run.json").read_text(encoding="utf-8"))
        if side["record_count"] != self.n or side["b"] != self.b:
            out.append("run.json: wrong record_count or b")
        if side["invariants"] != {"mh": self.mh.tolist(), "ms": self.ms.tolist()}:
            out.append("run.json: released margins differ from the input's")
        if side["seed"] != self._seeds(seed)[1]:
            out.append("run.json: wrong seed")
        if not 0 <= side["effective_swap_rate"] <= side["raw_selection_rate"] <= 1:
            out.append("run.json: swap rates out of order")
        return out

    def replay(self, tr, work: Path, seed: int) -> list[str]:
        synth_seed, swap_seed = self._seeds(seed)
        specs = [StratumSpec(size, mixed=(i != self.CONSTANT)) for i, size in enumerate(self.sizes)]
        with tr.span("cli.synth"):
            x0 = tr.call("synth.synthesize", synthesize, specs, self.HOLD, self.SWAP, synth_seed)
            tr.call("ingest.write_dataset_csv", write_dataset_csv, x0, work / "replay.csv")
        del x0
        failures = _same_bytes(work / "replay.csv", work / "data.csv")

        params = PsaParams(float(to_exact_rate(self.RATE)), swap_seed)
        with tr.span(f"cli.{self.command}"):
            x = _replay_load(tr, work / "data.csv", work / "roles.json")
            run = tr.call("swapping.run_psa_details", run_psa_details, x, params)
            # swap_invariants(x) and max_stratum_b(x) each tabulate x first
            with tr.span("dataset.swap_invariants"):
                swap_invariants(tr.call("dataset.tabulate", tabulate, x))
            with tr.span("dataset.max_stratum_b"):
                b = max_stratum_b(tr.call("dataset.tabulate", tabulate, x))
            with tr.span("budget.psa_budget"):
                psa_budget(params.p, b)
        tr.call("dataset.construct", Dataset, x.records, x.domain)
        return failures + replay_stages(tr, x, params).mismatches(run)


def replication_seed(seed: int, rate_index: int, rep_index: int) -> int:
    """Per-replication seed of ``utility_experiment``, from (seed, rate index, rep index)."""
    entropy = [seed & SEED_MASK, rate_index, rep_index]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class UtilityReplicates(Workload):
    """``utility`` at two rates, many replications, on a 2-record stratum."""

    name = "utility_replicates"
    command = "utility"
    outputs = ("utility.json",)
    RATES = (0.05, 0.5)
    pinned = {
        "full": {"utility.json": "42ff88d1c3451c491371149f3190cb368184921cae1aef0e3b5dd54d2b8a0994"},
        "smoke": {"utility.json": "403e843843bc66d1a04696ba27c18b48b36a04c2bb7193e3acf54a992c6d9378"},
    }

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.reps = 20 if smoke else 2000

    @staticmethod
    def _inputs(seed: int) -> tuple[Dataset, int]:
        # the two records differ in hold and swap, so a swap shows in n_.hs
        rng = random.Random(seed)
        s0 = rng.randrange(2)
        records = [Record(0, 0, s0), Record(0, 1, 1 - s0)]
        rng.shuffle(records)
        return Dataset(tuple(records), Domain(1, 2, 2)), rng.randrange(2**32)

    def setup(self, work: Path, seed: int) -> None:
        x, _ = self._inputs(seed)
        write_dataset_csv(x, work / "data.csv")
        _write_roles(work / "roles.json", x.domain)

    def argv(self, work: Path, seed: int) -> list[str]:
        _, cli_seed = self._inputs(seed)
        return [
            "utility",
            "--input", str(work / "data.csv"),
            "--roles", str(work / "roles.json"),
            "--rates", ",".join(map(str, self.RATES)),
            "--reps", str(self.reps),
            "--seed", str(cli_seed),
            "--format", "json",
            "--out", str(work / "utility.json"),
        ]

    def work_items(self) -> int:
        return self.reps * len(self.RATES)

    def check(self, work: Path, seed: int) -> list[str]:
        reports = json.loads((work / "utility.json").read_text(encoding="utf-8"))
        if [r["rate"] for r in reports] != list(self.RATES):
            return ["utility.json: wrong rates"]
        out = []
        for r in reports:
            values = r["mape_values"]
            if r["replications"] != self.reps or len(values) != self.reps:
                out.append(f"utility.json: rate {r['rate']} has the wrong replication count")
            # two records: the n_.hs table is either unchanged or fully swapped
            if not set(values) <= {0.0, 1.0}:
                out.append(f"utility.json: rate {r['rate']} has a MAPE outside {{0, 1}}")
        return out

    def replay(self, tr, work: Path, seed: int) -> list[str]:
        x0, cli_seed = self._inputs(seed)
        with tr.span("cli.setup"):
            tr.call("ingest.write_dataset_csv", write_dataset_csv, x0, work / "replay.csv")
        failures = _same_bytes(work / "replay.csv", work / "data.csv")

        rates = list(self.RATES)
        with tr.span(f"cli.{self.command}"):
            x = _replay_load(tr, work / "data.csv", work / "roles.json")
            reports = tr.call("utility.utility_experiment", utility_experiment, x, rates, self.reps, cli_seed)
            tr.call("utility.utility_json", utility_json, reports)
        tr.call("dataset.construct", Dataset, x.records, x.domain)

        # utility_experiment's own loop, one call at a time
        runs = []
        with tr.span("utility.replay"):
            base = tr.call("dataset.tabulate", tabulate, x)
            for ri, rate in enumerate(rates):
                for rep in range(self.reps):
                    params = PsaParams(rate, replication_seed(cli_seed, ri, rep))
                    run = tr.call("swapping.run_psa_details", run_psa_details, x, params)
                    value = tr.call("utility.mape", mape, base, run.table)
                    if value != reports[ri].mape_values[rep]:
                        failures.append(f"replayed MAPE differs at rate {rate}, rep {rep}")
                    runs.append((params, run))
        for params, run in runs:
            failures += replay_stages(tr, x, params).mismatches(run)
        return failures


class OracleSweep(Workload):
    """``verify --sweep`` over every dataset of at most 5 records in 2x2x2."""

    name = "oracle_sweep"
    command = "verify"
    outputs = ("sweep.txt",)
    RATES = ("1/10", "3/10", "1/2", "7/10", "9/10")
    DOMAIN = Domain(2, 2, 2)
    # (datasets, universes, pair checks, connecting checks)
    EXPECTED = {"full": (5, (1287, 966, 1830, 732)), "smoke": (3, (165, 147, 90, 36))}
    pinned = {
        "full": {"sweep.txt": "268b390632fca032863ebd9ee7e9fd4073cbf391cb6f7f8cc2e21e7224b54cbc"},
        "smoke": {"sweep.txt": "353b262dc29a362a3d6a3457daa743f6a31e98e8deecd079b989197511ef8ce5"},
    }

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.max_records, self.counts = self.EXPECTED[self.size]

    def _rates(self, seed: int) -> list[str]:
        # the sweep's input is the domain alone; the seed orders the rates
        rates = list(self.RATES)
        random.Random(seed).shuffle(rates)
        return rates

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            "verify",
            "--sweep",
            "--domain", ",".join(map(str, self.DOMAIN)),
            "--max-records", str(self.max_records),
            "--p-values", ",".join(self._rates(seed)),
            "--out", str(work / "sweep.txt"),
        ]

    def work_items(self) -> int:
        return self.counts[2]

    def check(self, work: Path, seed: int) -> list[str]:
        datasets, universes, pairs, connecting = self.counts
        expected = (
            f"datasets={datasets} universes={universes} "
            f"pair_checks={pairs} connecting_checks={connecting}\nresult=pass\n"
        )
        text = (work / "sweep.txt").read_text(encoding="utf-8")
        return [] if text == expected else [f"sweep.txt: expected {expected!r}, got {text[:200]!r}"]

    def replay(self, tr, work: Path, seed: int) -> list[str]:
        """``dp_sweep`` call by call, with its checks."""
        rates = [to_exact_rate(tok) for tok in self._rates(seed)]
        failures: list[str] = []
        multisets: set = set()
        pair_checks = connecting_checks = 0
        with tr.span(f"cli.{self.command}"), tr.span("exact.dp_sweep"):
            datasets = tr.call(
                "exact.enumerate_small_datasets", exact.enumerate_small_datasets, self.DOMAIN, self.max_records
            )
            with tr.span("exact.group_universes"):
                groups: dict = {}
                for d in datasets:
                    groups.setdefault(tr.call("dataset.swap_invariants", swap_invariants, d), []).append(d)
            for inv, members in groups.items():
                b = tr.call("dataset.max_stratum_b", max_stratum_b, members[0])
                if exact.invariant_stratum_bound(inv) != b:
                    failures.append(f"b mismatch for {inv}")
                keys = {tr.call("dataset.tabulate", tabulate, d).canonical_key() for d in members}
                for rate in rates:
                    budget = tr.call("budget.psa_budget", psa_budget, float(rate), b)
                    dists = [_distribution(tr, multisets, d, rate) for d in members]
                    if any(set(dist.probs) != keys for dist in dists):
                        failures.append(f"support differs from the universe at p={rate}")
                    measured = 0.0
                    for i, j in itertools.combinations(range(len(members)), 2):
                        pair_checks += 1
                        value = _pair_value(tr, members[i], members[j], dists[i], dists[j])
                        measured = max(measured, value)
                        if value > budget.epsilon + exact.LOG_SLACK:
                            failures.append(f"budget exceeded at p={rate}")
                    for bound, condition in exact.applicable_lower_bounds(inv, float(rate)):
                        if measured < bound - exact.LOG_SLACK:
                            failures.append(f"lower bound {condition} violated at p={rate}")
                for i, j in itertools.permutations(range(len(members)), 2):
                    connecting_checks += 1
                    d_ham = hamming_distance(members[i], members[j])
                    rho = tr.call("exact.connecting_permutation", exact.connecting_permutation, members[i], members[j])
                    moved = tr.call("swapping.apply_permutation", apply_permutation, rho, members[i])
                    if tr.call("dataset.tabulate", tabulate, moved) != tr.call("dataset.tabulate", tabulate, members[j]):
                        failures.append("connecting permutation misses its target")
                    if rho.derange_count != d_ham:
                        failures.append("connecting permutation deranges the wrong count")
                    brute = tr.call(
                        "exact.min_connecting_derangement", exact.min_connecting_derangement, members[i], members[j]
                    )
                    if brute != d_ham:
                        failures.append("brute-force minimum disagrees with d_Ham")
        tr.count("dataset.strata", sum(len({r.m for r in d.records}) for d in datasets))
        tr.count("exact.universes", len(groups))
        tr.count("exact.distinct_stratum_multisets", len(multisets))
        replayed = (len(datasets), len(groups), pair_checks, connecting_checks)
        if replayed != self.counts:
            failures.append(f"replayed sweep counts {replayed} != {self.counts}")
        return failures


class OracleDeep(Workload):
    """``verify --input`` on one mixed stratum of 8 records, 2 per cell of 1x2x2."""

    name = "oracle_deep"
    command = "verify"
    outputs = ("verify.csv",)
    RATES = ("1/10", "1/2")
    HEADER = "p,b,universe_size,budget_epsilon,measured_optimal,passed,expected_infinite"
    pinned = {
        "full": {"verify.csv": "183a4d67d0448e061faa5600445d0821ab2ef09fcb2c8f7ce31a2dccda3514eb"},
        "smoke": {"verify.csv": "d3ba9379c5bad4f0fc99a0494dcfcef90731dbd34b51a4ff68f70dbcdcd639b7"},
    }

    def __init__(self, smoke: bool) -> None:
        super().__init__(smoke)
        self.per_cell = 1 if smoke else 2
        self.b = 4 * self.per_cell
        # 2x2 tables with all margins 2 * per_cell
        self.universe_size = 2 * self.per_cell + 1

    def _dataset(self, seed: int) -> Dataset:
        # the seed orders the records; the universe and the report do not depend on it
        records = [Record(0, h, s) for h in range(2) for s in range(2) for _ in range(self.per_cell)]
        random.Random(seed).shuffle(records)
        return Dataset(tuple(records), Domain(1, 2, 2))

    def setup(self, work: Path, seed: int) -> None:
        x = self._dataset(seed)
        write_dataset_csv(x, work / "data.csv")
        _write_roles(work / "roles.json", x.domain)

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            "verify",
            "--input", str(work / "data.csv"),
            "--roles", str(work / "roles.json"),
            "--p-values", ",".join(self.RATES),
            "--out", str(work / "verify.csv"),
        ]

    def work_items(self) -> int:
        return math.comb(self.universe_size, 2) * len(self.RATES)

    def _rows(self, work: Path) -> list[list[str]]:
        lines = (work / "verify.csv").read_text(encoding="utf-8").splitlines()
        if lines[0] != self.HEADER:
            raise BenchError("verify.csv: unexpected header")
        return [line.split(",") for line in lines[1:]]

    def check(self, work: Path, seed: int) -> list[str]:
        rows = self._rows(work)
        if len(rows) != len(self.RATES):
            return [f"verify.csv: {len(rows)} rows, expected {len(self.RATES)}"]
        out = []
        for row in rows:
            if row[5] != "true":
                out.append(f"verify.csv: p={row[0]} did not pass")
            if int(row[1]) != self.b or int(row[2]) != self.universe_size:
                out.append(f"verify.csv: p={row[0]} has the wrong b or universe size")
        return out

    def replay(self, tr, work: Path, seed: int) -> list[str]:
        """``universe_report`` call by call."""
        x0 = self._dataset(seed)
        with tr.span("cli.setup"):
            tr.call("ingest.write_dataset_csv", write_dataset_csv, x0, work / "replay.csv")
        failures = _same_bytes(work / "replay.csv", work / "data.csv")

        multisets: set = set()
        measured_by_rate = []
        with tr.span(f"cli.{self.command}"):
            x = _replay_load(tr, work / "data.csv", work / "roles.json")
            with tr.span("exact.universe_report"):
                universe = tr.call(
                    "exact.enumerate_universe", exact.enumerate_universe, x, exact.DEFAULT_ENUMERATION_BUDGET
                )
                b = tr.call("dataset.max_stratum_b", max_stratum_b, x)
                for tok in self.RATES:
                    rate = to_exact_rate(tok)
                    tr.call("budget.psa_budget", psa_budget, float(rate), b)
                    dists = [_distribution(tr, multisets, dataset_from_table(t), rate) for t in universe]
                    measured = 0.0
                    for i, j in itertools.combinations(range(len(universe)), 2):
                        measured = max(measured, _pair_value(tr, universe[i], universe[j], dists[i], dists[j]))
                    measured_by_rate.append(measured)
        tr.call("dataset.construct", Dataset, x.records, x.domain)
        tr.count("exact.universes")
        tr.count("exact.distinct_stratum_multisets", len(multisets))
        reported = [row[4] for row in self._rows(work)]
        if [f"{v:.6f}" for v in measured_by_rate] != reported:
            failures.append(f"replayed measured budgets {measured_by_rate} != reported {reported}")
        if len(universe) != self.universe_size:
            failures.append(f"replayed universe has {len(universe)} tables")
        return failures


WORKLOADS = {w.name: w for w in (SwapBulk, UtilityReplicates, OracleSweep, OracleDeep)}


def make_workload(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name](smoke)

"""Command-line surface: swap, budget, curve, verify, tda-report, synth, utility.

Every subcommand is deterministic given its full flag set (the seed
defaults to the PERMUSWAP_SEED environment variable, then 0), and each
writes its report through one emitter, so golden-file comparisons are
stable byte for byte.  A CSV field goes through ``_cell``: a float at
6 decimals, infinity as "inf", a bool in lower case, None as "-",
anything else with ``str``.  JSON goes through ``_emit_json`` (two-space
indent, sorted keys, written by :func:`~permuswap.jsontext.dumps`), with
floats rounded to 6 decimals and infinity as the string "inf".  The one
exception is ``swap``'s count table, whose rows are built as byte slots
all at once (``_count_table_text``).

Exit codes: 0 success; 2 validation failure (bad flags, bad config,
bad data); 3 verification failure (a checked guarantee did not hold);
4 enumeration guard (instance too large for the exact oracle).
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from . import budget as budget_mod
from . import exact as exact_mod
from .dataset import ContingencyTable, Dataset, Domain, invariant_stratum_bound, max_stratum_b, swap_invariants
from .ingest import LoadError, _label_block, load_dataset, load_roles, write_dataset_csv
from .jsontext import _compact, _decimal_width, _fill_digits, dumps
from .swapping import PsaParams, run_psa_details, to_exact_rate
from .synth import StratumSpec, synthesize
from .utility import utility_csv, utility_experiment, utility_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_ENUMERATION = 4

SEED_ENV_VAR = "PERMUSWAP_SEED"
FLOAT_DIGITS = 6


class CliError(ValueError):
    """Validation failure; the message names the offending key."""


def fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.{FLOAT_DIGITS}f}"


def _cell(value: object) -> str:
    """One CSV field of a report."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt(value)
    return "-" if value is None else str(value)


def _rows(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    return "\n".join([",".join(header), *(",".join(map(_cell, row)) for row in rows)])


def _json_value(value: object) -> object:
    """A float rounded for JSON (infinity as "inf"); anything else as is."""
    if not isinstance(value, float):
        return value
    return "inf" if math.isinf(value) else round(value, FLOAT_DIGITS)


def _emit(text: str, out: Union[str, None]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(payload: object, out: Union[str, None]) -> None:
    _emit(dumps(payload), out)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise CliError(f"{SEED_ENV_VAR}: expected an integer, got {raw!r}") from exc


def _parse_rate(raw: str, key: str) -> Fraction:
    """A rate read by the package's checked reader; its refusal names the key and the token."""
    try:
        rate = to_exact_rate(budget_mod._unit_rate(raw))
    except ValueError as exc:
        raise CliError(f"{key}: rate {raw!r} refused: {exc}") from exc
    if exact_mod._float_endpoint(rate):
        raise CliError(f"{key}: rate {raw!r} lies inside (0, 1) but rounds to {float(rate)} as a float")
    return rate


def _parse_rates(raw: str, key: str) -> list[Fraction]:
    """A comma-separated list of rates, empty tokens skipped; at least one."""
    rates = [_parse_rate(tok, key) for tok in raw.split(",") if tok]
    if not rates:
        raise CliError(f"{key}: at least one rate is required")
    return rates


def _parse_int_list(raw: str, key: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise CliError(f"{key}: expected comma-separated integers, got {raw!r}") from exc


def _load_input(args: argparse.Namespace) -> Dataset:
    if not args.input or not args.roles:
        raise CliError("input/roles: both --input and --roles are required")
    return load_dataset(args.input, load_roles(args.roles))


# ---------------------------------------------------------------------------
# swap


def _count_table_text(table: ContingencyTable) -> str:
    """The ``m,h,s,count`` CSV of every cell, m slowest and s fastest.

    The table can have a few hundred thousand cells, so its lines are
    built at once, as fixed-width slots of bytes: an index column depends
    only on the table's shape, so it is one label block per axis (each
    index's digits then a comma, as :func:`write_dataset_csv` writes
    labels), set along that axis; only the counts go through the digit
    loop.  One compaction drops the NUL padding."""
    counts = table.counts
    blocks = [_label_block([str(i) for i in range(size)], b",")[0] for size in counts.shape]
    width = _decimal_width(counts)
    lines = np.zeros(counts.shape + (sum(block.shape[1] for block in blocks) + width + 1,), dtype=np.uint8)
    lo = 0
    for axis, block in enumerate(blocks):
        shape = [1, 1, 1, block.shape[1]]
        shape[axis] = len(block)
        lines[..., lo : lo + block.shape[1]] = block.reshape(shape)
        lo += block.shape[1]
    _fill_digits(counts, lines[..., lo : lo + width])
    lines[..., -1] = ord("\n")
    return "m,h,s,count\n" + _compact(lines)


def _cmd_swap(args: argparse.Namespace) -> int:
    if args.p is None:
        raise CliError("p: a swap rate is required")
    rate = _parse_rate(args.p, "p")
    x = _load_input(args)
    params = PsaParams(float(rate), args.seed)
    run = run_psa_details(x, params)
    inv = swap_invariants(x)
    b = invariant_stratum_bound(inv)
    result = budget_mod.psa_budget(float(rate), b)

    _emit(_count_table_text(run.table), args.out)

    sidecar = {
        "p": _json_value(float(rate)),
        "seed": params.seed,
        "record_count": len(x),
        "b": b,
        "epsilon": _json_value(result.epsilon),
        "regime": result.regime,
        "odds": _json_value(result.odds),
        "raw_selection_rate": _json_value(run.raw_selection_rate),
        "effective_swap_rate": _json_value(run.effective_swap_rate),
        "selection_retries": run.selection_retries,
        "invariants": {
            "mh": inv.mh,
            "ms": inv.ms,
        },
        "labels": {
            "match": list(x.schema.match_labels) if x.schema else [],
            "hold": list(x.schema.hold_labels) if x.schema else [],
            "swap": list(x.schema.swap_labels) if x.schema else [],
        },
    }
    if args.sidecar:
        _emit_json(sidecar, args.sidecar)
    return EXIT_OK


# ---------------------------------------------------------------------------
# budget


BUDGET_COLUMNS = ("match", "swap", "b", "p", "epsilon", "regime")


def _budget_rows(args: argparse.Namespace) -> list[tuple[object, ...]]:
    """Rows under BUDGET_COLUMNS: the counterfactual schemes, or one (p, b)."""
    if args.table5:
        return [
            (row.match_vars, row.swap_vars, row.b, rate, res.epsilon, res.regime)
            for row in budget_mod.load_counterfactual_rows(args.counterfactual)
            for rate, res in row.budgets.items()
        ]
    if args.p is None:
        raise CliError("p: --p is required unless --table5 is given")
    rate = float(_parse_rate(args.p, "p"))
    if args.b is not None:
        b = args.b
    elif args.input:
        b = max_stratum_b(_load_input(args))
    else:
        raise CliError("b: give --b directly or --input/--roles to derive it")
    res = budget_mod.psa_budget(rate, b)
    return [("-", "-", b, rate, res.epsilon, res.regime)]


def _cmd_budget(args: argparse.Namespace) -> int:
    rows = _budget_rows(args)
    if args.format == "json":
        _emit_json([dict(zip(BUDGET_COLUMNS, map(_json_value, row))) for row in rows], args.out)
    else:
        _emit(_rows(BUDGET_COLUMNS, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# curve


def _cmd_curve(args: argparse.Namespace) -> int:
    if args.b is None:
        raise CliError("b: at least one stratum bound is required")
    b_values = _parse_int_list(args.b, "b")
    for b in b_values:
        if b < 2:
            raise CliError(f"b: curve values need b >= 2, got {b}")
    if args.p_values:
        grid = [float(rate) for rate in _parse_rates(args.p_values, "p-values")]
    else:
        count = args.p_grid
        if count < 2:
            raise CliError("p-grid: need at least 2 grid points")
        grid = [i / (count + 1) for i in range(1, count + 1)]
    rows = []
    for b in b_values:
        rows.extend((b, p, budget_mod.psa_budget(p, b).epsilon, "curve") for p in grid)
        eps_min, p_min = budget_mod.min_budget(b)
        rows.append((b, p_min, eps_min, "minimum"))
    _emit(_rows(("b", "p", "epsilon", "kind"), rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    p_values = _parse_rates(args.p_values, "p-values")
    if args.max_enumeration < 1:
        raise CliError(
            f"max-enumeration: the budget must be a positive integer, got {args.max_enumeration}"
        )
    if args.sweep:
        domain = _parse_int_list(args.domain, "domain")
        if len(domain) != 3:
            raise CliError("domain: expected M,H,S")
        if min(domain) < 1:
            raise CliError(f"domain: every axis needs at least one level, got {args.domain!r}")
        if args.max_records < 0:
            raise CliError(f"max-records: must be non-negative, got {args.max_records}")
        try:
            exact_mod._sweep_rates(p_values)
        except ValueError as exc:
            raise CliError(f"p-values: {exc}") from exc
        report = exact_mod.dp_sweep(
            domain=Domain(*domain),
            max_records=args.max_records,
            p_values=p_values,
            max_permutations=args.max_enumeration,
        )
        lines = [
            f"datasets={report.dataset_count} universes={report.universe_count} "
            f"pair_checks={report.pair_checks} connecting_checks={report.connecting_checks}",
        ]
        for failure in report.failures:
            lines.append(f"FAIL {failure}")
        lines.append("result=pass" if report.all_pass else "result=fail")
        _emit("\n".join(lines), args.out)
        return EXIT_OK if report.all_pass else EXIT_VERIFICATION

    x = _load_input(args)
    rows = exact_mod.universe_report(x, p_values, args.max_enumeration)
    columns = (
        "p", "b", "universe_size", "budget_epsilon", "measured_optimal", "passed", "expected_infinite",
    )
    _emit(_rows(columns, ([getattr(row, c) for c in columns] for row in rows)), args.out)
    return EXIT_OK if all(row.passed for row in rows) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# tda-report


def _cmd_tda_report(args: argparse.Namespace) -> int:
    report = budget_mod.census2020_report(
        delta=args.delta,
        zcdp_path=args.constants,
        counterfactual_path=args.counterfactual,
    )
    if args.format == "json":
        def budget_fields(entry: budget_mod.ConvertedBudget) -> dict:
            return {
                "rho_squared": entry.rho_squared,
                "epsilon": _json_value(entry.epsilon),
                "published_epsilon": entry.published_epsilon,
            }

        payload = {
            "delta": report.delta,
            "products": [
                {"label": p.label, **budget_fields(p), "invariants": p.note} for p in report.products
            ],
            "noise_stage_totals": [
                {
                    "label": t.label,
                    "rho_squared": _json_value(t.rho_squared),
                    "epsilon": _json_value(t.epsilon),
                }
                for t in report.noise_stage_totals
            ],
            "topdown_total": budget_fields(report.topdown_total),
            "overall": budget_fields(report.overall),
            "group_privacy": {
                "rho_squared": _json_value(report.group_privacy_rho_squared),
                "epsilon": _json_value(report.group_privacy_epsilon),
            },
            "counterfactual": [
                {
                    "match": c.match_vars,
                    "swap": c.swap_vars,
                    "b": c.b,
                    "largest_stratum": c.largest_stratum,
                    "epsilon": {fmt(r): _json_value(e) for r, e in c.epsilon_by_rate.items()},
                    "published": {fmt(r): e for r, e in c.published_by_rate.items()},
                }
                for c in report.counterfactual
            ],
            "notes": list(report.notes),
        }
        _emit_json(payload, args.out)
        return EXIT_OK

    converted = report.products + report.noise_stage_totals + (report.topdown_total, report.overall)
    counterfactual = [
        (c.match_vars, c.swap_vars, c.b, rate, c.epsilon_by_rate[rate],
         c.published_by_rate.get(rate, math.nan))
        for c in report.counterfactual
        for rate in sorted(c.epsilon_by_rate)
    ]
    lines = [
        f"zCDP budgets and conversions at delta={report.delta:g}",
        "",
        _rows(
            ("label", "rho_squared", "epsilon", "published_epsilon", "deviation"),
            [(c.label, c.rho_squared, c.epsilon, c.published_epsilon, c.deviation) for c in converted],
        ),
        "",
        f"group privacy (two records per unit): rho_squared={fmt(report.group_privacy_rho_squared)} "
        f"epsilon={fmt(report.group_privacy_epsilon)}",
        "",
        "counterfactual swapping schemes",
        _rows(("match", "swap", "b", "p", "epsilon", "published"), counterfactual),
        "",
        *(f"note: {note}" for note in report.notes),
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.strata is None:
        raise CliError("strata: stratum sizes are required")
    if args.out is None:
        raise CliError("out: an output path is required")
    sizes = _parse_int_list(args.strata, "strata")
    constant = set(_parse_int_list(args.constant, "constant")) if args.constant else set()
    for idx in constant:
        if idx < 0 or idx >= len(sizes):
            raise CliError(f"constant: stratum index {idx} out of range")
    specs = [
        StratumSpec(size=size, mixed=(i not in constant))
        for i, size in enumerate(sizes)
    ]
    x = synthesize(specs, args.hold_levels, args.swap_levels, args.seed)
    write_dataset_csv(x, args.out)
    if args.roles_out:
        # declared category lists make reloading lossless even when some
        # level never occurs in the generated records
        roles = {
            "match": ["match"],
            "hold": ["hold"],
            "swap": ["swap"],
            "categories": {
                "match": list(x.schema.match_labels),
                "hold": list(x.schema.hold_labels),
                "swap": list(x.schema.swap_labels),
            },
        }
        _emit_json(roles, args.roles_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# utility (experiment runner, used by the demo scripts)


def _cmd_utility(args: argparse.Namespace) -> int:
    rates = [float(rate) for rate in _parse_rates(args.rates or "", "rates")]
    if args.reps < 1:
        raise CliError(f"reps: at least one replication is required, got {args.reps}")
    reports = utility_experiment(_load_input(args), rates, args.reps, args.seed)
    _emit(utility_json(reports) if args.format == "json" else utility_csv(reports), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _config_value(action: argparse.Action, key: str, value: object) -> object:
    """Convert one config value the way argparse converts the flag's argument."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise CliError(f"config.{key}: expected true or false, got {value!r}")
        return value
    if value is None:
        return value
    converted = value
    if action.type is not None:
        try:
            converted = action.type(str(value))
        except (TypeError, ValueError) as exc:
            raise CliError(
                f"config.{key}: expected {action.type.__name__}, got {value!r}"
            ) from exc
    if action.choices is not None and converted not in action.choices:
        raise CliError(f"config.{key}: {value!r} is not one of {list(action.choices)}")
    return converted


def _apply_config(args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Fill unset options from a JSON config; explicit flags win.

    Each value goes through its option's argparse ``type``, as if it
    had been given on the command line.
    """
    if not getattr(args, "config", None):
        return
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise CliError(f"config file {args.config}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise CliError("config: top level must be an object")
    explicit = {
        token[2:].split("=", 1)[0].replace("-", "_")
        for token in argv
        if token.startswith("--")
    }
    actions = {action.dest: action for action in args.subparser._actions}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest in {"config", "help"} or dest not in actions:
            raise CliError(f"config.{key}: unknown option for this subcommand")
        if dest in explicit:
            continue
        setattr(args, dest, _config_value(actions[dest], key, value))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Sharing it is safe: each ``parse_args`` fills a fresh namespace, and
    ``_apply_config`` and the seed default write only to that namespace.
    """
    parser = argparse.ArgumentParser(
        prog="permuswap",
        description="Permutation swapping with exact privacy-loss accounting",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=None,
        help="JSON file supplying default option values; explicit flags override",
    )
    common.add_argument("--out", default=None, help="output path (default stdout; synth needs one)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", default=None)
    data.add_argument("--roles", default=None)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        # flags are matched in full, so the config's explicit-flag rule sees every flag given
        subparser = sub.add_parser(name, parents=[common, *parents], help=summary, allow_abbrev=False)
        subparser.set_defaults(func=func, subparser=subparser)
        return subparser

    swap = command("swap", _cmd_swap, "swap a CSV dataset and report the realized budget", data, seeded)
    swap.add_argument("--p", default=None)
    swap.add_argument("--sidecar", default=None, help="JSON sidecar path")

    bud = command("budget", _cmd_budget, "closed-form budget for (p, b)", data)
    bud.add_argument("--p", default=None)
    bud.add_argument("--b", type=int, default=None)
    bud.add_argument("--table5", action="store_true", help="emit the shipped counterfactual rows")
    bud.add_argument("--counterfactual", default=None, help="override the constants file")
    bud.add_argument("--format", choices=["csv", "json"], default="csv")

    curve = command("curve", _cmd_curve, "budget-vs-rate curve data with minimum markers")
    curve.add_argument("--b", default=None, help="comma-separated stratum bounds")
    curve.add_argument("--p-grid", type=int, default=99, help="interior grid size")
    curve.add_argument("--p-values", default=None, help="explicit comma-separated rates")

    verify = command("verify", _cmd_verify, "exact verification of the guarantee", data)
    verify.add_argument("--sweep", action="store_true", help="exhaustive small-domain sweep")
    verify.add_argument("--domain", default="2,2,2")
    verify.add_argument("--max-records", type=int, default=4)
    verify.add_argument("--p-values", default="1/10,3/10,1/2,7/10,9/10")
    verify.add_argument("--max-enumeration", type=int, default=exact_mod.DEFAULT_ENUMERATION_BUDGET)

    tda = command("tda-report", _cmd_tda_report, "2020 Census budget accounting")
    tda.add_argument("--delta", type=float, default=budget_mod.DEFAULT_DELTA)
    tda.add_argument("--constants", default=None)
    tda.add_argument("--counterfactual", default=None)
    tda.add_argument("--format", choices=["text", "json"], default="text")

    synth = command("synth", _cmd_synth, "synthetic microdata with controllable b", seeded)
    synth.add_argument("--strata", default=None, help="comma-separated stratum sizes")
    synth.add_argument("--constant", default=None, help="indices of constant strata")
    synth.add_argument("--hold-levels", type=int, default=2)
    synth.add_argument("--swap-levels", type=int, default=2)
    synth.add_argument("--roles-out", default=None)

    util = command("utility", _cmd_utility, "replicated error measurements per swap rate", data, seeded)
    util.add_argument("--rates", default=None)
    util.add_argument("--reps", type=int, default=20)
    util.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except exact_mod.EnumerationBudgetError as exc:
        print(f"error: enumeration guard: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except (CliError, LoadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

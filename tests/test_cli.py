import json
import subprocess
import sys

import pytest

from permuswap import load_dataset, load_roles, max_stratum_b, psa_budget, tabulate
from permuswap.budget import _data_path
from permuswap.cli import _build_parser, main

from conftest import FIXTURES, bom_crlf_copy


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def synth_files(tmp_path):
    csv = tmp_path / "data.csv"
    roles = tmp_path / "roles.json"
    code = run_cli(
        [
            "synth",
            "--strata",
            "6,4,3",
            "--constant",
            "2",
            "--hold-levels",
            "3",
            "--swap-levels",
            "3",
            "--seed",
            "21",
            "--out",
            csv,
            "--roles-out",
            roles,
        ]
    )
    assert code == 0
    return csv, roles


class TestSynth:
    def test_round_trips_and_controls_b(self, synth_files):
        csv, roles = synth_files
        x = load_dataset(csv, load_roles(roles))
        assert len(x.records) == 13
        assert max_stratum_b(x) == 6  # the constant stratum never counts

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(["synth", "--strata", "5,2", "--seed", "3", "--out", path])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_single_mixed_stratum_pins_b(self, tmp_path):
        csv = tmp_path / "one.csv"
        roles = tmp_path / "one.roles.json"
        run_cli(
            ["synth", "--strata", "7", "--seed", "0", "--out", csv, "--roles-out", roles]
        )
        x = load_dataset(csv, load_roles(roles))
        assert max_stratum_b(x) == 7

    def test_bad_constant_index(self, tmp_path):
        code = run_cli(
            ["synth", "--strata", "3", "--constant", "5", "--out", tmp_path / "x.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "strata, total",
        [("99999999999999999999", "99999999999999999999"), ("5000000000000000000," * 2, "10000000000000000000")],
        ids=["one size past int64", "sizes within int64, total past it"],
    )
    def test_record_count_past_int64_named_by_key(self, tmp_path, capsys, monkeypatch, strata, total):
        """A record count past int64, one stratum's or the total's, exits 2
        naming the key before any array is built (synth's numpy is gone
        for the run)."""
        from permuswap import synth

        monkeypatch.setattr(synth, "np", None)
        assert run_cli(["synth", "--strata", strata, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: strata: {total} records in all, more than int64 holds (9223372036854775807)\n"
        assert not (tmp_path / "x.csv").exists()

    def test_record_count_past_memory_named_by_key(self, tmp_path, capsys):
        """10^17 records fit int64 but their 2.4 * 10^18 bytes of codes
        cannot be allocated: the run exits 2 naming the key, and the
        array is refused without being allocated."""
        assert run_cli(["synth", "--strata", str(10**17), "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: strata: {10**17} records need {24 * 10**17} bytes, more than can be allocated\n"
        )
        assert not (tmp_path / "x.csv").exists()


class TestSwap:
    def test_rate_zero_reproduces_input_tabulation(self, synth_files, tmp_path):
        csv, roles = synth_files
        out = tmp_path / "table.csv"
        code = run_cli(
            ["swap", "--input", csv, "--roles", roles, "--p", "0", "--out", out]
        )
        assert code == 0
        x = load_dataset(csv, load_roles(roles))
        expected = tabulate(x)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,h,s,count"
        for line in lines[1:]:
            m, h, s, count = (int(v) for v in line.split(","))
            assert expected.counts[m, h, s] == count

    def test_byte_order_mark_and_crlf_input(self, synth_files, tmp_path):
        """A spreadsheet export (UTF-8 byte-order mark, CRLF) swaps like the plain file."""
        csv, roles = synth_files
        bom = bom_crlf_copy(csv, tmp_path / "bom.csv")
        tables = []
        for source in (csv, bom):
            out = tmp_path / f"{source.stem}.table.csv"
            code = run_cli(
                ["swap", "--input", source, "--roles", roles, "--p", "0.4", "--seed", "5", "--out", out]
            )
            assert code == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_byte_identical_reruns(self, synth_files, tmp_path):
        csv, roles = synth_files
        blobs = []
        for tag in ("1", "2"):
            out = tmp_path / f"t{tag}.csv"
            side = tmp_path / f"s{tag}.json"
            code = run_cli(
                [
                    "swap",
                    "--input",
                    csv,
                    "--roles",
                    roles,
                    "--p",
                    "0.4",
                    "--seed",
                    "77",
                    "--out",
                    out,
                    "--sidecar",
                    side,
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes() + side.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sidecar_reports_realized_budget(self, synth_files, tmp_path):
        csv, roles = synth_files
        side = tmp_path / "side.json"
        run_cli(
            [
                "swap", "--input", csv, "--roles", roles, "--p", "0.25",
                "--seed", "5", "--out", tmp_path / "t.csv", "--sidecar", side,
            ]
        )
        payload = json.loads(side.read_text(encoding="utf-8"))
        assert payload["b"] == 6
        expected = psa_budget(0.25, 6).epsilon
        assert payload["epsilon"] == pytest.approx(expected, abs=1e-6)
        assert payload["regime"] == "low-p"
        assert payload["record_count"] == 13
        assert payload["invariants"]["mh"]
        assert 0 <= payload["raw_selection_rate"] <= 1

    def test_large_synthetic_stratum_budget(self, tmp_path):
        """End to end on a stratum the size of a two-person-household
        count: b = 264,331 at p = 1% converts to 17.08."""
        csv = tmp_path / "big.csv"
        roles = tmp_path / "big.roles.json"
        assert (
            run_cli(
                [
                    "synth", "--strata", "264331", "--hold-levels", "2",
                    "--swap-levels", "14", "--seed", "1",
                    "--out", csv, "--roles-out", roles,
                ]
            )
            == 0
        )
        side = tmp_path / "side.json"
        code = run_cli(
            [
                "swap", "--input", csv, "--roles", roles, "--p", "0.01",
                "--seed", "2", "--out", tmp_path / "t.csv", "--sidecar", side,
            ]
        )
        assert code == 0
        payload = json.loads(side.read_text(encoding="utf-8"))
        assert payload["b"] == 264331
        assert payload["epsilon"] == pytest.approx(17.08, abs=0.005)
        # the realized selection rate concentrates near p
        assert payload["raw_selection_rate"] == pytest.approx(0.01, abs=0.002)

    def test_invalid_rate_is_validation_error(self, synth_files, tmp_path):
        csv, roles = synth_files
        code = run_cli(
            ["swap", "--input", csv, "--roles", roles, "--p", "1.5", "--out", tmp_path / "t.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize("bom, newline", [(b"", b"\n"), (b"\xef\xbb\xbf", b"\r\n")])
    def test_non_utf8_input_names_file_and_line(self, synth_files, tmp_path, capsys, bom, newline):
        """The line number counts the blank line, as the field-count error does."""
        csv, roles = synth_files
        header, first, second = csv.read_bytes().splitlines()[:3]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(bom + newline.join([header, first, b"", second + b"\xff", b""]))
        code = run_cli(
            ["swap", "--input", bad, "--roles", roles, "--p", "0.4", "--out", tmp_path / "t.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}:4: not valid UTF-8\n"

    def test_non_utf8_roles_file_named(self, synth_files, tmp_path, capsys):
        csv, _ = synth_files
        roles = tmp_path / "roles.json"
        roles.write_bytes(b'{"hold": ["hold"], "swap": ["sw\xffap"]}')
        code = run_cli(
            ["swap", "--input", csv, "--roles", roles, "--p", "0.4", "--out", tmp_path / "t.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: roles file {roles}: not valid UTF-8\n"


class TestBudgetCommand:
    def test_direct_pair(self, capsys):
        assert run_cli(["budget", "--p", "0.05", "--b", "3948028"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "match,swap,b,p,epsilon,regime"
        fields = out[1].split(",")
        assert float(fields[4]) == pytest.approx(18.13, abs=0.01)

    def test_zero_bound(self, capsys):
        assert run_cli(["budget", "--p", "0.5", "--b", "0"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[4]) == 0.0
        assert fields[5] == "zero-b"

    def test_table5_flag(self, capsys):
        assert run_cli(["budget", "--table5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13  # header + 6 schemes x 2 rates
        published = {
            (13475623, 0.05): 19.36,
            (13475623, 0.5): 16.42,
            (3948028, 0.05): 18.13,
            (3948028, 0.5): 15.19,
            (3420628, 0.05): 17.99,
            (3420628, 0.5): 15.05,
            (939185, 0.05): 16.70,
            (939185, 0.5): 13.75,
            (6204, 0.05): 11.68,
            (6204, 0.5): 8.73,
            (4549, 0.05): 11.37,
            (4549, 0.5): 8.42,
        }
        for line in lines[1:]:
            fields = line.split(",")
            key = (int(fields[2]), float(fields[3]))
            assert float(fields[4]) == pytest.approx(published[key], abs=0.01)

    def test_derives_b_from_input(self, synth_files, capsys):
        csv, roles = synth_files
        assert run_cli(["budget", "--p", "0.3", "--input", csv, "--roles", roles]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert int(fields[2]) == 6

    def test_missing_parameters(self):
        assert run_cli(["budget", "--p", "0.3"]) == 2

    def test_json_serializes_infinity_as_string(self, capsys):
        assert run_cli(["budget", "--p", "1", "--b", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["epsilon"] == "inf"


class TestCurveCommand:
    def test_minimum_markers(self, capsys):
        assert run_cli(["curve", "--b", "10,1000000", "--p-grid", "19"]) == 0
        lines = capsys.readouterr().out.splitlines()
        markers = [l for l in lines if l.endswith(",minimum")]
        assert len(markers) == 2
        b10 = markers[0].split(",")
        assert float(b10[2]) == pytest.approx(1.20, abs=0.005)
        assert float(b10[1]) == pytest.approx(0.768, abs=0.001)
        b1m = markers[1].split(",")
        assert float(b1m[2]) == pytest.approx(6.91, abs=0.005)
        assert float(b1m[1]) == pytest.approx(0.999, abs=0.001)

    def test_curve_shape(self, capsys):
        assert run_cli(["curve", "--b", "50", "--p-grid", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [l.split(",") for l in lines[1:] if l.endswith(",curve")]
        eps = [float(r[2]) for r in rows]
        minimum = eps.index(min(eps))
        assert eps[:minimum] == sorted(eps[:minimum], reverse=True)
        assert eps[minimum:] == sorted(eps[minimum:])

    def test_small_b_rejected(self):
        assert run_cli(["curve", "--b", "1"]) == 2


class TestVerifyCommand:
    def test_fixture_universe_report(self, capsys):
        code = run_cli(
            [
                "verify",
                "--input",
                FIXTURES / "witness_two_record.csv",
                "--roles",
                FIXTURES / "witness_two_record.roles.json",
                "--p-values",
                "1/10,1/2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("p,b,universe_size")
        assert all(line.split(",")[5] == "true" for line in lines[1:])

    def test_endpoint_fixture_flagged_expected_infinite(self, capsys):
        code = run_cli(
            [
                "verify",
                "--input",
                FIXTURES / "witness_rate_zero.csv",
                "--roles",
                FIXTURES / "witness_rate_zero.roles.json",
                "--p-values",
                "0",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1]
        fields = line.split(",")
        assert fields[4] == "inf"
        assert fields[6] == "true"

    def test_small_sweep_passes(self, capsys):
        code = run_cli(
            [
                "verify", "--sweep", "--domain", "2,2,2", "--max-records", "2",
                "--p-values", "1/10,1/2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "result=pass" in out

    def test_enumeration_guard_exit_code(self, tmp_path):
        csv = tmp_path / "big.csv"
        roles = tmp_path / "big.roles.json"
        run_cli(
            ["synth", "--strata", "40", "--seed", "0", "--out", csv, "--roles-out", roles]
        )
        code = run_cli(
            [
                "verify", "--input", csv, "--roles", roles,
                "--p-values", "1/2", "--max-enumeration", "1000",
            ]
        )
        assert code == 4

    def test_two_strata_past_the_composite_guard(self, tmp_path, capsys):
        """Two ten-record strata with margins (5, 5) on 1x2x2: their
        10!^2 composite permutations exceed the default guard, but each
        stratum's 10! does not, and the universe is measured one stratum
        at a time.  The rows are the single stratum's, with 6 x 6 tables."""
        stratum = ["h0,s0"] * 3 + ["h0,s1"] * 2 + ["h1,s0"] * 2 + ["h1,s1"] * 3
        roles = tmp_path / "roles.json"
        roles.write_text(json.dumps({"match": ["match"], "hold": ["hold"], "swap": ["swap"]}), encoding="utf-8")
        rows = []
        for matches in (["m0"], ["m0", "m1"]):
            csv = tmp_path / f"strata{len(matches)}.csv"
            lines = [f"{m},{record}\n" for m in matches for record in stratum]
            csv.write_text("match,hold,swap\n" + "".join(lines), encoding="utf-8")
            assert run_cli(["verify", "--input", csv, "--roles", roles, "--p-values", "1/10,1/2"]) == 0
            rows.append([line.split(",") for line in capsys.readouterr().out.splitlines()])
        single, double = rows
        assert [row[2] for row in single[1:]] == ["6", "6"]
        assert [row[2] for row in double[1:]] == ["36", "36"]
        assert [row[:2] + row[3:] for row in double] == [row[:2] + row[3:] for row in single]
        assert all(row[1] == "10" and row[5] == "true" for row in double[1:])

    def test_default_guard_counts_pair_counts(self, tmp_path, capsys, monkeypatch):
        """The default guard holds a stratum universe of U tables of n
        records to its U**2 (n + 1) pair counts: the b = 12 ratio witness
        (160 tables) answers with the CI step's rows, while one record per
        diagonal cell of 1x7x7 or 1x8x8 (7! or 8! tables) exits 4 before
        any pair count is built."""
        name = "witness_ratio_b12"
        argv = ["verify", "--input", FIXTURES / f"{name}.csv", "--roles", FIXTURES / f"{name}.roles.json"]
        assert run_cli(argv + ["--p-values", "1/10,783/1000,9/10"]) == 0
        assert capsys.readouterr().out == (
            "p,b,universe_size,budget_epsilon,measured_optimal,passed,expected_infinite\n"
            "0.100000,12,160,4.762174,4.638626,true,false\n"
            "0.783000,12,160,1.283235,1.158166,true,false\n"
            "0.900000,12,160,2.197225,0.244176,true,false\n"
        )
        import permuswap.exact as exact_mod

        calls = []
        monkeypatch.setattr(exact_mod, "_pair_kernel", lambda *args: calls.append(args))
        eight = tmp_path / "diagonal_8x8.csv"
        eight.write_text("match,hold,swap\n" + "".join(f"m0,h{i},s{i}\n" for i in range(8)), encoding="utf-8")
        eight_roles = tmp_path / "diagonal_8x8.roles.json"
        eight_roles.write_text(json.dumps({"match": ["match"], "hold": ["hold"], "swap": ["swap"]}), encoding="utf-8")
        for csv, roles in ((FIXTURES / "diagonal_7x7.csv", FIXTURES / "diagonal_7x7.roles.json"), (eight, eight_roles)):
            assert run_cli(["verify", "--input", csv, "--roles", roles, "--p-values", "1/2"]) == 4
            assert capsys.readouterr().err.endswith("pair counts exceed the budget of 10000000\n")
        assert calls == []

    def test_stratum_twice_gives_the_stratum_rows(self, capsys):
        """The b = 6 ratio witness in two strata, as the CI step runs it:
        the rows of the one-stratum fixture, with 58 x 58 = 3,364 tables."""
        for name in ("witness_ratio_b6", "witness_ratio_b6_two_strata"):
            argv = ["verify", "--input", FIXTURES / f"{name}.csv", "--roles", FIXTURES / f"{name}.roles.json"]
            assert run_cli(argv + ["--p-values", "1/10,1/2,9/10"]) == 0
        one, two = capsys.readouterr().out.split("p,b,")[1:]
        assert two == one.replace(",58,", ",3364,")
        assert two.count(",3364,") == 3

    @pytest.mark.parametrize("budget, code", [(1000, 4), (1287, 0)])
    def test_sweep_guard_counts_datasets_first(self, capsys, monkeypatch, budget, code):
        """2x2x2 with up to 5 records has C(8 + 5, 5) = 1,287 datasets:
        a budget below that exits 4 before one is enumerated."""
        import permuswap.exact as exact_mod

        if code == 4:
            def unbuilt(*args):
                raise AssertionError("datasets enumerated past the guard")

            monkeypatch.setattr(exact_mod, "_small_count_rows", unbuilt)
        argv = [
            "verify", "--sweep", "--domain", "2,2,2", "--max-records", "5",
            "--p-values", "1/2", "--max-enumeration", str(budget),
        ]
        assert run_cli(argv) == code
        captured = capsys.readouterr()
        if code == 4:
            assert captured.err.startswith("error: enumeration guard: 1287 datasets")
            assert captured.out == ""
        else:
            assert captured.out.endswith("result=pass\n")

    def test_validation_error(self):
        assert run_cli(["verify", "--p-values", "1/2"]) == 2

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--sweep", "--max-records", "-1"], "max-records"),
            (["--sweep", "--domain", "0,2,2"], "domain"),
            (["--sweep", "--max-enumeration", "-5"], "max-enumeration"),
            (["--input", FIXTURES / "witness_odds.csv", "--roles",
              FIXTURES / "witness_odds.roles.json", "--max-enumeration", "-5"], "max-enumeration"),
        ],
    )
    def test_out_of_range_flags_name_their_key(self, capsys, flags, key):
        code = run_cli(["verify", "--p-values", "1/2"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {key}:")
        assert captured.out == ""

    @pytest.mark.parametrize("rates, outside", [("0,1/2", "0"), ("1/10,1,1/2", "1")])
    def test_sweep_rejects_endpoint_rates(self, capsys, rates, outside):
        """An endpoint rate is refused, not dropped from the sweep."""
        code = run_cli(["verify", "--sweep", "--domain", "1,2,2", "--max-records", "2", "--p-values", rates])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: p-values:")
        assert captured.err.rstrip().endswith(f"got {outside}")
        assert captured.out == ""

    def test_sweep_rejects_repeated_rates(self, capsys):
        """1/2 and 0.5 are one rate: the sweep would count its pairs twice
        and report it once."""
        code = run_cli(
            ["verify", "--sweep", "--domain", "2,2,2", "--max-records", "2", "--p-values", "1/2,0.5"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: p-values: the sweep needs distinct rates, got 1/2 again\n"
        assert captured.out == ""

    # 1,1,2 and 2,1,3 have one hold or swap level: every universe is a singleton
    @pytest.mark.parametrize("domain", ["1,2,2", "1,1,2", "2,1,3"])
    def test_sweep_runs_past_eight_records(self, capsys, domain):
        """The connecting check reads its minimum off the oracle's
        histograms, so no record count is refused up front."""
        assert run_cli(
            [
                "verify", "--sweep", "--domain", domain, "--max-records", "9",
                "--p-values", "1/2",
            ]
        ) == 0
        assert "result=pass" in capsys.readouterr().out

    def test_detected_violation_exits_three(self, capsys, monkeypatch):
        """An understated budget must be caught by the sweep and turn
        into the verification-failure exit code."""
        import permuswap.exact as exact_mod
        from permuswap.budget import BudgetResult

        def understated(p, b):
            return BudgetResult(0.0, "zero-b", p, 0, 0.0)

        monkeypatch.setattr(exact_mod, "psa_budget", understated)
        code = run_cli(
            [
                "verify", "--sweep", "--domain", "1,2,2", "--max-records", "2",
                "--p-values", "1/10",
            ]
        )
        assert code == 3
        assert "result=fail" in capsys.readouterr().out


class TestTdaReport:
    def test_text_report_rows(self, capsys):
        assert run_cli(["tda-report"]) == 0
        out = capsys.readouterr().out
        assert "PL+DHC,15.290000,52.816804,52.830000" in out
        assert "2020-overall,55.371000,126.784287,126.780000" in out
        assert "PL/household" in out  # the flagged conversion discrepancy
        assert "group privacy" in out

    def test_json_report(self, capsys):
        assert run_cli(["tda-report", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"]["rho_squared"] == pytest.approx(55.371)
        assert payload["overall"]["epsilon"] == pytest.approx(126.784287, abs=1e-4)
        assert payload["group_privacy"]["rho_squared"] == pytest.approx(221.484)
        assert len(payload["counterfactual"]) == 6
        assert any("PL/household" in n for n in payload["notes"])

    def test_missing_constants_file(self, tmp_path):
        assert run_cli(["tda-report", "--constants", tmp_path / "nope.tsv"]) == 2

    @pytest.mark.parametrize(
        "product, rho_squared, message",
        [
            ("PL+DHC", "15.3", "TopDown rows sum to"),
            ("2020-overall", "55.4", "products sum to"),
            ("2020-overall", None, "missing the composite reference rows"),
        ],
    )
    def test_inconsistent_constants_rejected(self, tmp_path, capsys, product, rho_squared, message):
        """A copy of the shipped constants with one composite row changed
        (or deleted, when rho_squared is None) fails the composition check."""
        lines = []
        for line in _data_path("census_zcdp.tsv").read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            if fields[0] == product:
                if rho_squared is None:
                    continue
                fields[3] = rho_squared
            lines.append("\t".join(fields))
        constants = tmp_path / "census_zcdp.tsv"
        constants.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(["tda-report", "--constants", constants]) == 2
        assert message in capsys.readouterr().err


class TestUtilityCommand:
    def test_csv_output(self, synth_files, capsys):
        csv, roles = synth_files
        code = run_cli(
            [
                "utility", "--input", csv, "--roles", roles,
                "--rates", "0.0,0.5", "--reps", "3", "--seed", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rate,rep,mape"
        assert len(lines) == 7
        zero_rows = [l for l in lines[1:] if l.startswith("0.000000,")]
        assert all(l.endswith(",0.000000") for l in zero_rows)

    def test_zero_reps_named_by_key(self, synth_files, capsys):
        csv, roles = synth_files
        code = run_cli(["utility", "--input", csv, "--roles", roles, "--rates", "0.5", "--reps", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: reps: at least one replication is required, got 0\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["swap", "--p", "2"], "p"),
        (["utility", "--rates", "0.5,2"], "rates"),
        (["utility", "--rates", ","], "rates"),
        (["utility", "--rates", "0.5", "--reps", "0"], "reps"),
        (["utility", "--rates", "0.5", "--reps", "-3"], "reps"),
    ],
)
def test_flags_checked_before_input_is_read(tmp_path, capsys, argv, key):
    """A bad flag is reported by its key, even when the input file is missing."""
    roles = FIXTURES / "witness_odds.roles.json"
    code = run_cli(argv + ["--input", tmp_path / "missing.csv", "--roles", roles])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {key}:")


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"p": "0.05", "b": 3948028}), encoding="utf-8")
        assert run_cli(["budget", "--config", config]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[4]) == pytest.approx(18.13, abs=0.01)

    def test_explicit_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"p": "0.05", "b": 3948028}), encoding="utf-8")
        assert run_cli(["budget", "--config", config, "--b", "0"]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert fields[5] == "zero-b"

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"p": "0.05", "b": 3948028}), encoding="utf-8")
        config = bom_crlf_copy(plain, tmp_path / "budget.json")
        assert run_cli(["budget", "--config", config]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(fields[4]) == pytest.approx(18.13, abs=0.01)

    def test_non_utf8_config_named(self, tmp_path, capsys):
        config = tmp_path / "budget.json"
        config.write_bytes(b'{"p": "0.\xff5", "b": 3}')
        assert run_cli(["budget", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config file {config}: not valid UTF-8\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "budget.json"
        config.write_text(json.dumps({"teapot": 418}), encoding="utf-8")
        assert run_cli(["budget", "--config", config, "--p", "0.5", "--b", "2"]) == 2

    def test_config_seed_feeds_synth(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"seed": 3, "strata": "5,2"}), encoding="utf-8")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["synth", "--config", config, "--out", a])
        run_cli(["synth", "--strata", "5,2", "--seed", "3", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_config_string_reps_converted(self, synth_files, tmp_path, capsys):
        csv, roles = synth_files
        config = tmp_path / "utility.json"
        config.write_text(json.dumps({"reps": "5"}), encoding="utf-8")
        code = run_cli(
            ["utility", "--config", config, "--input", csv, "--roles", roles, "--rates", "0.5"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_config_string_max_records_converted(self, tmp_path, capsys):
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"max_records": "3"}), encoding="utf-8")
        code = run_cli(["verify", "--sweep", "--config", config, "--domain", "1,2,2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "result=pass"

    def test_abbreviated_flag_refused_not_beaten_by_config(self, tmp_path, capsys):
        """Flags are spelled in full: an abbreviation exits 2 naming it,
        where it once parsed as --max-records and the config's value, which
        only full spellings override, replaced it (15 datasets, not 70)."""
        config = tmp_path / "verify.json"
        config.write_text(json.dumps({"max-records": 2}), encoding="utf-8")
        argv = ["verify", "--sweep", "--domain", "1,2,2", "--p-values", "1/2", "--config", config]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--max-rec", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-rec 4" in capsys.readouterr().err
        assert run_cli(argv + ["--max-records", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-2].startswith("datasets=70 ")

    @pytest.mark.parametrize(
        "argv, entry",
        [
            (["synth", "--strata", "3"], {"seed": "abc"}),
            (["budget", "--p", "0.5", "--b", "2"], {"format": "xml"}),
            (["verify"], {"sweep": "yes"}),
        ],
    )
    def test_config_bad_value_names_key(self, tmp_path, capsys, argv, entry):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry), encoding="utf-8")
        code = run_cli(argv + ["--config", config, "--out", tmp_path / "out.txt"])
        assert code == 2
        assert f"config.{next(iter(entry))}:" in capsys.readouterr().err


class TestEnvironmentSeed:
    def test_env_var_supplies_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMUSWAP_SEED", "99")
        a = tmp_path / "a.csv"
        run_cli(["synth", "--strata", "4", "--out", a])
        monkeypatch.setenv("PERMUSWAP_SEED", "100")
        b = tmp_path / "b.csv"
        run_cli(["synth", "--strata", "4", "--out", b])
        monkeypatch.setenv("PERMUSWAP_SEED", "99")
        c = tmp_path / "c.csv"
        run_cli(["synth", "--strata", "4", "--out", c])
        assert a.read_bytes() == c.read_bytes()
        assert a.read_bytes() != b.read_bytes()

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path, monkeypatch):
        """One parser serves every call in a process: a config default
        from one call must not reach the next, and the seed variable is
        read on each call."""
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"seed": 3, "strata": "5,2"}), encoding="utf-8")
        out = {name: tmp_path / f"{name}.csv" for name in "abcd"}
        monkeypatch.setenv("PERMUSWAP_SEED", "8")
        assert run_cli(["synth", "--config", config, "--out", out["a"]]) == 0
        assert run_cli(["synth", "--strata", "5,2", "--out", out["b"]]) == 0
        monkeypatch.setenv("PERMUSWAP_SEED", "3")
        assert run_cli(["synth", "--strata", "5,2", "--out", out["c"]]) == 0
        assert run_cli(["synth", "--strata", "5,2", "--seed", "8", "--out", out["d"]]) == 0
        data = {name: path.read_bytes() for name, path in out.items()}
        assert data["a"] == data["c"] != data["b"] == data["d"]
        assert run_cli(["synth", "--out", tmp_path / "e.csv"]) == 2
        assert _build_parser() is _build_parser()

    def test_bad_env_var_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMUSWAP_SEED", "not-a-number")
        assert run_cli(["synth", "--strata", "4", "--out", tmp_path / "x.csv"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "permuswap", "budget", "--p", "0.5", "--b", "10"],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "low-p" in proc.stdout


@pytest.mark.parametrize("rate, rounded", [("1e-400", "0.0"), ("0.99999999999999999999", "1.0")])
@pytest.mark.parametrize(
    "argv, key",
    [
        (["swap", "--p", "{rate}", "--sidecar", "{out}"], "p"),
        (["budget", "--p", "{rate}", "--b", "4"], "p"),
        (["curve", "--b", "4", "--p-values", "1/2,{rate}"], "p-values"),
        (["verify", "--sweep", "--domain", "1,2,2", "--max-records", "3", "--p-values", "{rate}"], "p-values"),
        (["verify", "--p-values", "1/2,{rate}"], "p-values"),
        (["utility", "--rates", "{rate}", "--reps", "2"], "rates"),
    ],
    ids=["swap", "budget", "curve", "verify-sweep", "verify-input", "utility"],
)
def test_rate_that_rounds_to_an_endpoint_names_its_key(
    capsys, synth_files, tmp_path, argv, key, rate, rounded
):
    """A rate strictly inside (0, 1) whose float is 0.0 or 1.0 would run
    at that endpoint: swap at p = 0, a sweep against an infinite budget.
    Every subcommand refuses it before reading the input."""
    csv, roles = synth_files
    out = tmp_path / "sidecar.json"
    args = [a.format(rate=rate, out=out) for a in argv]
    if args[0] in ("swap", "verify", "utility") and "--sweep" not in args:
        args += ["--input", csv, "--roles", roles]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {key}: rate {rate!r} lies inside (0, 1) but rounds to {rounded} as a float\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key, token",
    [
        (["swap", "--p", "1.5", "--sidecar", "{out}"], "p", "1.5"),
        (["budget", "--p", "1.5", "--b", "4"], "p", "1.5"),
        (["verify", "--p-values", "1/2,nan"], "p-values", "nan"),
        (["curve", "--b", "4", "--p-values", "1/2,nan"], "p-values", "nan"),
        (["utility", "--rates", "1/2,-inf", "--reps", "2"], "rates", "-inf"),
    ],
    ids=["swap", "budget", "verify", "curve", "utility"],
)
def test_rate_outside_the_unit_interval_names_its_key(capsys, synth_files, tmp_path, argv, key, token):
    """The package's rate reader refuses a rate outside [0, 1], NaN and
    the infinities included; the CLI passes its refusal on with the key
    and the token, exit code 2, before reading the input."""
    csv, roles = synth_files
    out = tmp_path / "sidecar.json"
    args = [a.format(out=out) for a in argv]
    if args[0] in ("swap", "verify", "utility"):
        args += ["--input", csv, "--roles", roles]
    code = run_cli(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {key}: rate {token!r} refused: rate must lie in [0, 1]\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["curve", "--b", "4", "--p-values"], "p-values"),
        (["verify", "--p-values"], "p-values"),
        (["utility", "--reps", "2", "--rates"], "rates"),
    ],
    ids=["curve", "verify", "utility"],
)
def test_rate_lists_skip_empty_tokens(capsys, argv, key):
    """Every rate list reads ",1/2," as "1/2", and one with no rate at
    all names its key."""
    if argv[0] != "curve":
        argv = argv[:1] + ["--input", FIXTURES / "witness_two_record.csv",
                           "--roles", FIXTURES / "witness_two_record.roles.json"] + argv[1:]
    outputs = []
    for rates in ("1/2", ",1/2,"):
        assert run_cli(argv + [rates]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
    assert run_cli(argv + [","]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key}: at least one rate is required\n"
    assert captured.out == ""

import json

import pytest

from permuswap import (
    Dataset,
    LoadError,
    RoleAssignment,
    cross_classify,
    load_dataset,
    load_roles,
    read_csv_columns,
    synthesize,
    tabulate,
    write_dataset_csv,
)
from permuswap.synth import StratumSpec

from conftest import FIXTURES, bom_crlf_copy


class TestCrossClassify:
    def test_two_hold_columns_collapse_lexicographically(self):
        columns = {
            "a": ["x", "x", "y"],
            "b": ["p", "r", "q"],
            "sw": ["0", "0", "1"],
        }
        roles = RoleAssignment(
            match=(),
            hold=("a", "b"),
            swap=("sw",),
            categories={"a": ("x", "y"), "b": ("p", "q", "r")},
        )
        x = cross_classify(columns, roles)
        assert x.domain.hold == 6
        # index = 3*i_a + i_b
        assert [r.h for r in x.records] == [0, 2, 4]
        assert x.schema.hold_labels[2] == "x|r"

    def test_empty_match_role_gives_constant_axis(self):
        columns = {"h": ["a", "b"], "s": ["u", "v"]}
        roles = RoleAssignment(match=(), hold=("h",), swap=("s",))
        x = cross_classify(columns, roles)
        assert x.domain.match == 1
        assert all(r.m == 0 for r in x.records)

    def test_three_roles_direct_mapping(self):
        columns = {
            "state": ["MA", "MA", "NY"],
            "ownership": ["own", "rent", "own"],
            "county": ["c1", "c2", "c1"],
        }
        roles = RoleAssignment(match=("state",), hold=("ownership",), swap=("county",))
        x = cross_classify(columns, roles)
        assert x.domain == (2, 2, 2)
        assert x.records[0].m == x.records[1].m == 0
        assert x.records[2].m == 1

    def test_cross_classify_then_tabulate_equals_direct_count(self):
        columns = {
            "state": ["MA", "MA", "MA"],
            "ownership": ["own", "own", "rent"],
            "county": ["c1", "c1", "c2"],
        }
        roles = RoleAssignment(match=("state",), hold=("ownership",), swap=("county",))
        t = tabulate(cross_classify(columns, roles))
        assert t.counts[0, 0, 0] == 2
        assert t.counts[0, 1, 1] == 1

    def test_unassigned_column_rejected(self):
        columns = {"h": ["a"], "s": ["u"], "mystery": ["?"]}
        roles = RoleAssignment(match=(), hold=("h",), swap=("s",))
        with pytest.raises(LoadError, match="mystery"):
            cross_classify(columns, roles)

    def test_role_for_missing_column_rejected(self):
        columns = {"h": ["a"], "s": ["u"]}
        roles = RoleAssignment(match=("nope",), hold=("h",), swap=("s",))
        with pytest.raises(LoadError, match="nope"):
            cross_classify(columns, roles)

    def test_label_outside_declared_categories_rejected(self):
        columns = {"h": ["a", "z"], "s": ["u", "u"]}
        roles = RoleAssignment(
            match=(), hold=("h",), swap=("s",), categories={"h": ("a", "b")}
        )
        with pytest.raises(LoadError, match="'z'"):
            cross_classify(columns, roles)

    def test_declared_category_order_wins_over_lexicographic(self):
        columns = {"h": ["a", "b"], "s": ["u", "u"]}
        roles = RoleAssignment(
            match=(), hold=("h",), swap=("s",), categories={"h": ("b", "a")}
        )
        x = cross_classify(columns, roles)
        assert [r.h for r in x.records] == [1, 0]

    def test_duplicate_role_assignment_rejected(self):
        with pytest.raises(LoadError, match="more than one role"):
            RoleAssignment(match=("c",), hold=("c",), swap=("s",))

    def test_empty_hold_rejected(self):
        with pytest.raises(LoadError, match="hold"):
            RoleAssignment(match=(), hold=(), swap=("s",))


class TestCsvReading:
    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n1,2,3\n", encoding="utf-8")
        with pytest.raises(LoadError, match="bad.csv:3"):
            read_csv_columns(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,a\n1,2\n", encoding="utf-8")
        with pytest.raises(LoadError, match="duplicate"):
            read_csv_columns(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(LoadError, match="header"):
            read_csv_columns(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1,2\n\n3,4\n", encoding="utf-8")
        cols = read_csv_columns(path)
        assert cols["a"] == ["1", "3"]

    def test_byte_order_mark_and_crlf_load_like_plain(self, tmp_path):
        plain = FIXTURES / "witness_odds.csv"
        bom = bom_crlf_copy(plain, tmp_path / "bom.csv")
        assert read_csv_columns(bom) == read_csv_columns(plain)
        roles = load_roles(FIXTURES / "witness_odds.roles.json")
        assert load_dataset(bom, roles) == load_dataset(plain, roles)


class TestRolesFile:
    def test_errors_reference_offending_key(self, tmp_path):
        path = tmp_path / "roles.json"
        path.write_text(json.dumps({"hold": "notalist", "swap": ["s"]}), encoding="utf-8")
        with pytest.raises(LoadError, match="roles.hold"):
            load_roles(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "roles.json"
        path.write_text(json.dumps({"hold": ["h"], "swap": ["s"], "extra": 1}), encoding="utf-8")
        with pytest.raises(LoadError, match="roles.extra"):
            load_roles(path)

    def test_byte_order_mark_dropped(self, tmp_path):
        plain = FIXTURES / "witness_odds.roles.json"
        bom = bom_crlf_copy(plain, tmp_path / "roles.json")
        assert load_roles(bom) == load_roles(plain)

    def test_round_trips(self, tmp_path):
        path = tmp_path / "roles.json"
        path.write_text(
            json.dumps(
                {
                    "match": ["m"],
                    "hold": ["h"],
                    "swap": ["s"],
                    "categories": {"m": ["a", "b"]},
                }
            ),
            encoding="utf-8",
        )
        roles = load_roles(path)
        assert roles.match == ("m",)
        assert roles.categories["m"] == ("a", "b")


class TestWriting:
    def test_synth_round_trips_losslessly(self, tmp_path):
        x = synthesize(
            [StratumSpec(5), StratumSpec(3, mixed=False), StratumSpec(4)],
            hold_levels=3,
            swap_levels=4,
            seed=7,
        )
        path = tmp_path / "synth.csv"
        write_dataset_csv(x, path)
        roles = RoleAssignment(
            match=("match",),
            hold=("hold",),
            swap=("swap",),
            categories={
                "match": x.schema.match_labels,
                "hold": x.schema.hold_labels,
                "swap": x.schema.swap_labels,
            },
        )
        reloaded = load_dataset(path, roles)
        assert reloaded == x

    def test_comma_label_rejected_on_write(self, tmp_path):
        x = synthesize([StratumSpec(2)], 2, 2, seed=0)
        bad_schema = x.schema.__class__(
            match_columns=("match",),
            hold_columns=("hold",),
            swap_columns=("swap",),
            match_labels=("m,0",),
            hold_labels=("h0", "h1"),
            swap_labels=("s0", "s1"),
        )
        bad = Dataset(x.records, x.domain, bad_schema)
        with pytest.raises(LoadError, match="comma"):
            write_dataset_csv(bad, tmp_path / "bad.csv")

    @pytest.mark.parametrize("label", ["m\n0", "m\r0", "m\x0c0", "m\u20280", "m\x850"])
    def test_line_break_label_rejected_on_write(self, tmp_path, label):
        """Every break the reader splits lines at, not only \\n and \\r."""
        x = synthesize([StratumSpec(2)], 2, 2, seed=0)
        schema = x.schema.__class__(
            match_columns=("match",),
            hold_columns=("hold",),
            swap_columns=("swap",),
            match_labels=(label,),
            hold_labels=("h0", "h1"),
            swap_labels=("s0", "s1"),
        )
        with pytest.raises(LoadError, match="newlines are not writable"):
            write_dataset_csv(Dataset(x.records, x.domain, schema), tmp_path / "bad.csv")

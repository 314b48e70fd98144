import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpflows import (
    bv_hypothesis, catalan_graph, catalan_netflow, catalan_number, catalan_product, count,
)
from kpflows.cli import run_cli
import kpflows.cli as cli
import kpflows.identities as identities


@pytest.fixture
def g3_path(tmp_path, g3):
    p = tmp_path / "g3.json"
    p.write_text(json.dumps(g3.to_json_dict()))
    return str(p)


@pytest.fixture
def k4_path(tmp_path, k4):
    p = tmp_path / "k4.json"
    p.write_text(json.dumps(k4.to_json_dict()))
    return str(p)


@pytest.fixture
def thick_edge_path(tmp_path):
    """One edge of multiplicity 1,500: a walk one slot deep per edge copy."""
    p = tmp_path / "thick.json"
    p.write_text(json.dumps({
        "n_plus_1": 2, "kind": "A", "edges": [{"i": 1, "j": 2, "sign": "-", "mult": 1500}],
    }))
    return str(p)


@pytest.fixture
def mixed_path(tmp_path, mixed_no_loop):
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps(mixed_no_loop.to_json_dict()))
    return str(p)


def _run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _digit_limit():
    """The interpreter's int-to-str digit limit; 0 (none) before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal(value):
    """``str(value)`` at any length."""
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestCount:
    def test_stdout_decimal(self, capsys, g3_path):
        code, out, _ = _run(capsys, ["count", "--graph", g3_path, "--a", "[1,0,-1]"])
        assert code == 0 and out == "2\n"

    def test_backends_agree(self, capsys, tmp_path, k4_path, gc):
        values = {}
        for backend in ("dp", "brute", "partial"):
            code, out, _ = _run(
                capsys,
                ["count", "--graph", k4_path, "--a", "[3,1,0,-4]", "--backend", backend],
            )
            assert code == 0
            values[backend] = out.strip()
        assert values == {"dp": "30", "brute": "30", "partial": "30"}
        # an odd coordinate sum admits no type C flow: answered without the
        # DP, which would sweep a supply of 10**20
        gc_path = tmp_path / "gc.json"
        gc_path.write_text(json.dumps(gc.to_json_dict()))
        for backend in ("dp", "partial"):
            code, out, err = _run(capsys, ["count", "--graph", str(gc_path), "--a",
                                           f"[{10**20 + 1},0,0,0]", "--backend", backend])
            assert (code, out, err) == (0, "0\n", "")

    def test_netflow_from_file(self, capsys, tmp_path, g3_path):
        a_path = tmp_path / "a.json"
        a_path.write_text('{"a": [1, 0, -1]}')
        code, out, _ = _run(capsys, ["count", "--graph", g3_path, "--a-file", str(a_path)])
        assert code == 0 and out == "2\n"

    def test_partial_backend_needs_hypothesis(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n_plus_1": 4, "kind": "A",
            "edges": [{"i": 1, "j": 2, "sign": "-", "mult": 1},
                      {"i": 2, "j": 3, "sign": "-", "mult": 2},
                      {"i": 2, "j": 4, "sign": "-", "mult": 1},
                      {"i": 3, "j": 4, "sign": "-", "mult": 1}],
        }))
        code, _, err = _run(
            capsys,
            ["count", "--graph", str(bad), "--a", "[1,0,0,-1]", "--backend", "partial"],
        )
        assert code == 3 and "hypothesis" in err

    @pytest.mark.parametrize(
        "generate, a, dp_count",
        [
            (["--n-plus-1", "4", "--theorem", "c32"], "[3,0,4,-1]", "10"),
            (["--n-plus-1", "5", "--theorem", "a"], "[1,0,2,-1,-2]", "13"),
        ],
    )
    def test_partial_backend_refuses_outside_domain(self, capsys, tmp_path, generate, a,
                                                     dp_count):
        # some partial flow has L = a_{n-1}+Y_{n-1} < 0 or R = a_n+Y_n < 0, so
        # the literal aggregate (-7 and 17 here) is not the count
        path = str(tmp_path / "g.json")
        code, _, _ = _run(capsys, ["generate", *generate, "--max-mult", "2", "--seed", "0",
                                   "-o", path])
        assert code == 0
        code, out, _ = _run(capsys, ["count", "--graph", path, "--a", a])
        assert code == 0 and out == dp_count + "\n"
        code, out, err = _run(capsys, ["count", "--graph", path, "--a", a, "--backend", "partial"])
        assert code == 3 and out == "" and "domain" in err

    def test_long_path(self, capsys, tmp_path):
        n_plus_1 = 1200
        p = tmp_path / "path.json"
        p.write_text(json.dumps({
            "n_plus_1": n_plus_1, "kind": "A",
            "edges": [{"i": i, "j": i + 1, "sign": "-", "mult": 1} for i in range(1, n_plus_1)],
        }))
        a = json.dumps([1] + [0] * (n_plus_1 - 2) + [-1])
        code, out, err = _run(capsys, ["count", "--graph", str(p), "--a", a])
        assert (code, out, err) == (0, "1\n", "")

    def test_partial_backend_catalan_8(self, capsys, tmp_path):
        # 31,743,391,680 partial flows: counted off the DP frontier, not listed
        p = tmp_path / "k10.json"
        p.write_text(json.dumps(catalan_graph(8).to_json_dict()))
        a = json.dumps(list(catalan_netflow(8)))
        code, out, err = _run(capsys, ["count", "--graph", str(p), "--a", a,
                                       "--backend", "partial"])
        assert (code, out, err) == (0, f"{catalan_product(8)}\n", "")

    def test_brute_backend_thick_edge(self, capsys, thick_edge_path):
        code, out, err = _run(capsys, ["count", "--graph", thick_edge_path, "--a", "[1,-1]",
                                       "--backend", "brute"])
        assert (code, out, err) == (0, "1500\n", "")

    def test_count_beyond_digit_limit(self, capsys, tmp_path):
        # comb(19999, 9999) has 6,019 digits, over the default limit of 4,300
        p = tmp_path / "thick.json"
        p.write_text(json.dumps({
            "n_plus_1": 2, "kind": "A", "edges": [{"i": 1, "j": 2, "sign": "-", "mult": 10000}],
        }))
        limit = _digit_limit()
        code, out, err = _run(capsys, ["count", "--graph", str(p), "--a", "[10000,-10000]"])
        assert (code, err) == (0, "")
        assert out == _decimal(math.comb(19999, 9999)) + "\n"
        assert _digit_limit() == limit

    def test_output_file(self, capsys, tmp_path, g3_path):
        out_path = tmp_path / "result.txt"
        code, out, _ = _run(
            capsys,
            ["count", "--graph", g3_path, "--a", "[1,0,-1]", "-o", str(out_path)],
        )
        assert code == 0 and out == ""
        assert out_path.read_text() == "2\n"


class TestInputErrors:
    def test_both_netflow_sources(self, capsys, g3_path, tmp_path):
        a_path = tmp_path / "a.json"
        a_path.write_text('{"a": [1, 0, -1]}')
        code, _, err = _run(
            capsys,
            ["count", "--graph", g3_path, "--a", "[1,0,-1]", "--a-file", str(a_path)],
        )
        assert code == 2 and "not both" in err

    def test_missing_netflow(self, capsys, g3_path):
        code, _, err = _run(capsys, ["count", "--graph", g3_path])
        assert code == 2 and "netflow" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["count", "--graph", "/nonexistent.json", "--a", "[0]"])
        assert code == 2 and "not found" in err

    def test_malformed_graph_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = _run(capsys, ["count", "--graph", str(p), "--a", "[0]"])
        assert code == 2 and "malformed JSON" in err

    def test_schema_error_names_field(self, capsys, tmp_path):
        p = tmp_path / "bad_field.json"
        p.write_text(json.dumps({"n_plus_1": 3, "kind": "A",
                                 "edges": [{"i": 1, "j": 2, "sign": "*", "mult": 1}]}))
        code, _, err = _run(capsys, ["count", "--graph", str(p), "--a", "[1,0,-1]"])
        assert code == 2 and "edges[0].sign" in err

    def test_wrong_netflow_length(self, capsys, g3_path):
        code, _, err = _run(capsys, ["count", "--graph", g3_path, "--a", "[1,0,0,-1]"])
        assert code == 2 and "length" in err

    def test_unknown_flag(self, capsys, g3_path):
        code, _, _ = _run(capsys, ["count", "--graph", g3_path, "--a", "[0,0,0]", "--bogus"])
        assert code == 2

    def test_boolean_in_graph_json(self, capsys, tmp_path):
        p = tmp_path / "bool_mult.json"
        p.write_text(json.dumps({"n_plus_1": 3, "kind": "A",
                                 "edges": [{"i": 1, "j": 2, "sign": "-", "mult": True}]}))
        code, _, err = _run(capsys, ["count", "--graph", str(p), "--a", "[1,-1,0]"])
        assert code == 2 and "edges[0].mult" in err

    def test_non_integer_netflow(self, capsys, g3_path):
        code, _, err = _run(capsys, ["count", "--graph", g3_path, "--a", "[1,0.5,-1]"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["count"], ["enumerate"], ["verify", "--theorem", "a"], ["witness"],
    ])
    @pytest.mark.parametrize("a", [
        "[1,0,0,-1]",  # wrong length
        "[1,0.5,-1]",  # non-integer
        "[1,true,-2]",  # boolean
        "[1,\"0\",-1]",  # string entry
        "5", "{\"a\": [1,0,-1]}", "\"1,0,-1\"",  # not an array
    ])
    def test_malformed_netflow_every_command(self, capsys, g3_path, command, a):
        code, out, err = _run(capsys, command + ["--graph", g3_path, "--a", a])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        "graph_is_directory", "a_file_is_directory", "graph_not_utf8", "a_file_not_utf8",
        "output_in_missing_directory", "output_is_directory",
    ])
    def test_unusable_file(self, capsys, tmp_path, g3_path, case):
        # An unreadable or unwritable file is an input error, not a crash.
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"a": [1, 0, -1], "note": "caf\xe9"}')
        argv = {
            "graph_is_directory": ["--graph", str(tmp_path), "--a", "[1,0,-1]"],
            "a_file_is_directory": ["--graph", g3_path, "--a-file", str(tmp_path)],
            "graph_not_utf8": ["--graph", str(not_utf8), "--a", "[1,0,-1]"],
            "a_file_not_utf8": ["--graph", g3_path, "--a-file", str(not_utf8)],
            "output_in_missing_directory": [
                "--graph", g3_path, "--a", "[1,0,-1]", "-o", str(tmp_path / "no" / "out.txt")],
            "output_is_directory": ["--graph", g3_path, "--a", "[1,0,-1]", "-o", str(tmp_path)],
        }[case]
        code, out, err = _run(capsys, ["count"] + argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    @pytest.mark.parametrize("case", [
        "graph_deep", "a_deep", "a_file_deep", "a_long_integer", "graph_long_integer",
    ])
    def test_decoder_limits(self, capsys, tmp_path, g3_path, case):
        # JSON the decoder cannot take (too deep to recurse into, or an
        # integer over the digit limit) is an input error, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        long_graph = tmp_path / "long.json"
        long_graph.write_text('{"n_plus_1": ' + "9" * 5000 + ', "kind": "A", "edges": []}')
        argv = {
            "graph_deep": ["--graph", str(deep), "--a", "[1,0,-1]"],
            "a_deep": ["--graph", g3_path, "--a", "[" * 100_000],
            "a_file_deep": ["--graph", g3_path, "--a-file", str(deep)],
            "a_long_integer": ["--graph", g3_path, "--a", "[" + "9" * 5000 + ",0,-1]"],
            "graph_long_integer": ["--graph", str(long_graph), "--a", "[1,0,-1]"],
        }[case]
        code, out, err = _run(capsys, ["count"] + argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--campaign", "0"],
        ["--campaign", "2", "--a-max", "-1"],
        ["--campaign", "2", "--netflows-per-seed", "0"],
        ["--campaign", "2", "--netflows-per-seed", "-3"],
        ["--campaign", "2", "--max-mult", "1001"],
        ["--campaign", "2", "--n-plus-1", "101"],
    ])
    def test_campaign_flag_out_of_range(self, capsys, flags):
        code, out, err = _run(capsys, ["verify", "--theorem", "a"] + flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case,expected", [
        ("edges_not_a_list", "field 'edges' must be a list"),
        ("edge_not_an_object", "edges[1] must be an object"),
        ("a_file_without_a", "must be an object with field 'a'"),
        ("limit_zero", "--limit must be a positive integer"),
        ("verify_without_graph", "verify needs --graph (or --campaign)"),
        ("generate_two_vertices", "need at least 3 vertices"),
        ("generate_max_mult_zero", "max_mult must be at least 1"),
        ("generate_max_mult_huge", "max_mult must be at most 1000"),
        ("generate_n_plus_1_huge", "n_plus_1 must be at most 100"),
    ])
    def test_input_error_paths(self, capsys, tmp_path, g3_path, case, expected):
        edges_dict = tmp_path / "edges_dict.json"
        edges_dict.write_text(json.dumps({"n_plus_1": 3, "kind": "A", "edges": {}}))
        edge_list = tmp_path / "edge_list.json"
        edge_list.write_text(json.dumps({"n_plus_1": 3, "kind": "A", "edges": [
            {"i": 1, "j": 2, "sign": "-", "mult": 1}, [1, 3, "-", 1]]}))
        no_a = tmp_path / "no_a.json"
        no_a.write_text('{"b": [1, 0, -1]}')
        argv = {
            "edges_not_a_list": ["count", "--graph", str(edges_dict), "--a", "[1,0,-1]"],
            "edge_not_an_object": ["count", "--graph", str(edge_list), "--a", "[1,0,-1]"],
            "a_file_without_a": ["count", "--graph", g3_path, "--a-file", str(no_a)],
            "limit_zero": ["enumerate", "--graph", g3_path, "--a", "[1,0,-1]", "--limit", "0"],
            "verify_without_graph": ["verify", "--theorem", "c31", "--a", "[1,0,-1]"],
            "generate_two_vertices": ["generate", "--n-plus-1", "2", "--theorem", "a"],
            "generate_max_mult_zero": [
                "generate", "--n-plus-1", "4", "--theorem", "c32", "--max-mult", "0"],
            "generate_max_mult_huge": [
                "generate", "--n-plus-1", "5", "--theorem", "a", "--max-mult", str(10**30)],
            "generate_n_plus_1_huge": ["generate", "--n-plus-1", "200000", "--theorem", "a"],
        }[case]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expected in err
        if case.startswith("generate"):
            assert err == f"error: {expected}\n"


class TestEnumerate:
    def test_full_list(self, capsys, g3_path):
        code, out, _ = _run(capsys, ["enumerate", "--graph", g3_path, "--a", "[1,0,-1]"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "returned": 2,
            "truncated": False,
            "flows": [[0, 1, 0], [1, 0, 1]],
        }

    def test_limit_truncates(self, capsys, g3_path):
        code, out, _ = _run(
            capsys, ["enumerate", "--graph", g3_path, "--a", "[1,0,-1]", "--limit", "1"]
        )
        payload = json.loads(out)
        assert payload["returned"] == 1 and payload["truncated"] is True
        assert payload["flows"] == [[0, 1, 0]]

    @pytest.mark.parametrize("limit", [str(2**63 - 1), str(10**30)])
    def test_limit_beyond_any_list(self, capsys, g3_path, limit):
        code, out, err = _run(
            capsys, ["enumerate", "--graph", g3_path, "--a", "[1,0,-1]", "--limit", limit]
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "returned": 2, "truncated": False, "flows": [[0, 1, 0], [1, 0, 1]],
        }

    def test_thick_edge(self, capsys, thick_edge_path):
        code, out, err = _run(capsys, ["enumerate", "--graph", thick_edge_path,
                                       "--a", "[1,-1]", "--limit", "3"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["returned"] == 3 and payload["truncated"] is True
        # lexicographic: the unit moves from the last copy towards the first
        assert [f.index(1) for f in payload["flows"]] == [1499, 1498, 1497]
        assert all(sum(f) == 1 and len(f) == 1500 for f in payload["flows"])


class TestVerify:
    def test_verdict_true_exit_zero(self, capsys, k4_path):
        code, out, _ = _run(
            capsys, ["verify", "--theorem", "a", "--graph", k4_path, "--a", "[3,1,0,-4]"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        assert payload["lhs"] == "30" and payload["rhs"] == "10"
        assert payload["c"] == {"num": 3, "den": 1}

    def test_verdict_false_exit_one(self, capsys, mixed_path):
        code, out, _ = _run(
            capsys, ["verify", "--theorem", "c32", "--graph", mixed_path, "--a", "[2,0,0,0]"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["lhs"] == "7" and payload["rhs"] == "5"

    def test_counts_beyond_digit_limit(self, capsys, tmp_path):
        # 10,000 copies of (1,2) above the unit triangle on 2, 3, 4: c = 1
        p = tmp_path / "thick_bv.json"
        p.write_text(json.dumps({"n_plus_1": 4, "kind": "A", "edges": [
            {"i": 1, "j": 2, "sign": "-", "mult": 10000},
            {"i": 2, "j": 3, "sign": "-", "mult": 1},
            {"i": 2, "j": 4, "sign": "-", "mult": 1},
            {"i": 3, "j": 4, "sign": "-", "mult": 1},
        ]}))
        limit = _digit_limit()
        code, out, err = _run(capsys, ["verify", "--theorem", "a", "--graph", str(p),
                                       "--a", "[10000,0,0,-10000]"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["lhs"] == _decimal(math.comb(19999, 9999) * 10001)
        assert payload["rhs"] == _decimal(math.comb(19999, 9999))
        assert payload["multiplier"] == {"num": 10001, "den": 1}
        assert _digit_limit() == limit

    def test_skipped_exit_three(self, capsys, mixed_path):
        code, out, _ = _run(
            capsys, ["verify", "--theorem", "c31", "--graph", mixed_path, "--a", "[2,0,0,0]"]
        )
        assert code == 3
        assert json.loads(out)["skipped"] is True

    def test_campaign(self, capsys):
        code, out, _ = _run(
            capsys,
            ["verify", "--theorem", "a", "--campaign", "3", "--n-plus-1", "4",
             "--netflows-per-seed", "2"],
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        summary = lines[-1]
        assert summary["instances"] == 6
        assert summary["violated"] == 0
        assert all("seed" in line for line in lines[:-1])
        seeds = [line["seed"] for line in lines[:-1]]
        assert seeds == sorted(seeds)

    def test_campaign_zero_supply_cap(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "--theorem", "a", "--campaign", "2", "--a-max", "0"]
        )
        assert code == 0
        assert json.loads(out.strip().split("\n")[-1])["instances"] == 6

    def test_campaign_rejects_graph(self, capsys, k4_path):
        code, _, err = _run(
            capsys,
            ["verify", "--theorem", "a", "--campaign", "2", "--graph", k4_path],
        )
        assert code == 2


class TestWitness:
    def test_certificates(self, capsys, k4_path, k4):
        code, out, _ = _run(
            capsys, ["witness", "--graph", k4_path, "--a", "[3,1,0,-4]"]
        )
        assert code == 0
        certs = json.loads(out)
        assert len(certs) == 10
        for cert in certs:
            assert set(cert) == {"partial_flow", "Y", "fiber_size", "fiber"}
            assert cert["fiber_size"] == len(cert["fiber"])
            assert cert["fiber_size"] == cert["Y"][0] + 1 + 1  # Y_{n-1} + a_{n-1} + 1
        total = sum(cert["fiber_size"] for cert in certs)
        assert total == count(k4, (3, 1, 0, -4))

    def test_hypothesis_unmet_exit_three(self, capsys, tmp_path):
        p = tmp_path / "nohyp.json"
        p.write_text(json.dumps({
            "n_plus_1": 4, "kind": "A",
            "edges": [{"i": 1, "j": 2, "sign": "-", "mult": 1},
                      {"i": 2, "j": 3, "sign": "-", "mult": 1},
                      {"i": 3, "j": 4, "sign": "-", "mult": 1}],
        }))
        code, _, _ = _run(capsys, ["witness", "--graph", str(p), "--a", "[1,0,0,-1]"])
        assert code == 3

    @pytest.mark.parametrize("command", [
        ["verify", "--theorem", "a"], ["verify", "--theorem", "c31"],
        ["verify", "--theorem", "c32"], ["witness"], ["count", "--backend", "partial"],
    ])
    def test_two_vertices_exit_three(self, capsys, thick_edge_path, command):
        # no last three vertices: the hypothesis is unmet, not a crash (exit 4)
        code, out, err = _run(capsys, command + ["--graph", thick_edge_path, "--a", "[1,-1]"])
        assert (code, out) == (3, "")
        assert err.startswith("hypothesis not met: ") and err.count("\n") == 1

    def test_thick_edge(self, capsys, tmp_path):
        # 1,500 copies of (1,2): the partial-flow walk is one slot deep per copy
        p = tmp_path / "thick4.json"
        p.write_text(json.dumps({
            "n_plus_1": 4, "kind": "A",
            "edges": [{"i": 1, "j": 2, "sign": "-", "mult": 1500},
                      {"i": 2, "j": 3, "sign": "-", "mult": 1},
                      {"i": 2, "j": 4, "sign": "-", "mult": 1},
                      {"i": 3, "j": 4, "sign": "-", "mult": 1}],
        }))
        code, out, err = _run(capsys, ["witness", "--graph", str(p), "--a", "[1,0,0,-1]"])
        assert (code, err) == (0, "")
        certs = json.loads(out)
        assert len(certs) == 1500
        assert sum(len(cert["fiber"]) for cert in certs) == 3000


class TestGenerate:
    def test_round_trip_through_other_commands(self, capsys, tmp_path):
        out_path = tmp_path / "generated.json"
        code, _, _ = _run(
            capsys,
            ["generate", "--n-plus-1", "4", "--theorem", "c31", "--max-mult", "2",
             "--seed", "11", "-o", str(out_path)],
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["kind"] == "C"
        code, out, _ = _run(
            capsys, ["count", "--graph", str(out_path), "--a", "[2,1,1,0]"]
        )
        assert code == 0 and out.strip().isdigit()
        code, out, _ = _run(
            capsys,
            ["verify", "--theorem", "c31", "--graph", str(out_path), "--a", "[2,1,1,0]"],
        )
        assert code in (0, 3)
        code, _, _ = _run(
            capsys, ["witness", "--graph", str(out_path), "--a", "[2,1,1,0]"]
        )
        assert code == 0

    def test_exhausted_draws_are_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(identities, "_hypothesis", lambda graph, theorem: (
            bv_hypothesis(graph, theorem)._replace(satisfied=False), None))
        code, out, err = _run(capsys, ["generate", "--n-plus-1", "5", "--theorem", "a"])
        assert code == 2 and out == ""
        assert err.startswith("error: no graph met the a hypothesis in 100 draws")
        assert err.count("\n") == 1


class TestCatalan:
    def test_match(self, capsys):
        code, out, _ = _run(capsys, ["catalan", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 3, "count": "10", "catalan_product": "10", "match": True}

    def test_bad_n(self, capsys):
        code, _, _ = _run(capsys, ["catalan", "--n", "0"])
        assert code == 2
        for build, n in ((catalan_number, -1), (catalan_graph, 0), (catalan_netflow, 0)):
            with pytest.raises(ValueError, match=">= "):
                build(n)


class TestStdoutNeverContradictsExitCode:
    def test_verify_verdicts(self, capsys, k4_path, mixed_path):
        for argv, expect_code, expect_verdict in (
            (["verify", "--theorem", "a", "--graph", k4_path, "--a", "[3,1,0,-4]"], 0, True),
            (["verify", "--theorem", "c32", "--graph", mixed_path, "--a", "[2,0,0,0]"], 1, False),
        ):
            code, out, _ = _run(capsys, argv)
            assert code == expect_code
            assert json.loads(out)["verdict"] is expect_verdict


class TestInternalError:
    def test_unexpected_exception_exits_four(self, capsys, monkeypatch, g3_path):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._DISPATCH, "count", boom)
        code, out, err = _run(capsys, ["count", "--graph", g3_path, "--a", "[1,0,-1]"])
        assert code == 4 and out == ""
        assert err.startswith("internal error: RuntimeError('boom') at test_cli.py:")
        assert err.endswith(" in boom\n") and err.count("\n") == 1

    def test_keyboard_interrupt_passes_through(self, monkeypatch, g3_path):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._DISPATCH, "count", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["count", "--graph", g3_path, "--a", "[1,0,-1]"])


def test_import_floor():
    """Every CLI call imports the package before it does anything, so the
    package must not pull in ``dataclasses``, which loads ``inspect`` (and
    with it ``ast``, ``dis`` and ``tokenize``), nor ``fractions``, which
    loads ``decimal``; only the hypothesis ratio and the multiplier build a
    ``Fraction``, and they import it when they do."""
    src = Path(cli.__file__).resolve().parent.parent
    probe = ("import sys, kpflows.cli; print(sorted("
             "{'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

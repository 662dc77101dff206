from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from covspec import ColoredGraph, Edge, cayley_graph, cli, groups
from covspec.cli import main

from oracles import graph_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def wedge_json(tmp_path, name="wedge.json"):
    graph = ColoredGraph(["v"], [Edge(0, 0, 0, "A"), Edge(1, 0, 0, "B")], ["A", "B"])
    path = tmp_path / name
    path.write_text(graph_to_json(graph, {"A": "2/1", "B": "3/1"}))
    return path


def theta_json(tmp_path, name="theta.json"):
    graph = ColoredGraph(
        ["u", "v"],
        [Edge(0, 0, 1, "A"), Edge(1, 0, 1, "B"), Edge(2, 1, 0, "C")],
        ["A", "B", "C"],
    )
    path = tmp_path / name
    path.write_text(graph_to_json(graph, {"A": "1/1", "B": "2/1", "C": "5/2"}))
    return path


def seven_json(tmp_path, name="seven.json"):
    """A 7-vertex Schreier graph whose closure saturates by a complete coset
    enumeration, so its termination mode is quotient_enumerated."""
    graph = cayley_graph([("A", groups.Permutation([3, 4, 5, 2, 0, 6, 1])),
                          ("B", groups.Permutation([3, 2, 1, 5, 0, 4, 6]))])
    path = tmp_path / name
    path.write_text(graph_to_json(graph, {"A": "2/1", "B": "5/2"}))
    return path


class TestCovspecCommand:
    def test_wedge(self, tmp_path, capsys):
        path = wedge_json(tmp_path)
        code, out, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["covspec"] == ["1/1", "3/2"]
        assert doc["length_spectrum_containment"] is True

    def test_deterministic_output(self, tmp_path, capsys):
        path = wedge_json(tmp_path)
        _, out1, _ = run_cli(capsys, "covspec", "--input", str(path))
        _, out2, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert out1 == out2

    def test_explain_embeds_certificates(self, tmp_path, capsys):
        path = wedge_json(tmp_path)
        code, out, _ = run_cli(capsys, "covspec", "--input", str(path), "--explain")
        doc = json.loads(out)
        assert code == 0 and doc["certificates"]
        assert all("verdict" in c["certificate"] for c in doc["certificates"])
        assert doc["termination"]["mode"] in (
            "generators_certified", "quotient_enumerated"
        )

    def test_simply_connected_graph(self, tmp_path, capsys):
        graph = ColoredGraph(["root", "leaf"], [Edge(0, 0, 1, "A")], ["A"])
        path = tmp_path / "tree.json"
        path.write_text(graph_to_json(graph, {"A": "1/1"}))
        code, out, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 0
        assert json.loads(out)["covspec"] == []

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "covspec", "--input", str(tmp_path / "no.json"))
        assert code == 3 and "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 3

    def test_missing_lengths(self, tmp_path, capsys):
        graph = ColoredGraph(["v"], [Edge(0, 0, 0, "A")], ["A"])
        path = tmp_path / "nolen.json"
        path.write_text(graph_to_json(graph))
        code, _, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 3

    def test_env_budget(self, tmp_path, capsys, monkeypatch):
        # the wedge saturates at 3: a ceiling below it is exhausted
        path = wedge_json(tmp_path)
        monkeypatch.setenv("COVSPEC_BUDGET", "5/2")
        code, out, err = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
        monkeypatch.setenv("COVSPEC_BUDGET", "3")
        code, out, _ = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 0
        assert json.loads(out)["covspec"] == ["1/1", "3/2"]

    def test_budget_flag(self, tmp_path, capsys):
        path = wedge_json(tmp_path)
        code, out, _ = run_cli(capsys, "covspec", "--input", str(path), "--budget", "8")
        assert code == 0
        assert json.loads(out)["covspec"] == ["1/1", "3/2"]

    def test_undecided_maps_to_exit_2(self, tmp_path, capsys, monkeypatch):
        from fractions import Fraction as F

        from covspec import cli as cli_mod
        from covspec.spectrum import UndecidedOracleError
        from covspec.words import MembershipCertificate

        def boom(*args, **kwargs):
            raise UndecidedOracleError(
                F(2), "A[v]", MembershipCertificate("undecided", "exhausted", {})
            )

        monkeypatch.setattr(cli_mod, "covering_spectrum", boom)
        path = wedge_json(tmp_path)
        code, _, err = run_cli(capsys, "covspec", "--input", str(path))
        assert code == 2 and "undecided" in err


class TestFanoCommand:
    def test_default_lengths(self, capsys):
        code, out, _ = run_cli(capsys, "fano")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["distinguishing_value"] == "13/4"
        assert doc["distinguishing_in_x1"] and not doc["distinguishing_in_x2"]
        assert "13/4" in doc["x1"]["covspec"]
        assert "13/4" not in doc["x2"]["covspec"]
        assert doc["length_multiset_ok"]

    def test_second_admissible_pair(self, capsys):
        code, out, _ = run_cli(capsys, "fano", "--la", "2", "--lb", "9/4")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["distinguishing_value"] == "25/8"

    def test_constraint_violation_warns(self, capsys):
        code, out, err = run_cli(capsys, "fano", "--la", "1", "--lb", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["constraint_ok"] is False and doc["pass"] is None
        assert "warning" in err

    def test_bad_rational(self, capsys):
        code, _, _ = run_cli(capsys, "fano", "--la", "x")
        assert code == 3


class TestTripleCommand:
    def test_fano(self, capsys):
        code, out, _ = run_cli(capsys, "triple")
        doc = json.loads(out)
        assert code == 0
        assert doc["group_order"] == 168
        assert doc["h1_order"] == doc["h2_order"] == 24
        assert doc["gassmann_sunada"] is True
        assert doc["jump_equivalent"] is True
        assert doc["stable_subsets_checked"] == 64
        assert [row[0] for row in doc["class_table"]] == [1, 42, 56, 21, 24, 24]

    def test_file_based_triple(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("1 0 2\n1 2 0\n")
        (tmp_path / "h1.txt").write_text("1 0 2\n")
        (tmp_path / "h2.txt").write_text("1 2 0\n")
        code, out, _ = run_cli(
            capsys,
            "triple",
            "--group", str(tmp_path / "g.txt"),
            "--h1", str(tmp_path / "h1.txt"),
            "--h2", str(tmp_path / "h2.txt"),
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["group_order"] == 6
        assert doc["gassmann_sunada"] is False
        assert doc["jump_equivalent"] is False
        assert doc["jump_witness"] is not None

    def test_class_cap_maps_to_exit_2(self, tmp_path, capsys):
        # a cyclic group of order 21 has 21 conjugacy classes, over the cap
        cycle = " ".join(str((v + 1) % 21) for v in range(21))
        (tmp_path / "c21.txt").write_text(cycle + "\n")
        (tmp_path / "id.txt").write_text(" ".join(map(str, range(21))) + "\n")
        code, out, err = run_cli(
            capsys,
            "triple",
            "--group", str(tmp_path / "c21.txt"),
            "--h1", str(tmp_path / "id.txt"),
            "--h2", str(tmp_path / "id.txt"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds cap" in err

    def test_lowered_class_cap_is_read_by_the_command(self, capsys, monkeypatch):
        # GL(3,2) has 6 conjugacy classes
        monkeypatch.setattr(groups, "CONJUGACY_CLASS_CAP", 5)
        code, out, err = run_cli(capsys, "triple")
        assert code == 2 and out == ""
        assert err == "error: 6 conjugacy classes exceeds cap 5\n"

    def test_subgroup_generator_outside_group_exits_3(self, tmp_path, capsys):
        (tmp_path / "a3.txt").write_text("1 2 0\n")
        (tmp_path / "h1.txt").write_text("1 0 2\n")
        (tmp_path / "h2.txt").write_text("0 1 2\n")
        code, out, err = run_cli(
            capsys,
            "triple",
            "--group", str(tmp_path / "a3.txt"),
            "--h1", str(tmp_path / "h1.txt"),
            "--h2", str(tmp_path / "h2.txt"),
        )
        assert code == 3 and out == ""
        assert err.startswith("error: element not in group")

    def test_file_group_needs_subgroups(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("1 0 2\n")
        code, _, _ = run_cli(capsys, "triple", "--group", str(tmp_path / "g.txt"))
        assert code == 3


class TestTorusCommand:
    def test_rectangle(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "--basis", "2 0; 0 3")
        doc = json.loads(out)
        assert code == 0
        assert doc["covspec"] == ["1/1", "3/2"]
        assert doc["jumps_squared"] == ["4/1", "9/1"]

    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "--basis", "1")
        assert code == 0 and json.loads(out)["covspec"] == ["1/2"]

    def test_three_dimensional(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "--basis", "2 0 0; 0 3 0; 0 0 7")
        doc = json.loads(out)
        assert code == 0
        assert doc["covspec"] == ["1/1", "3/2", "7/2"]

    def test_singular(self, capsys):
        code, _, _ = run_cli(capsys, "torus", "--basis", "1 2; 2 4")
        assert code == 3

    def test_garbage(self, capsys):
        code, _, _ = run_cli(capsys, "torus", "--basis", "a b; c d")
        assert code == 3

    # about 2 * 10^5 short vectors lie in the span of (0, 1) before
    # (100000, 0) is reached, and more before the long vector of a basis
    # with a huge or tiny entry, whose integer keys must stay small
    @pytest.mark.parametrize("basis", ["100000 0; 0 1", "1e3000 0; 0 1", "1 0; 0 1e-30"])
    def test_thin_torus_stops_at_the_vector_cap(self, capsys, basis):
        start = perf_counter()
        code, out, err = run_cli(capsys, "torus", "--basis", basis)
        assert perf_counter() - start < 10
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds cap" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(rows):
            raise MemoryError

        monkeypatch.setattr(cli, "covering_spectrum_lattice", exhausted)
        code, out, err = run_cli(capsys, "torus", "--basis", "1e300000 0; 0 1")
        assert (code, out, err) == (2, "", "error: out of memory\n")


class TestReproCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--n", "1")
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["genus_table"] == [{"expected": 8, "genus": 8, "n": 1}]
        assert doc["jump_equivalent"] is True
        assert all(a["pass"] for a in doc["assertions"])

    def test_genus_table_n3(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--n", "3")
        doc = json.loads(out)
        assert code == 0
        assert [row["genus"] for row in doc["genus_table"]] == [8, 15, 22]

    def test_bad_n(self, capsys):
        code, _, _ = run_cli(capsys, "repro", "--n", "0")
        assert code == 3


class TestExportDot:
    def test_fano_lines_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", "--fano", "lines")
        assert code == 0
        assert out.count("->") == 14 and "style=dotted" in out

    def test_round_trip_via_file(self, tmp_path, capsys):
        path = wedge_json(tmp_path)
        out_path = tmp_path / "wedge.dot"
        code, _, _ = run_cli(
            capsys, "export-dot", "--input", str(path), "--output", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().count("->") == 2

    def test_needs_a_source(self, capsys):
        code, _, _ = run_cli(capsys, "export-dot")
        assert code == 3


def _bad_input_files(tmp_path):
    (tmp_path / "g.txt").write_text("1 0 2\n1 2 0\n")
    (tmp_path / "h.txt").write_text("1 0 2\n")
    path = wedge_json(tmp_path, "list_lengths.json")
    doc = json.loads(path.read_text())
    doc["lengths"] = [1]
    path.write_text(json.dumps(doc))
    (tmp_path / "empty.json").write_text('{"vertices": [], "edges": [], "lengths": {}}')
    # values that int() or list() would silently truncate
    for name, edit in (
        ("float_id.json", lambda d: d["edges"][0].update(id=0.5)),
        ("bool_from.json", lambda d: d["edges"][1].update({"from": False})),
        ("string_to.json", lambda d: d["edges"][1].update(to="0")),
        ("string_vertices.json", lambda d: d.update(vertices="v")),
        ("object_edges.json", lambda d: d.update(edges={})),
        # read as the colors A and B, or as the object's keys
        ("string_colors.json", lambda d: d.update(colors="AB")),
        ("object_colors.json", lambda d: d.update(colors={"A": 1, "B": 2})),
        # export-dot would style the graph by the colors' positions
        ("repeated_colors.json", lambda d: d.update(colors=["A", "A", "B"])),
        # a witness would print A[a]*A[a], and every step would resolve to the first a
        ("repeated_vertices.json", lambda d: d.update(vertices=["a", "a"])),
        # two A-loops at v: a witness would print A[v], which names neither
        ("same_color_loops.json", lambda d: d["edges"][1].update(color="A")),
    ):
        doc = json.loads(wedge_json(tmp_path).read_text())
        edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "nested.json").write_text("[" * 100_000)
    tree = ColoredGraph(["u", "v"], [Edge(0, 0, 1, "A")], ["A"])
    (tmp_path / "tree.json").write_text(graph_to_json(tree, {"A": "1/1"}))


@pytest.mark.parametrize(
    "argv",
    [
        ["covspec", "--input", "missing.json"],
        ["covspec", "--input", "list_lengths.json"],
        ["export-dot", "--input", "missing.json"],
        ["export-dot", "--input", "list_lengths.json"],
        ["export-dot", "--fano", "points", "--output", "no/dir/x.dot"],
        ["triple", "--group", "missing.txt", "--h1", "h.txt", "--h2", "h.txt"],
        ["triple", "--group", "g.txt", "--h1", "missing.txt", "--h2", "h.txt"],
        ["triple", "--group", "g.txt"],
        ["covspec", "--input", "empty.json"],
        ["covspec", "--input", "float_id.json"],
        ["covspec", "--input", "bool_from.json"],
        ["covspec", "--input", "string_to.json"],
        ["covspec", "--input", "string_vertices.json"],
        ["covspec", "--input", "object_edges.json"],
        ["covspec", "--input", "nested.json"],
        ["export-dot", "--input", "nested.json"],
        # a tree has no class to walk, but its budget is still checked
        ["covspec", "--input", "tree.json", "--budget", "0"],
        # usage errors: argparse's exit 2 is reserved for stopped runs
        ["covspec"],
        ["repro", "--n", "x"],
        ["nosuch"],
        ["export-dot", "--fano", "diamonds"],
        # arguments that the chosen source would ignore
        ["triple", "--h1", "a.txt", "--h2", "b.txt"],
        ["export-dot", "--fano", "points", "--input", "g.json"],
        ["covspec", "--input", "string_colors.json"],
        ["covspec", "--input", "object_colors.json"],
        ["covspec", "--input", "repeated_colors.json"],
        ["export-dot", "--input", "repeated_colors.json"],
        ["covspec", "--input", "repeated_vertices.json"],
        ["export-dot", "--input", "repeated_vertices.json"],
        # Fraction would read 10
        ["covspec", "--input", "wedge.json", "--budget", "1_0"],
        # the length error, not the admissibility warning before it
        ["fano", "--la", "0"],
        ["repro", "--la", "0"],
        ["covspec", "--input", "same_color_loops.json"],
    ],
)
def test_bad_input_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    _bad_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)

    def no_closure(*args, **kwargs):
        raise AssertionError("a group was closed before its inputs were checked")

    monkeypatch.setattr(cli, "closure", no_closure)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["triple", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: covspec")


# sha256 of the stdout of fixed runs: the output bytes are part of the
# interface, so a change that moves any of them must update this table
GOLDEN_STDOUT = [
    (["fano", "--explain"],
     "9d06ca49a52c20feadc715d0b6e78e51c8e60ce66416fdcca3c84e6f17fb21b6"),
    (["fano", "--explain", "--la", "2", "--lb", "9/4"],
     "6e7b1b6b4be4df0e9e8818a124e4850734422151c345833889e2df6a68f0c362"),
    (["repro"], "aa06a107c327916a85baad093baf91f73b8ee882c3b4921459f31bdb1f6f2942"),
    (["triple"], "eff8a2173e64f2012520ead5ae74adbdd898cdf1da52ce0ef74b4c04fc55b81c"),
    (["torus", "--basis", "2 1; 0 3"],
     "33d2c5e8a3d8b612d4eba7a055b5075b6649fd344abbbbb3994ba9226ead3f11"),
    (["covspec", "--input", "wedge.json", "--explain"],
     "588f0ba61cfab6dbcfbdd475c837d270c6eaa11b5051c1559469c0ffc1df7999"),
    (["covspec", "--input", "theta.json", "--explain"],
     "1bed423b80e7091b18dd19617337645a1a87fd669af47aa7f6f7be812bd15058"),
    (["covspec", "--input", "seven.json", "--explain"],
     "51cde513fb695f496a98c9949448d10131f07dde27b1b6e0bef3c91777eda950"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT, ids=[" ".join(a) for a, _ in GOLDEN_STDOUT])
def test_stdout_bytes_match_the_recorded_digest(tmp_path, capsys, monkeypatch, argv, digest):
    wedge_json(tmp_path)
    theta_json(tmp_path)
    seven_json(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COVSPEC_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exhausted_budget_message(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wedge_json(tmp_path)
    code, out, err = run_cli(capsys, "covspec", "--input", "wedge.json", "--budget", "5/2")
    assert (code, out, err) == (2, "", "error: no saturation up to the budget 5/2\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_message(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the spawn, so every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "covspec.cli", "triple"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# ---------------------------------------------------------------------------
# exit codes on generated inputs

_LENGTHS = st.sampled_from(["1", "2", "3/2", "5/2", "1/3"])
_BAD_LENGTHS = st.sampled_from(["0", "-1", "x", "1/0", ""])


def _sometimes_bad(draw, good, bad):
    """A draw from good, or from bad about one time in eight."""
    return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)


@st.composite
def _graph_argv(draw):
    n = draw(st.integers(1, 3))
    ends = st.integers(0, n - 1)
    # a path through the vertices keeps most graphs connected
    pairs = [(v - 1, v) for v in range(1, n)]
    pairs += [(draw(ends), draw(ends)) for _ in range(draw(st.integers(0, 3)))]
    edges = [
        {"id": i, "from": _sometimes_bad(draw, st.just(a), st.sampled_from([-1, n, 0.5])),
         "to": b, "color": draw(st.sampled_from("ABC"))}
        for i, (a, b) in enumerate(pairs)
    ]
    colors = {e["color"] for e in edges} | draw(st.sets(st.sampled_from("ABC"), max_size=1))
    doc = {"vertices": [f"v{i}" for i in range(n)], "edges": edges,
           "lengths": {c: _sometimes_bad(draw, _LENGTHS, _BAD_LENGTHS) for c in sorted(colors)}}
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    argv = ["covspec", "--input", "graph.json"]
    if draw(st.booleans()):
        argv.append("--explain")
    if draw(st.booleans()):
        argv += ["--budget", _sometimes_bad(draw, _LENGTHS, _BAD_LENGTHS)]
    return {"graph.json": json.dumps(doc)}, argv


@st.composite
def _torus_argv(draw):
    n = draw(st.integers(1, 3))
    entries = st.sampled_from(["0", "1", "-1", "2", "3", "3/2", "-2/3", "7"])
    width = _sometimes_bad(draw, st.just(n), st.sampled_from([n - 1, n + 1]))
    rows = [" ".join(_sometimes_bad(draw, entries, st.just("x")) for _ in range(width))
            for _ in range(n)]
    return {}, ["torus", "--basis", "; ".join(rows)]


@st.composite
def _triple_argv(draw):
    degree = draw(st.integers(1, 4))
    perms = st.permutations(range(degree)).map(lambda p: " ".join(map(str, p)))
    broken = st.sampled_from(["", "0 0", "y", " ".join(map(str, range(degree + 1)))])
    gens = [_sometimes_bad(draw, perms, broken) for _ in range(draw(st.integers(1, 2)))]
    # subgroup generators are mostly group generators, so most triples are valid
    files = {"g.txt": "\n".join(gens) + "\n"}
    for name in ("h1.txt", "h2.txt"):
        files[name] = _sometimes_bad(draw, st.sampled_from(gens), perms) + "\n"
    return files, ["triple", "--group", "g.txt", "--h1", "h1.txt", "--h2", "h2.txt"]


@given(st.one_of(_graph_argv(), _torus_argv(), _triple_argv()))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generated_inputs_exit_with_a_documented_code(case):
    files, argv = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3)
    assert err.getvalue().count("error:") <= 1
    assert (code == 0) == (err.getvalue() == "")


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})

from __future__ import annotations

import json

from covspec import ColoredGraph, Edge, graph_to_json
from covspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def wedge_json(tmp_path, name="wedge.json"):
    graph = ColoredGraph(["v"], [Edge(0, 0, 0, "A"), Edge(1, 0, 0, "B")], ["A", "B"])
    path = tmp_path / name
    path.write_text(graph_to_json(graph, {"A": "2/1", "B": "3/1"}))
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

"""Command-line front end.

Subcommands: covspec, fano, triple, torus, repro, export-dot.
All reports are printed as deterministic JSON (sorted keys), so identical
inputs produce byte-identical output.

Exit codes: 0 pass, 1 assertion failure, 2 undecided oracle, exhausted
budget, exceeded cap or out of memory, 3 input error (bad arguments or file
contents, or a file that cannot be read or written), 141 stdout closed by
its reader (the status a shell reports for a writer killed by SIGPIPE;
no message).

Graph spectra walk marked lengths in increasing order and stop once the
normal closure of the classes walked is the whole fundamental group,
which every run reaches by its longest free generator class.  There is
no ceiling on the lengths walked by default.  --budget, or
COVSPEC_BUDGET (a rational like 7 or 15/2) when no flag is given, sets an
inclusive one; a run that reaches it before saturating exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .graphs import (
    cayley_graph,
    export_dot,
    graph_from_json,
    surface_genus,
)
from .groups import (
    FANO_LABELS,
    CapExceededError,
    closure,
    fano_generators,
    fano_triple,
    is_gassmann_sunada,
    is_jump_equivalent,
    load_generators,
    subgroup_generated,
)
from .metric import (
    MetricGraph,
    enumerate_classes,
    format_rational,
    parse_rational,
    render_loop,
)
from .spectrum import (
    BudgetExhaustedError,
    UndecidedOracleError,
    covering_spectrum,
    covering_spectrum_lattice,
    length_spectrum_containment,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3
EXIT_BROKEN_PIPE = 141


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _env_budget() -> Fraction | None:
    raw = os.environ.get("COVSPEC_BUDGET")
    return parse_rational(raw) if raw else None


def _load_metric_graph(path: str) -> MetricGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    graph, lengths = graph_from_json(text)
    if lengths is None:
        raise ValueError(f"{path}: graph JSON carries no \"lengths\" field")
    # a witness step C[v] names the one C-edge leaving v
    starts = [(e.origin, e.color) for e in graph.edges]
    if len(set(starts)) != len(starts):
        v, c = next(k for k, m in Counter(starts).items() if m > 1)
        raise ValueError(f"vertex {graph.vertices[v]!r} has two out-edges of color {c!r}")
    return MetricGraph(graph, {c: parse_rational(q) for c, q in lengths.items()})


def _spectrum_payload(X: MetricGraph, spectrum, report, explain: bool) -> dict:
    doc = {
        "covspec": spectrum.as_strings(),
        "jumps": [format_rational(c.length) for c, _ in report.jumps],
        "witnesses": [render_loop(X, c.word) for c, _ in report.jumps],
        "length_spectrum_containment": length_spectrum_containment(report, spectrum),
    }
    if explain:
        doc["certificates"] = [
            {
                "length": format_rational(c.length),
                "target": render_loop(X, c.word),
                "certificate": cert.to_json_dict(),
            }
            for c, cert in report.queries
        ]
        doc["termination"] = report.termination
    return doc


def cmd_covspec(args) -> int:
    X = _load_metric_graph(args.input)
    budget = parse_rational(args.budget) if args.budget else _env_budget()
    spectrum, report = covering_spectrum(X, budget=budget)
    _emit(_spectrum_payload(X, spectrum, report, args.explain))
    return EXIT_OK


def _fano_graph(perms: dict):
    """The Schreier graph of GL(3,2) on one Fano action, from its generators alone."""
    return cayley_graph(list(perms.items()), list(FANO_LABELS))


def _fano_metric_graphs(la: Fraction, lb: Fraction):
    point, line = fano_generators()
    lengths = {"A": la, "B": lb}
    return MetricGraph(_fano_graph(point), lengths), MetricGraph(_fano_graph(line), lengths)


# (a, b) of the ten minimal loops a*l_A + b*l_B below l_A + 2*l_B, shared by both graphs
FANO_LOOP_COEFFICIENTS = (
    (1, 0), (0, 1), (2, 0), (2, 0), (1, 1), (1, 1), (0, 2), (3, 0), (2, 1), (2, 1),
)


def run_fano(la: Fraction, lb: Fraction, explain: bool = False) -> dict:
    """The two Fano covering spectra with every pinned assertion evaluated."""
    # a non-positive length is an input error, reported before any warning
    X1, X2 = _fano_metric_graphs(la, lb)
    if not (0 < la and la < lb and lb < Fraction(3, 2) * la):
        print(
            f"warning: lengths l_A={la}, l_B={lb} violate 0 < l_A < l_B < 3/2*l_A; "
            "the distinguishing-value assertions are not claimed",
            file=sys.stderr,
        )
        constraint_ok = False
    else:
        constraint_ok = True
    budget = _env_budget()
    s1, r1 = covering_spectrum(X1, budget=budget)
    s2, r2 = covering_spectrum(X2, budget=budget)
    doc = {
        "la": format_rational(la),
        "lb": format_rational(lb),
        "constraint_ok": constraint_ok,
        "x1": _spectrum_payload(X1, s1, r1, explain),
        "x2": _spectrum_payload(X2, s2, r2, explain),
    }
    dv = la + lb / 2
    doc["distinguishing_value"] = format_rational(dv)
    doc["distinguishing_in_x1"] = dv in s1
    doc["distinguishing_in_x2"] = dv in s2
    cutoff = la + 2 * lb
    lengths = sorted(a * la + b * lb for a, b in FANO_LOOP_COEFFICIENTS)
    expected = [format_rational(q) for q in lengths]
    multisets = {}
    for name, X in (("x1", X1), ("x2", X2)):
        got = [format_rational(c.length) for c in enumerate_classes(X, cutoff)]
        multisets[name] = got
    doc["expected_length_multiset"] = expected
    doc["length_multiset_ok"] = all(sorted(m) == sorted(expected) for m in multisets.values())
    if constraint_ok:
        doc["pass"] = bool(
            doc["distinguishing_in_x1"]
            and not doc["distinguishing_in_x2"]
            and doc["length_multiset_ok"]
        )
    else:
        doc["pass"] = None
    return doc


def cmd_fano(args) -> int:
    doc = run_fano(parse_rational(args.la), parse_rational(args.lb), args.explain)
    _emit(doc)
    return EXIT_OK if doc["pass"] in (True, None) else EXIT_ASSERTION


def _resolve_triple(args):
    if args.group == "fano":
        if args.h1 or args.h2:
            raise ValueError("--h1 and --h2 need a generator file as --group")
        return fano_triple()
    # check every input before the group is closed, which can take long
    if not (args.h1 and args.h2):
        raise ValueError("file-based groups need --h1 and --h2 generator files")
    gens, h1, h2 = (load_generators(path) for path in (args.group, args.h1, args.h2))
    G = closure(gens)
    return G, subgroup_generated(G, h1), subgroup_generated(G, h2)


def cmd_triple(args) -> int:
    G, H1, H2 = _resolve_triple(args)
    gs = is_gassmann_sunada(G, H1, H2)
    je = is_jump_equivalent(G, H1, H2)
    doc = {
        "group_order": G.order,
        "h1_order": H1.order,
        "h2_order": H2.order,
        "gassmann_sunada": gs.verdict,
        "class_table": [list(row) for row in gs.rows],
        "jump_equivalent": je.verdict,
        "jump_witness": list(je.witness) if je.witness else None,
        "stable_subsets_checked": je.stable_subset_count,
    }
    _emit(doc)
    return EXIT_OK


def cmd_torus(args) -> int:
    try:
        rows = [
            [parse_rational(tok) for tok in row.split()]
            for row in args.basis.split(";")
        ]
    except ValueError as exc:
        raise ValueError(f"bad basis: {exc}") from exc
    spectrum = covering_spectrum_lattice(rows)
    _emit(
        {
            "basis": [[format_rational(Fraction(x)) for x in row] for row in rows],
            "covspec": spectrum.display(),
            "covspec_squared": [format_rational(q) for q in spectrum.values_squared],
            "jumps_squared": [format_rational(q) for q in spectrum.jumps_squared],
        }
    )
    return EXIT_OK


def run_repro(n: int, la: Fraction, lb: Fraction) -> dict:
    """Full pipeline: triple verification, spectra, genus arithmetic."""
    G, H1, H2 = fano_triple()
    gs = is_gassmann_sunada(G, H1, H2)
    je = is_jump_equivalent(G, H1, H2)
    fano = run_fano(la, lb)
    genus_rows = []
    genus_ok = True
    for k in range(1, n + 1):
        got = surface_genus(7, k - 1, 2)
        want = 7 * k + 1
        genus_rows.append({"n": k, "genus": got, "expected": want})
        genus_ok = genus_ok and got == want
    assertions = [
        {"name": "group_order_168", "pass": G.order == 168},
        {"name": "six_conjugacy_classes", "pass": len(G.conjugacy_classes()) == 6},
        {"name": "stabilizer_orders_24", "pass": H1.order == 24 and H2.order == 24},
        {"name": "gassmann_sunada", "pass": gs.verdict},
        {"name": "distinguishing_value_in_x1_only",
         "pass": bool(fano["distinguishing_in_x1"] and not fano["distinguishing_in_x2"])},
        {"name": "minimal_loop_length_multiset", "pass": bool(fano["length_multiset_ok"])},
        {"name": "genus_7n_plus_1", "pass": genus_ok},
    ]
    return {
        "gassmann_sunada_table": [list(r) for r in gs.rows],
        "jump_equivalent": je.verdict,
        "covspec_x1": fano["x1"]["covspec"],
        "covspec_x2": fano["x2"]["covspec"],
        "distinguishing_value": fano["distinguishing_value"],
        "genus_table": genus_rows,
        "assertions": assertions,
        "pass": all(a["pass"] for a in assertions),
    }


def cmd_repro(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    doc = run_repro(args.n, parse_rational(args.la), parse_rational(args.lb))
    _emit(doc)
    return EXIT_OK if doc["pass"] else EXIT_ASSERTION


def cmd_export_dot(args) -> int:
    if args.fano:
        point, line = fano_generators()
        graph = _fano_graph(point if args.fano == "points" else line)
    else:
        graph, _ = graph_from_json(Path(args.input).read_text())
    text = export_dot(graph)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3, one line) instead of
    argparse's usage text and exit 2, which is reserved for stopped runs."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covspec",
        description="Exact covering spectra of metric graphs and flat tori, "
        "Cayley/Schreier graphs, and Gassmann-Sunada / jump-equivalence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covspec", help="covering spectrum of a metric graph JSON file")
    p.add_argument("--input", required=True, help="graph JSON with a lengths field")
    p.add_argument("--budget", help="inclusive ceiling on the marked lengths walked, as p/q")
    p.add_argument("--explain", action="store_true", help="embed certificates")
    p.set_defaults(func=cmd_covspec)

    p = sub.add_parser("fano", help="the two Fano Schreier length spaces")
    p.add_argument("--la", default="2", help="length of A-edges (rational)")
    p.add_argument("--lb", default="5/2", help="length of B-edges (rational)")
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("triple", help="Gassmann-Sunada and jump-equivalence checks")
    p.add_argument("--group", default="fano", help="'fano' or a generator file")
    p.add_argument("--h1", help="generator file for the first subgroup")
    p.add_argument("--h2", help="generator file for the second subgroup")
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("torus", help="covering spectrum of a flat torus")
    p.add_argument("--basis", required=True, help='lattice basis rows, e.g. "2 0; 0 3"')
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("repro", help="full verification pipeline")
    p.add_argument("--n", type=int, default=3, help="genus table up to n")
    p.add_argument("--la", default="2")
    p.add_argument("--lb", default="5/2")
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("export-dot", help="DOT rendering of a colored graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="graph JSON file")
    source.add_argument("--fano", choices=["points", "lines"], help="built-in Fano graph")
    p.add_argument("--output", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
        return code
    except (UndecidedOracleError, BudgetExhaustedError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNDECIDED
    except BrokenPipeError:
        # the flush at interpreter exit would fail again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

All values are exact rationals or integers; there are no tolerances
anywhere.  One check, criterion 2b, pins the point-graph A-loop at vertex
110; the matrix action of A fixes 011 and moves 110 to 111, and no
color-preserving relabeling reconciles the two tables, so that check
fails by mathematical necessity and is retained as an explicit record of
the discrepancy.  Every other check passes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from covspec import (
    MetricGraph,
    Presentation,
    closure,
    covering_spectrum,
    covering_spectrum_lattice,
    cyclic_reduce,
    decide_membership,
    enumerate_classes,
    is_gassmann_sunada,
    parse_loop,
    surface_genus,
    todd_coxeter,
)
from covspec.metric import dart_edge

from fano_tables import (
    V1_ADJACENCY,
    V1_ADJACENCY_ALT,
    V2_ADJACENCY,
    X1_MINIMAL_LOOPS,
    X2_MINIMAL_LOOPS,
    expected_length_multiset,
)
from oracles import lattice_jump_scan

LA, LB = Fraction(2), Fraction(5, 2)


def report(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def adjacency_of(graph) -> dict:
    out: dict = {c: {} for c in graph.colors}
    for e in graph.edges:
        out[e.color][graph.vertices[e.origin]] = graph.vertices[e.target]
    return out


def test_criterion_1_fano_group_machinery(fano):
    G = closure([fano.point_perms["A"], fano.point_perms["B"]])
    H1, H2 = fano.h1, fano.h2
    gs = is_gassmann_sunada(fano.group, H1, H2)
    print("class rows (|C|, |C ∩ H1|, |C ∩ H2|):", gs.rows)
    ok = (
        G.order == 168
        and len(G.conjugacy_classes()) == 6
        and H1.order == 24
        and H2.order == 24
        and gs.verdict
    )
    report("criterion 1: group order, classes, stabilizers, Gassmann-Sunada", ok)


def test_criterion_2_graph_fidelity(fano_graphs):
    g1, g2 = fano_graphs
    a1, a2 = adjacency_of(g1), adjacency_of(g2)
    ok = (
        g1.edge_count == 14
        and g2.edge_count == 14
        and a1 == V1_ADJACENCY
        and a2 == V2_ADJACENCY
        and a1["B"]["111"] == "111"
        and a2["B"]["111"] == "111"
        and a2["A"]["100"] == "100"
        and a1["A"]["011"] == "011"
    )
    report(
        "criterion 2: graph adjacency tables, B-loops at 111, A-loops at "
        "011 (points) and 100 (lines)",
        ok,
    )


def test_criterion_2b_alt_point_table_with_a_loop_at_110(fano_graphs):
    """Pins the alternative point-graph table whose A-loop sits at 110.

    Right multiplication by the generator matrix fixes 011 and sends 110
    to 111, so the constructed graph cannot realize this table; the check
    is kept as a faithful record of the alternative and fails.
    """
    got = adjacency_of(fano_graphs[0])
    diffs = {
        (c, v): (got[c][v], V1_ADJACENCY_ALT[c][v])
        for c in ("A", "B")
        for v in got[c]
        if got[c][v] != V1_ADJACENCY_ALT[c][v]
    }
    report(
        "criterion 2b: point graph matches the alternative table (A-loop at 110)",
        not diffs,
        f"differing edges (constructed vs table): {diffs}",
    )


def test_criterion_3_distinct_covering_spectra(fano_run):
    results = []
    for la, lb, dv in ((LA, LB, Fraction(13, 4)), (Fraction(2), Fraction(9, 4), Fraction(25, 8))):
        _, s1, _, _, s2, _ = fano_run(la, lb)
        results.append((la, lb, dv, dv in s1, dv not in s2))
    ok = all(in1 and notin2 for _, _, _, in1, notin2 in results)
    detail = "; ".join(
        f"l_A={la}, l_B={lb}: {dv} in X1 {in1}, outside X2 {notin2}"
        for la, lb, dv, in1, notin2 in results
    )
    report("criterion 3: distinguishing spectrum values at both length pairs", ok, detail)


def test_criterion_4_minimal_loop_table(fano_run):
    X1, _, _, X2, _, _ = fano_run(LA, LB)
    cutoff = LA + 2 * LB
    expected = expected_length_multiset(LA, LB)
    ok = True
    for X, table in ((X1, X1_MINIMAL_LOOPS), (X2, X2_MINIMAL_LOOPS)):
        classes = enumerate_classes(X, cutoff)
        ok = ok and sorted(c.length for c in classes) == expected
        words = {c.word for c in classes}
        for (a, b), name in table:
            w = parse_loop(X, name)
            ok = ok and w in words and a * LA + b * LB == sum(
                (X.edge_lengths[dart_edge(d)] for d in w.darts), Fraction(0)
            )
    report(
        "criterion 4: length multiset below l_A+2l_B and listed loops "
        "present up to rotation/inversion",
        ok,
    )


def test_criterion_5_flat_tori():
    rect = covering_spectrum_lattice([[2, 0], [0, 3]])
    ok = rect.exact_values() == [Fraction(1), Fraction(3, 2)]
    bases = [[[2, 0, 0], [0, 3, 0], [0, 0, 7]]]
    rng = random.Random(20260810)
    while len(bases) < 6:
        b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if b[0][0] * b[1][1] - b[0][1] * b[1][0] != 0:
            bases.append(b)
    for basis in bases:
        spec = covering_spectrum_lattice(basis)
        scan = lattice_jump_scan(basis, 100)
        ok = ok and list(spec.jumps_squared) == [Fraction(q) for q in scan]
    report(
        "criterion 5: rectangular torus spectrum and brute-force scan "
        "agreement on diag(2,3,7) plus 5 random bases",
        ok,
    )


def test_criterion_6_genus_arithmetic():
    ok = all(surface_genus(7, n - 1, 2) == 7 * n + 1 for n in range(1, 11))
    report("criterion 6: genus 7n+1 for n = 1..10", ok)


def test_criterion_7a_certificate_soundness(fano_run, wedge23):
    ok = True
    for la, lb in ((LA, LB), (Fraction(2), Fraction(9, 4))):
        X1, _, r1, X2, _, r2 = fano_run(la, lb)
        ok = ok and r1.verify_all_certificates(X1) and r2.verify_all_certificates(X2)
    _, rw = covering_spectrum(wedge23)
    ok = ok and rw.verify_all_certificates(wedge23)
    report("criterion 7a: independent checker re-validates every certificate", ok)


def test_criterion_7b_rescaling_covariance(fano_graphs):
    g1, _ = fano_graphs
    base, _ = covering_spectrum(MetricGraph(g1, {"A": LA, "B": LB}))
    ok = True
    for c in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
        scaled, _ = covering_spectrum(MetricGraph(g1, {"A": c * LA, "B": c * LB}))
        ok = ok and list(scaled.values) == [c * v for v in base.values]
    report("criterion 7b: covering spectrum rescales with the metric", ok)


def test_criterion_7c_length_spectrum_containment(fano_run, wedge23):
    from covspec import length_spectrum_containment

    ok = True
    for la, lb in ((LA, LB), (Fraction(2), Fraction(9, 4))):
        _, s1, r1, _, s2, r2 = fano_run(la, lb)
        ok = ok and length_spectrum_containment(r1, s1)
        ok = ok and length_spectrum_containment(r2, s2)
    s, r = covering_spectrum(wedge23)
    ok = ok and length_spectrum_containment(r, s)
    report("criterion 7c: twice the spectrum lies in the realized lengths", ok)


def test_criterion_7d_spanning_tree_independence(fano_graphs):
    g1, _ = fano_graphs
    cutoff = LA + 2 * LB
    a = MetricGraph(g1, {"A": LA, "B": LB}, root=0)
    b = MetricGraph(g1, {"A": LA, "B": LB}, root=3)
    ok = a.spanning_tree != b.spanning_tree and sorted(
        c.length for c in enumerate_classes(a, cutoff)
    ) == sorted(c.length for c in enumerate_classes(b, cutoff))
    report("criterion 7d: marked length multiset independent of the tree choice", ok)


def test_criterion_7e_oracle_vs_coset_tables():
    rng = random.Random(777)
    checked = 0
    ok = True
    while checked < 20:
        rels = []
        for _ in range(rng.randint(1, 3)):
            w = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5)))
            )
            if w:
                rels.append(w)
        if not rels:
            continue
        table = todd_coxeter(rels, 2, cap=3000)
        if not table.complete or table.size > 48:
            continue
        checked += 1
        target = cyclic_reduce(
            tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
        )
        cert = decide_membership(Presentation(2, rels), target)
        exact = table.trace(target) == 0
        ok = ok and cert.verdict != "undecided" and (cert.verdict == "member") == exact
    report(
        "criterion 7e: tiered oracle agrees with 20 completed coset tables",
        ok,
        f"{checked} presentations with quotient order <= 48",
    )

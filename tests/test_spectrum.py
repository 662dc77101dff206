from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import takewhile
from time import perf_counter

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from covspec import (
    CapExceededError,
    ColoredGraph,
    CyclicWord,
    Edge,
    IntLattice,
    MarkedClass,
    MetricGraph,
    cayley_graph,
    covering_spectrum,
    covering_spectrum_lattice,
    enumerate_classes,
    jump_set,
    length_spectrum_containment,
)
from covspec import spectrum as spectrum_mod
from covspec import words as words_mod
from covspec.groups import Permutation
from covspec.spectrum import (
    BudgetExhaustedError,
    UndecidedOracleError,
    _lattice_vectors,
    _NormalClosureOracle,
)
from covspec.words import MembershipCertificate, contraction_nonmember

from oracles import (
    StatelessOracle,
    det,
    generator_class_lengths,
    lattice_jump_scan,
    lattice_vectors_by_box,
    replay_stateless,
)

LA, LB = Fraction(2), Fraction(5, 2)

X1_SPECTRUM = [Fraction(1), Fraction(5, 4), Fraction(2), Fraction(9, 4),
               Fraction(13, 4), Fraction(7, 2), Fraction(15, 4)]
X2_SPECTRUM = [Fraction(1), Fraction(5, 4), Fraction(2), Fraction(9, 4),
               Fraction(7, 2), Fraction(4)]


class TestJumpSet:
    def test_single_value(self):
        jumps, last = jump_set([(Fraction(5), [1])], IntLattice(1))
        assert jumps == [Fraction(5)] and last == Fraction(5)

    def test_multiples_generate_nothing_new(self):
        items = [(Fraction(k), [k]) for k in (2, 4, 6, 8)]
        jumps, _ = jump_set(items, IntLattice(1))
        assert jumps == [Fraction(2)]

    def test_rectangular_lattice(self):
        items = []
        for a in range(-4, 5):
            for b in range(-3, 4):
                if (a, b) != (0, 0):
                    q = Fraction(4 * a * a + 9 * b * b)
                    items.append((q, [a, b]))
        items.sort(key=lambda t: t[0])
        jumps, _ = jump_set(items, IntLattice(2))
        assert jumps == [Fraction(4), Fraction(9)]  # squared norms 2^2, 3^2

    def test_same_level_tested_before_added(self):
        # two equal vectors at one level: only one jump, not two
        items = [(Fraction(1), [1]), (Fraction(1), [-1]), (Fraction(4), [2])]
        jumps, _ = jump_set(items, IntLattice(1))
        assert jumps == [Fraction(1)]

    def test_stops_at_saturation(self):
        # an endless stream: the walk must stop at the first saturated level
        def endless():
            k = 2
            while True:
                yield Fraction(k), [k]
                k += 1

        jumps, last = jump_set(endless(), IntLattice(1))
        assert jumps == [Fraction(2), Fraction(3)] and last == Fraction(3)

    def test_unsorted_items_rejected(self):
        items = [(Fraction(4), [4]), (Fraction(2), [2])]
        with pytest.raises(ValueError):
            jump_set(items, IntLattice(1))


_vector_sets = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                                      max_size=n), max_size=4)))


@given(_vector_sets)
@example((2, [[2, 0], [0, 1]]))  # full rank, index 2
@example((2, [[1, 0], [3, 0]]))  # rank deficient
@example((2, [[2, 1], [1, 1]]))  # unimodular, no unit row
@settings(max_examples=150, deadline=None, derandomize=True)
def test_saturated_iff_every_unit_vector_is_inside(drawn):
    n, vecs = drawn
    lattice = IntLattice(n)
    for v in vecs:
        lattice.add(v)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    assert lattice.saturated() == all(lattice.contains(u) for u in units)


class TestGraphSpectra:
    def test_wedge(self, wedge23):
        spectrum, report = covering_spectrum(wedge23)
        assert list(spectrum.values) == [Fraction(1), Fraction(3, 2)]
        assert [q.length for q in report.jumps] == [Fraction(2), Fraction(3)]
        assert report.verify_all_certificates(wedge23)

    def test_wedge_first_jump_is_shortest_class(self, wedge23):
        _, report = covering_spectrum(wedge23)
        shortest = min(c.length for c in enumerate_classes(wedge23, Fraction(10)))
        assert report.jumps[0].length == shortest

    def test_jumps_strictly_increasing(self, fano_run):
        for report in (fano_run(LA, LB)[2], fano_run(LA, LB)[5]):
            vals = [q.length for q in report.jumps]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_fano_spectra(self, fano_run):
        _, s1, r1, _, s2, r2 = fano_run(LA, LB)
        assert list(s1.values) == X1_SPECTRUM
        assert list(s2.values) == X2_SPECTRUM
        assert Fraction(13, 4) in s1 and Fraction(13, 4) not in s2
        for s, r in ((s1, r1), (s2, r2)):
            assert list(s.values) == [q.length / 2 for q in r.jumps]

    def test_fano_second_length_pair(self, fano_run):
        _, s1, _, _, s2, _ = fano_run(Fraction(2), Fraction(9, 4))
        assert Fraction(25, 8) in s1 and Fraction(25, 8) not in s2

    def test_certificates_reverify(self, fano_run):
        X1, _, r1, X2, _, r2 = fano_run(LA, LB)
        assert r1.verify_all_certificates(X1)
        assert r2.verify_all_certificates(X2)

    def test_rescaling_covariance(self, fano_graphs):
        g1, _ = fano_graphs
        base, _ = covering_spectrum(MetricGraph(g1, {"A": LA, "B": LB}))
        for c in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
            scaled, _ = covering_spectrum(MetricGraph(g1, {"A": LA * c, "B": LB * c}))
            assert list(scaled.values) == [v * c for v in base.values]

    def test_isometry_invariance_under_relabeling(self, fano, fano_run):
        # rebuild the point graph with permuted vertex order: same spectrum
        pi = [4, 2, 6, 0, 3, 5, 1]
        perms = []
        for name, p in fano.point_perms.items():
            images = [0] * 7
            for v in range(7):
                images[pi[v]] = pi[p(v)]
            from covspec import Permutation

            perms.append((name, Permutation(images)))
        labels = [""] * 7
        for v in range(7):
            labels[pi[v]] = fano.labels[v]
        graph = cayley_graph(perms, labels)
        spectrum, _ = covering_spectrum(MetricGraph(graph, {"A": LA, "B": LB}))
        assert list(spectrum.values) == list(fano_run(LA, LB)[1].values)

    def test_double_covspec_inside_marked_lengths(self, wedge23, fano_run):
        s, r = covering_spectrum(wedge23)
        assert length_spectrum_containment(r, s)
        X1, s1, r1, X2, s2, r2 = fano_run(LA, LB)
        assert length_spectrum_containment(r1, s1)
        assert length_spectrum_containment(r2, s2)

    def test_simply_connected(self):
        graph = ColoredGraph(["v"], [], [])
        spectrum, report = covering_spectrum(MetricGraph(graph, {}))
        assert spectrum.values == ()
        assert report.termination == {"mode": "simply_connected"}

    def test_budget_at_saturation_level(self, wedge23):
        # the wedge saturates at 3, where both generators are relators
        spectrum, report = covering_spectrum(wedge23, budget=Fraction(3))
        assert list(spectrum.values) == [Fraction(1), Fraction(3, 2)]
        assert report.processed_to == Fraction(3)

    def test_budget_exhaustion(self, wedge23):
        with pytest.raises(BudgetExhaustedError):
            covering_spectrum(wedge23, budget=Fraction(5, 2))

    def test_stops_at_saturation_below_a_high_budget(self, fano_run, fano_graphs):
        _, s1, r1, _, _, _ = fano_run(LA, LB)
        X1 = MetricGraph(fano_graphs[0], {"A": LA, "B": LB})
        spectrum, report = covering_spectrum(X1, budget=Fraction(40))
        assert spectrum == s1 and report.processed_to == r1.processed_to
        assert report.processed_to < Fraction(40)

    def test_jump_records_follow_witness_queries(self, fano_run):
        # a level's querying stops at its first non-member, which is the
        # last query of the level and its jump witness
        X1, _, r1, _, _, _ = fano_run(LA, LB)
        assert r1.jumps
        for j in r1.jumps:
            assert j.certificate.verdict == "non_member"
            level = [q for q in r1.queries if q.length == j.length]
            assert level[-1] is j

    def test_replay_rejects_an_inconsistent_report(self, theta_graph, fano_run):
        # the checker rewrites and measures every loop itself, so a loop
        # that does not close in the graph, or a class or query whose
        # length is not its loop's, fails replay
        for tamper in (
            lambda r: r.classes.__setitem__(0, MarkedClass(Fraction(1), CyclicWord([0]))),
            lambda r: r.classes.__setitem__(-1, MarkedClass(Fraction(4), r.classes[-1].word)),
            lambda r: setattr(r.queries[0], "length", Fraction(5, 2)),
        ):
            _, report = covering_spectrum(theta_graph)
            assert report.verify_all_certificates(theta_graph)
            assert [c.length for c in report.classes] == [Fraction(3), Fraction(7, 2)]
            tamper(report)
            assert not report.verify_all_certificates(theta_graph)
        # each query's context is the classes strictly shorter than it, so
        # the lengths must be the graph's and the classes in length order.
        # On X1 two forgeries keep every certificate replaying and fail
        # only these checks: classes 6 and 7 (lengths 5 and 6) swapped, and
        # the jump query at 5/2 relabelled 2, whose abelian certificate
        # holds against no relators too
        X1, _, r1, _, _, _ = fano_run(LA, LB)
        assert [r1.classes[k].length for k in (6, 7)] == [Fraction(5), Fraction(6)]
        assert r1.queries[1].length == LB and r1.queries[1] in r1.jumps
        for tamper in (
            lambda r: r.classes.__setitem__(slice(6, 8), r.classes[7:5:-1]),
            lambda r: setattr(r.queries[1], "length", Fraction(2)),
        ):
            report = copy.deepcopy(r1)
            tamper(report)
            assert not report.verify_all_certificates(X1)

    def test_replay_rejects_undecided_and_missing_certificates(self, wedge23):
        # the driver raises before it returns such a report; an undecided
        # last query drops the jump at 3, and every generator needs a
        # member certificate for the closure to be everything
        undecided = MembershipCertificate("undecided", "exhausted", {})
        for tamper in (
            lambda r: setattr(r.queries[-1], "certificate", undecided),
            lambda r: r.generator_certificates.__setitem__(0, undecided),
            lambda r: r.generator_certificates.__setitem__(1, None),
        ):
            _, report = covering_spectrum(wedge23)
            tamper(report)
            assert not report.verify_all_certificates(wedge23)

    def test_undecided_oracle_aborts(self, wedge23, monkeypatch):
        from covspec import spectrum as spectrum_mod

        def always_undecided(*args, **kwargs):
            return MembershipCertificate("undecided", "exhausted", {"budgets": {}})

        monkeypatch.setattr(spectrum_mod, "decide_membership", always_undecided)
        with pytest.raises(UndecidedOracleError) as err:
            covering_spectrum(wedge23)
        assert err.value.length == Fraction(2)

    def test_relator_sets_nested(self, fano_run):
        _, _, r1, _, _, _ = fano_run(LA, LB)
        lengths = [c.length for c in r1.classes]
        assert lengths == sorted(lengths)  # saturation adds classes in order

    def test_jump_iff_strict_vs_closed_closures_differ(self, fano_run):
        # at every realized level, the recorded verdicts say whether
        # <m < L> and <m <= L> coincide; jumps are exactly the levels
        # where they do not
        _, s1, r1, _, _, _ = fano_run(LA, LB)
        jump_levels = {q.length for q in r1.jumps}
        for L in r1.realized_lengths():
            queried = [q for q in r1.queries if q.length == L]
            outside = any(q.certificate.verdict == "non_member" for q in queried)
            assert outside == (L in jump_levels)


class TestLatticeSpectra:
    def test_rectangle_2_3(self):
        spec = covering_spectrum_lattice([[2, 0], [0, 3]])
        assert spec.exact_values() == [Fraction(1), Fraction(3, 2)]
        assert spec.display() == ["1/1", "3/2"]

    def test_unit(self):
        assert covering_spectrum_lattice([[1]]).display() == ["1/2"]

    def test_rational_basis(self):
        spec = covering_spectrum_lattice([[Fraction(1, 2), 0], [0, Fraction(3, 4)]])
        assert spec.exact_values() == [Fraction(1, 4), Fraction(3, 8)]

    def test_irrational_values_display_squared(self):
        # the hexagonal-ish basis has a jump at a non-square norm
        spec = covering_spectrum_lattice([[2, 1], [0, 3]])
        for q, shown in zip(spec.values_squared, spec.display()):
            if shown.startswith("sqrt("):
                assert shown == f"sqrt({q.numerator}/{q.denominator})"

    def test_diag_2_3_7_against_scan(self):
        spec = covering_spectrum_lattice([[2, 0, 0], [0, 3, 0], [0, 0, 7]])
        scan = lattice_jump_scan([[2, 0, 0], [0, 3, 0], [0, 0, 7]], 100)
        assert [q for q in spec.jumps_squared] == [Fraction(q) for q in scan]

    def test_singular_basis(self):
        with pytest.raises(ValueError):
            covering_spectrum_lattice([[1, 2], [2, 4]])

    def test_scaling(self):
        a = covering_spectrum_lattice([[2, 0], [0, 3]])
        b = covering_spectrum_lattice([[4, 0], [0, 6]])
        assert [4 * q for q in a.values_squared] == list(b.values_squared)


def _seeded_integer_bases():
    """Nonsingular integer bases of dimension 1-4; those of dimension 2 and 3
    are skewed (row 1 += k * row 0), which puts the Gram-Schmidt centres
    far from 0.  A skewed 4-dim basis has too many short vectors for the
    brute-force box."""
    rng = random.Random(10)
    bases = []
    while len(bases) < 24:
        n = 1 + len(bases) % 4
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n in (2, 3):
            k = rng.randint(3, 9)
            M[1] = [a + k * b for a, b in zip(M[1], M[0])]
        if det(M) != 0:
            bases.append(M)
    return bases


class TestLatticeStream:
    @pytest.mark.parametrize("M", _seeded_integer_bases(), ids=str)
    def test_prefix_matches_box_listing(self, M):
        bound = max(sum(x * x for x in row) for row in M)
        prefix = [(q, tuple(c)) for q, c in
                  takewhile(lambda item: item[0] <= bound, _lattice_vectors(M))]
        norms = [q for q, _ in prefix]
        assert norms == sorted(norms)
        assert all(any(c) for _, c in prefix)
        assert len(set(prefix)) == len(prefix)
        assert sorted(prefix) == lattice_vectors_by_box(M, bound)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_random_bases_against_scan(self, M):
        assume(det(M) != 0)
        bound = max(sum(x * x for x in row) for row in M)
        spec = covering_spectrum_lattice(M)
        assert list(spec.jumps_squared) == [Fraction(q) for q in lattice_jump_scan(M, bound)]

    @pytest.mark.parametrize(
        "basis, expected",
        [
            (  # pool instance 116
                "4/3 -1 5 -3/2; 2 -1/2 2 4; 2 0 0 -5/3; 3 1/2 -1 3/2",
                ["sqrt(67/72)", "sqrt(161/144)", "sqrt(229/144)", "sqrt(61/36)"],
            ),
            (  # pool instance 27
                "2/3 -1/2 -2 -2; 3/2 -1/2 1 -2; 2 5/3 5 2; 1/3 -5/3 1 -5/3",
                ["sqrt(5/36)", "sqrt(37/72)", "sqrt(59/36)", "sqrt(305/144)"],
            ),
            (  # pool instance 199
                "1/2 5/3 -1; 2/3 3/2 -1; 2 3/2 -5/3",
                ["sqrt(1/72)", "sqrt(5/144)"],
            ),
        ],
    )
    def test_heavy_pool_bases(self, basis, expected):
        rows = [[Fraction(x) for x in row.split()] for row in basis.split(";")]
        assert covering_spectrum_lattice(rows).display() == expected


@st.composite
def schreier_metric_graphs(draw, max_degree=8, numerators=(1, 8), denominator=2):
    """Connected Schreier graphs of two random permutations of degree at
    most ``max_degree``, half with the lengths 2 and 5/2 per colour, half
    per edge, each a numerator in the closed range ``numerators`` over
    ``denominator``."""
    n = draw(st.integers(1, max_degree))
    a, b = (draw(st.permutations(range(n))) for _ in range(2))
    graph = cayley_graph([("A", Permutation(a)), ("B", Permutation(b))])
    if draw(st.booleans()):
        lengths = [Fraction(draw(st.integers(*numerators)), denominator) for _ in graph.edges]
    else:
        lengths = {"A": Fraction(2), "B": Fraction(5, 2)}
    try:
        return MetricGraph(graph, lengths)
    except ValueError:  # not connected
        assume(False)


def full_report(X):
    """Everything a run reports, with both replays of its certificates."""
    try:
        spectrum, report = covering_spectrum(X)
    except UndecidedOracleError as err:
        return "undecided", err.length, err.target_name, err.certificate
    queries = [(q.length, q.target_name, q.target_loop, q.certificate) for q in report.queries]
    replays = report.verify_all_certificates(X), replay_stateless(report, X)
    return spectrum, queries, report.termination, report.processed_to, replays


class TimedOracle(_NormalClosureOracle):
    """The graph driver's own oracle under the stateless oracle's deadline."""

    deadline: float | None = None
    _on_time = StatelessOracle._on_time

    def contains(self, cls):
        self._on_time()
        return super().contains(cls)

    def saturated(self):
        self._on_time()
        return super().saturated()


def timed_full_report(X, oracle, seconds):
    """full_report(X) with ``oracle`` as the driver's oracle, or None past
    ``seconds``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum_mod, "_NormalClosureOracle", oracle)
        mp.setattr(oracle, "deadline", perf_counter() + seconds)
        try:
            return full_report(X)
        except TimeoutError:
            return None


class TestSharedPresentation:
    # The stateless oracle's two-form loop is quadratic in the relator
    # forms at every query and every saturation check, so on some graphs
    # it runs for minutes (per-edge lengths walk many levels), and the
    # real oracle has a heavy tail on the same draws.  Examples on which
    # either runs past a two-second deadline are rejected, and a failing
    # example is reported as drawn rather than shrunk.
    @given(schreier_metric_graphs())
    @settings(max_examples=25, deadline=None, derandomize=True, phases=[Phase.generate])
    def test_reports_match_the_stateless_oracle(self, X):
        ours = timed_full_report(X, TimedOracle, 2.0)
        assume(ours is not None)
        reference = timed_full_report(X, StatelessOracle, 2.0)
        assume(reference is not None)
        assert ours == reference
        assert ours[0] == "undecided" or ours[-1] == (True, True)

    def test_replay_builds_one_table_per_relator_count_and_cap(self, monkeypatch):
        # the closure saturates by a complete enumeration, so all eight
        # generator certificates name the same (relator count, cap)
        graph = cayley_graph([("A", Permutation([3, 4, 5, 2, 0, 6, 1])),
                              ("B", Permutation([3, 2, 1, 5, 0, 4, 6]))])
        X = MetricGraph(graph, {"A": Fraction(2), "B": Fraction(5, 2)})
        _, report = covering_spectrum(X)
        assert report.termination["mode"] == "quotient_enumerated"
        keys = {(sum(c.length < q.length for c in report.classes), q.certificate.evidence["cap"])
                for q in report.queries if q.certificate.tier == "coset_enumeration"}
        keys.add((len(report.classes), 3000))
        calls = []
        inner = words_mod.todd_coxeter

        def counting(relators, rank, cap):
            calls.append(cap)
            return inner(relators, rank, cap)

        monkeypatch.setattr(words_mod, "todd_coxeter", counting)
        assert report.verify_all_certificates(X)
        assert len(calls) == len(keys)


def decided_run(X):
    """covering_spectrum(X), with undecided and capped runs assumed away."""
    try:
        return covering_spectrum(X)
    except (UndecidedOracleError, CapExceededError):
        assume(False)


def spectrum_values(X):
    return list(covering_spectrum(X)[0].values)


def metric_graph(n, edges):
    """A metric graph on n vertices from (origin, target, length) triples."""
    graph = ColoredGraph([str(v) for v in range(n)],
                         [Edge(i, o, t, "A") for i, (o, t, _) in enumerate(edges)], ["A"])
    return MetricGraph(graph, [q for _, _, q in edges])


def edge_triples(X):
    return [(e.origin, e.target, q) for e, q in zip(X.graph.edges, X.edge_lengths)]


# Lengths within a factor 9/4 of each other keep the class stream short:
# with the default per-edge lengths 1/2 to 4, about one drawn Schreier
# graph in a hundred runs for minutes.
_lengths = st.builds(Fraction, st.integers(4, 9), st.just(4))


def short_schreier_graphs(max_degree=8):
    return schreier_metric_graphs(max_degree, numerators=(4, 9), denominator=4)


class TestClosedForms:
    """Spectra known in closed form: a wedge of loops has {l_i / 2}, a
    cycle of total length l has {l / 2}, and a theta graph with edge
    lengths a <= b <= c has {(a + b) / 2, (a + c) / 2}."""

    @staticmethod
    def wedge(lengths):
        return metric_graph(1, [(0, 0, q) for q in lengths])

    @staticmethod
    def cycle(lengths):
        n = len(lengths)
        return metric_graph(n, [(v, (v + 1) % n, q) for v, q in enumerate(lengths)])

    @staticmethod
    def theta(lengths):
        return metric_graph(2, [(0, 1, q) for q in lengths])

    @pytest.mark.parametrize("shape, lengths, expected", [
        ("theta", (1, 2, Fraction(5, 2)), [Fraction(3, 2), Fraction(7, 4)]),
        ("theta", (2, 3, 7), [Fraction(5, 2), Fraction(9, 2)]),
        ("cycle", (1, 2, 3), [Fraction(3)]),
        ("wedge", (3, 1, 2, 2), [Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
    ])
    def test_pinned_values(self, shape, lengths, expected):
        assert spectrum_values(getattr(self, shape)([Fraction(q) for q in lengths])) == expected

    @given(st.lists(_lengths, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_wedge(self, lengths):
        assert spectrum_values(self.wedge(lengths)) == sorted({q / 2 for q in lengths})

    @given(st.lists(_lengths, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_cycle(self, lengths):
        assert spectrum_values(self.cycle(lengths)) == [sum(lengths) / 2]

    @given(st.lists(_lengths, min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_theta(self, lengths):
        a, b, c = sorted(lengths)
        assert spectrum_values(self.theta(lengths)) == sorted({(a + b) / 2, (a + c) / 2})


class TestMetricInvariance:
    """The covering spectrum is a property of the length space: no
    relabelling (which moves the spanning tree's root too), edge numbering
    or subdivision of an edge moves it, and scaling every length by t
    scales it by t."""

    @given(short_schreier_graphs(max_degree=6), st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_spectrum_is_a_metric_invariant(self, X, data):
        base = list(decided_run(X)[0].values)
        n, edges = X.graph.vertex_count, edge_triples(X)
        pi = data.draw(st.permutations(range(n)), label="vertex relabelling")
        sigma = data.draw(st.permutations(range(len(edges))), label="edge ids")
        e = data.draw(st.integers(0, len(edges) - 1), label="subdivided edge")
        cut = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]))
        t = data.draw(st.sampled_from([Fraction(1, 3), Fraction(5, 2), Fraction(7)]))
        o, w, q = edges[e]
        subdivided = edges[:e] + [(o, n, q * cut)] + edges[e + 1:] + [(n, w, q - q * cut)]
        variants = [
            (metric_graph(n, [(pi[o], pi[w], q) for o, w, q in edges]), base),
            (metric_graph(n, [edges[i] for i in sigma]), base),
            (metric_graph(n + 1, subdivided), base),
            (metric_graph(n, [(o, w, q * t) for o, w, q in edges]), [v * t for v in base]),
        ]
        for Y, expected in variants:
            assert list(decided_run(Y)[0].values) == expected


class TestSaturationByGeneratorClasses:
    """A free generator's class rewrites to a one-letter word, which the
    syntactic tier certifies once that class is a relator.  So a run with
    no budget saturates by the longest generator class, and a budget at
    that length changes nothing in the run."""

    @staticmethod
    def record(run):
        spectrum, report = run
        return (spectrum, report.processed_to, [q.certificate for q in report.queries],
                report.termination)

    def check(self, X):
        ceiling = max(generator_class_lengths(X))
        free = self.record(decided_run(X))
        assert free[1] <= ceiling
        assert self.record(covering_spectrum(X, ceiling)) == free

    @given(short_schreier_graphs(max_degree=6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_generated_graphs(self, X):
        self.check(X)

    # the list sizes TestClosedForms draws for each shape
    @given(st.sampled_from(["wedge", "cycle", "theta"]), st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_closed_forms(self, shape, data):
        low, high = {"wedge": (1, 4), "cycle": (1, 5), "theta": (3, 3)}[shape]
        lengths = data.draw(st.lists(_lengths, min_size=low, max_size=high), label="lengths")
        self.check(getattr(TestClosedForms, shape)(lengths))

    def test_fano_pair(self, fano_run):
        X1, _, _, X2, _, _ = fano_run(LA, LB)
        self.check(X1)
        self.check(X2)


def embedded(X, loop):
    """Whether a loop visits no vertex twice."""
    visited = [X.dart_origin[d] for d in loop.darts]
    return len(set(visited)) == len(visited)


class TestEmbeddedCycles:
    """A loop through some vertex twice splits there into two strictly
    shorter closed loops, whose classes are in the closure before its
    level: so it is always a member, and every jump witness is embedded."""

    @given(short_schreier_graphs(max_degree=6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_generated_graphs(self, X):
        report = decided_run(X)[1]
        assert all(embedded(X, q.target_loop) for q in report.jumps)
        for q in report.queries:
            assert embedded(X, q.target_loop) or q.certificate.verdict == "member"

    def test_fano_pair(self, fano_run):
        X1, _, r1, X2, _, r2 = fano_run(LA, LB)
        for X, report in ((X1, r1), (X2, r2)):
            assert report.jumps and all(embedded(X, q.target_loop) for q in report.jumps)
            assert any(not embedded(X, q.target_loop) for q in report.queries)
            for q in report.queries:
                assert embedded(X, q.target_loop) or q.certificate.verdict == "member"


class TestContractionIsAbelian:
    """A target that edge contraction certifies uses an edge e that no
    relator loop traverses; the signed count of e is nonzero on its
    exponent vector and zero on every relator's, so the abelian tier,
    which runs first, has already decided it."""

    @staticmethod
    def check(report):
        for q in report.queries:
            loops = [c.word for c in report.classes if c.length < q.length]
            if contraction_nonmember(loops, q.target_loop) is not None:
                assert (q.certificate.verdict, q.certificate.tier) == ("non_member", "abelian")

    @given(short_schreier_graphs(max_degree=6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_generated_graphs(self, X):
        self.check(decided_run(X)[1])

    def test_fano_pair(self, fano_run):
        _, _, r1, _, _, r2 = fano_run(LA, LB)
        self.check(r1)
        self.check(r2)

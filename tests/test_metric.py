from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from covspec import (
    CapExceededError,
    ColoredGraph,
    CyclicWord,
    Edge,
    MetricGraph,
    Permutation,
    cayley_graph,
    covering_spectrum,
    enumerate_classes,
    format_rational,
    iter_classes,
    loop_to_free_word,
    parse_loop,
    parse_rational,
    render_loop,
    word_inverse,
)
from covspec import metric as metric_mod
from covspec.metric import dart_edge, dart_reverse
from covspec.words import least_rotation

from fano_tables import X1_MINIMAL_LOOPS, X2_MINIMAL_LOOPS, expected_length_multiset
from oracles import (
    classes_by_walks,
    generator_loop,
    regular_cayley_by_products,
    swap_vertices,
    tree_path_to_root,
)
from test_spectrum import schreier_metric_graphs

LA, LB = Fraction(2), Fraction(5, 2)
CUTOFF = LA + 2 * LB


def loop_length(X, word):
    return sum((X.edge_lengths[dart_edge(d)] for d in word.darts), Fraction(0))


@pytest.fixture()
def x1(fano_run):
    return fano_run(LA, LB)[0]


@pytest.fixture()
def x2(fano_run):
    return fano_run(LA, LB)[3]


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("5/2") == Fraction(5, 2)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-2.5") == Fraction(-5, 2)
        assert parse_rational("1e3") == Fraction(1000)
        assert format_rational(Fraction(1)) == "1/1"
        assert format_rational(Fraction(-3, 6)) == "-1/2"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("abc")
        # Fraction reads digit separators and non-ASCII digits; the CLI does not
        for text in ("1_0", "\u0661"):
            with pytest.raises(ValueError):
                parse_rational(text)


class TestMetricGraph:
    def test_wedge_rank(self, wedge23):
        assert wedge23.rank == 2
        assert wedge23.spanning_tree == frozenset()

    def test_fano_rank(self, x1):
        assert x1.rank == 8
        assert len(x1.spanning_tree) == 6

    def test_full_cayley_rank(self, fano):
        graph = regular_cayley_by_products(fano.group, list(fano.point_perms.items()))
        X = MetricGraph(graph, {"A": LA, "B": LB})
        assert X.rank == 169

    def test_deterministic_tree(self, fano_graphs):
        g1, _ = fano_graphs
        a = MetricGraph(g1, {"A": LA, "B": LB})
        b = MetricGraph(g1, {"A": LA, "B": LB})
        assert a.spanning_tree == b.spanning_tree
        assert a.free_generators == b.free_generators

    def test_disconnected_rejected(self):
        g = ColoredGraph(["u", "v"], [Edge(0, 0, 0, "A"), Edge(1, 1, 1, "A")], ["A"])
        with pytest.raises(ValueError):
            MetricGraph(g, {"A": Fraction(1)})

    def test_nonpositive_length_rejected(self, fano_graphs):
        with pytest.raises(ValueError):
            MetricGraph(fano_graphs[0], {"A": Fraction(0), "B": LB})

    def test_missing_color_rejected(self, fano_graphs):
        with pytest.raises(ValueError):
            MetricGraph(fano_graphs[0], {"A": LA})

    def test_per_edge_lengths(self, theta_graph):
        assert theta_graph.rank == 2
        assert theta_graph.edge_lengths == [Fraction(1), Fraction(2), Fraction(5, 2)]


class TestCyclicWord:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CyclicWord([])

    def test_rejects_backtracking(self):
        with pytest.raises(ValueError):
            CyclicWord([0, 1])  # edge 0 forward then backward

    def test_rejects_wraparound_backtracking(self, x1):
        d = 2 * x1.free_generators[0]
        up = tree_path_to_root(x1, x1.dart_origin[d])
        if up:
            with pytest.raises(ValueError):
                CyclicWord([dart_reverse(up[0]), up[0]])

    def test_rotation_and_inversion_invariance(self, wedge23):
        w = CyclicWord([0, 0, 2])  # a*a*b
        assert CyclicWord([0, 2, 0]) == w
        assert w.inverse() == w
        assert CyclicWord([3, 1, 1]) == w  # the inverse loop

    def test_from_path_reduces(self, wedge23):
        w = CyclicWord.from_path([0, 2, 3, 0])  # a b b^-1 a
        assert w == CyclicWord([0, 0])
        with pytest.raises(ValueError):
            CyclicWord.from_path([0, 1])  # null-homotopic


class TestMarkedLength:
    def test_single_loop(self, x1):
        word = parse_loop(x1, "A[011]")
        assert loop_length(x1, word) == LA

    def test_three_edge_loop(self, x1):
        word = parse_loop(x1, "A[110]*A[111]*B[101]")
        assert loop_length(x1, word) == 2 * LA + LB

    def test_parse_rejects_open_chains(self, x1):
        with pytest.raises(ValueError):
            parse_loop(x1, "A[100]*A[100]")  # 100 -> 110 -> 111, not closed

    def test_render_parse_round_trip(self, x1):
        for _, name in X1_MINIMAL_LOOPS:
            word = parse_loop(x1, name)
            assert parse_loop(x1, render_loop(x1, word)) == word

    @given(schreier_metric_graphs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_render_parse_round_trip_on_schreier_graphs(self, X):
        for c in islice(iter_classes(X), 40):
            assert parse_loop(X, render_loop(X, c.word)) == c.word

    def test_parse_rejects_a_step_naming_no_edge_or_two(self):
        # two A-loops at a: render_loop prints A[a] for either
        g = ColoredGraph(["a"], [Edge(0, 0, 0, "A"), Edge(1, 0, 0, "A")], ["A", "B"])
        X = MetricGraph(g, {"A": Fraction(1), "B": Fraction(1)})
        assert render_loop(X, CyclicWord([0])) == render_loop(X, CyclicWord([2])) == "A[a]"
        with pytest.raises(ValueError, match="names 2 edges"):
            parse_loop(X, "A[a]")
        with pytest.raises(ValueError, match="names 0 edges"):
            parse_loop(X, "B[a]")


class TestEnumeration:
    def test_wedge_against_walk_oracle(self, wedge23):
        got = {c.word: c.length for c in enumerate_classes(wedge23, Fraction(6))}
        assert got == classes_by_walks(wedge23, Fraction(6))

    def test_wedge_shortest_classes(self, wedge23):
        classes = enumerate_classes(wedge23, Fraction(6))
        lengths = [c.length for c in classes]
        assert lengths == sorted(lengths)
        assert lengths[:3] == [2, 3, 4]  # a, b, a^2
        by_word = {render_loop(wedge23, c.word): c.length for c in classes}
        assert by_word["A[v]"] == 2 and by_word["B[v]"] == 3

    def test_theta_against_walk_oracle(self, theta_graph):
        budget = Fraction(9)
        got = {c.word: c.length for c in enumerate_classes(theta_graph, budget)}
        assert got == classes_by_walks(theta_graph, budget)

    def test_fano_against_walk_oracle(self, x1):
        budget = Fraction(5)
        got = {c.word: c.length for c in enumerate_classes(x1, budget)}
        assert got == classes_by_walks(x1, budget)

    def test_distinct_lengths_below_cutoff(self, x1):
        lengths = sorted({c.length for c in enumerate_classes(x1, CUTOFF)})
        assert lengths == [
            LA, LB, 2 * LA, LA + LB, 2 * LB, 3 * LA, 2 * LA + LB
        ]

    def test_length_multisets_match_table(self, x1, x2):
        expected = expected_length_multiset(LA, LB)
        for X in (x1, x2):
            got = sorted(c.length for c in enumerate_classes(X, CUTOFF))
            assert got == expected

    def test_minimal_loop_tables(self, x1, x2):
        for X, table in ((x1, X1_MINIMAL_LOOPS), (x2, X2_MINIMAL_LOOPS)):
            classes = enumerate_classes(X, CUTOFF)
            words = {c.word for c in classes}
            assert len(classes) == len(table) == 10
            for (a, b), name in table:
                word = parse_loop(X, name)  # canonical: rotation/inversion safe
                assert word in words
                assert loop_length(X, word) == a * LA + b * LB

    def test_lengths_are_dart_sums(self, x1):
        for c in enumerate_classes(x1, CUTOFF):
            assert c.length == sum(
                (x1.edge_lengths[dart_edge(d)] for d in c.word.darts), Fraction(0)
            )

    def test_inverse_classes_merged(self, x1):
        classes = enumerate_classes(x1, CUTOFF)
        for c in classes:
            assert c.word.inverse() == c.word or c.word.inverse().darts == c.word.darts

    def test_spanning_tree_independence(self, fano_graphs):
        g1, _ = fano_graphs
        # relabelled so that the tree grows from vertex 3; edge ids stay
        a = MetricGraph(g1, {"A": LA, "B": LB})
        b = MetricGraph(swap_vertices(g1, 0, 3), {"A": LA, "B": LB})
        assert a.spanning_tree != b.spanning_tree
        la = sorted(c.length for c in enumerate_classes(a, CUTOFF))
        lb = sorted(c.length for c in enumerate_classes(b, CUTOFF))
        assert la == lb

    def test_class_cap(self, x1, monkeypatch):
        # read when a stream starts, so a lowered cap reaches the spectrum
        # driver's stream as well
        monkeypatch.setattr(metric_mod, "CLASS_CAP", 3)
        with pytest.raises(CapExceededError):
            enumerate_classes(x1, CUTOFF)
        with pytest.raises(CapExceededError):
            covering_spectrum(x1)

    def test_bad_budget(self, wedge23):
        with pytest.raises(ValueError):
            enumerate_classes(wedge23, Fraction(0))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        perms=st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        ),
        # 2/3 and 5/4 put the lcm of the denominators, the heap's unit scale, past 2
        lengths=st.tuples(*[st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2),
                                             Fraction(2, 3), Fraction(5, 4)])] * 2),
        budget=st.sampled_from([Fraction(2), Fraction(3), Fraction(7, 2), Fraction(4)]),
    )
    def test_random_schreier_graphs_against_walk_oracle(self, perms, lengths, budget):
        graph = cayley_graph([("A", Permutation(perms[0])), ("B", Permutation(perms[1]))])
        try:
            X = MetricGraph(graph, dict(zip("AB", lengths)))
        except ValueError:  # a disconnected graph
            assume(False)
        classes = enumerate_classes(X, budget)
        assert classes == sorted(classes)
        got = {c.word: c.length for c in classes}
        assert len(got) == len(classes)
        assert got == classes_by_walks(X, budget)


class TestFreeWordRewriting:
    def test_tree_walk_vanishes(self, x1):
        darts = tree_path_to_root(x1, 3)
        walk = darts + [dart_reverse(d) for d in reversed(darts)]
        assert loop_to_free_word(x1, walk) == ()

    def test_generator_loop_is_single_letter(self, x1):
        for k in range(x1.rank):
            word = loop_to_free_word(x1, generator_loop(x1, k))
            assert word in ((k + 1,), (-(k + 1),))
            assert word == (k + 1,)

    def test_square_functoriality(self, x1):
        loop = generator_loop(x1, 0)
        single = loop_to_free_word(x1, loop)
        double = loop_to_free_word(x1, loop + loop)
        assert double == single * 2

    def test_open_path_rejected(self, x1):
        with pytest.raises(ValueError):
            loop_to_free_word(x1, [generator_loop(x1, 0)[0]])

    def test_distinct_classes_distinct_words(self, x1):
        classes = enumerate_classes(x1, CUTOFF)
        free_words = [loop_to_free_word(x1, c.word) for c in classes]
        words = {least_rotation(w, word_inverse(w)) for w in free_words}
        assert len(words) == len(classes)

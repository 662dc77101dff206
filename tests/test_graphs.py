from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import (
    ColoredGraph,
    Edge,
    MetricGraph,
    Permutation,
    Subgroup,
    closure,
    cayley_graph,
    color_isomorphism,
    export_dot,
    graph_from_json,
    schreier_graph,
    stabilizer,
    subgroup_generated,
    surface_genus,
)

from fano_tables import V1_ADJACENCY, V1_ADJACENCY_ALT, V2_ADJACENCY
from oracles import (
    action_is_free,
    color_isomorphisms_by_search,
    graph_to_json,
    is_color_automorphism,
    left_action_by_products,
    regular_cayley_by_products,
    schreier_by_cosets,
)


def adjacency_of(graph: ColoredGraph) -> dict:
    out: dict = {c: {} for c in graph.colors}
    for e in graph.edges:
        out[e.color][graph.vertices[e.origin]] = graph.vertices[e.target]
    return out


def is_connected(graph: ColoredGraph) -> bool:
    try:
        MetricGraph(graph, {c: 1 for c in graph.colors})
    except ValueError:  # on a nonempty graph with positive lengths, only a disconnected one
        return False
    return True


@st.composite
def colored_graph_pairs(draw):
    """Two Cayley-regular graphs on at most 6 vertices with the same 1-3
    colors, listed in either order: a relabelled copy or an independent draw."""
    n = draw(st.integers(1, 6))
    colors = ["A", "B", "C"][: draw(st.integers(1, 3))]
    succ = {c: draw(st.permutations(range(n))) for c in colors}
    g1 = cayley_graph([(c, Permutation(succ[c])) for c in colors])
    if draw(st.booleans()):
        pi = draw(st.permutations(range(n)))
        other = {c: [0] * n for c in colors}
        for c in colors:
            for v in range(n):
                other[c][pi[v]] = pi[succ[c][v]]
    else:
        other = {c: draw(st.permutations(range(n))) for c in colors}
    order = draw(st.permutations(colors))
    return g1, cayley_graph([(c, Permutation(other[c])) for c in order])


def fano_gens(fano, which: str):
    perms = fano.point_perms if which == "points" else fano.line_perms
    return list(perms.items())


class TestColoredGraph:
    def test_edge_id_gaps_rejected(self):
        with pytest.raises(ValueError):
            ColoredGraph(["v"], [Edge(1, 0, 0, "A")], ["A"])

    def test_endpoint_range(self):
        with pytest.raises(ValueError):
            ColoredGraph(["v"], [Edge(0, 0, 1, "A")], ["A"])

    def test_regularity_check(self):
        # two A-edges out of one vertex on a 2-vertex graph
        g = ColoredGraph(
            ["u", "v"], [Edge(0, 0, 1, "A"), Edge(1, 0, 0, "A")], ["A"]
        )
        with pytest.raises(ValueError):
            g.check_cayley_regular()

    def test_cayley_regularity_of_constructed_graphs(self, fano_graphs):
        for g in fano_graphs:
            g.check_cayley_regular()


class TestCayleyGraph:
    def test_regular_action_sizes(self, fano):
        graph = regular_cayley_by_products(fano.group, fano_gens(fano, "points"))
        assert graph.vertex_count == 168
        assert graph.edge_count == 336
        MetricGraph(graph, {"A": 1, "B": 1})  # raises on a disconnected graph

    def test_points_graph_adjacency(self, fano_graphs):
        g1, _ = fano_graphs
        assert g1.vertex_count == 7 and g1.edge_count == 14
        assert adjacency_of(g1) == V1_ADJACENCY

    def test_lines_graph_adjacency(self, fano_graphs):
        _, g2 = fano_graphs
        assert g2.vertex_count == 7 and g2.edge_count == 14
        assert adjacency_of(g2) == V2_ADJACENCY

    def test_self_loop_positions(self, fano_graphs):
        g1, g2 = fano_graphs
        a1, a2 = adjacency_of(g1), adjacency_of(g2)
        assert V1_ADJACENCY["A"]["011"] == "011"
        assert a1["A"]["011"] == "011"
        assert a1["B"]["111"] == a2["B"]["111"] == "111"
        assert a2["A"]["100"] == "100"


class TestSchreier:
    def test_whole_group_quotient(self, fano):
        H = subgroup_generated(fano.group, list(fano.group.generators))
        g = schreier_graph(fano.group, H, fano_gens(fano, "points"))
        assert g.vertex_count == 1 and g.edge_count == 2
        assert all(e.origin == e.target for e in g.edges)

    def test_trivial_subgroup_gives_cayley_graph(self, fano):
        H = subgroup_generated(fano.group, [])
        g = schreier_graph(fano.group, H, fano_gens(fano, "points"))
        full = regular_cayley_by_products(fano.group, fano_gens(fano, "points"))
        assert g.vertex_count == 168
        assert color_isomorphism(g, full) is not None

    def test_point_stabilizer_quotient(self, fano, fano_graphs):
        g = schreier_graph(fano.group, fano.h1, fano_gens(fano, "points"))
        assert g.vertex_count == 7  # index [G:H]
        assert color_isomorphism(g, fano_graphs[0]) is not None

    def test_line_stabilizer_quotient(self, fano, fano_graphs):
        g = schreier_graph(fano.group, fano.h2, fano_gens(fano, "points"))
        assert color_isomorphism(g, fano_graphs[1]) is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_coset_reference_on_random_generating_pairs(self, fano, seed):
        rng = random.Random(seed)
        while True:
            a, b = rng.sample(fano.group.elements, 2)
            G = closure([a, b])
            if G.order == fano.group.order:
                break
        point, line = rng.randrange(7), rng.randrange(7)
        # points and lines are labeled by the nonzero vectors 1..7 of GF(2)^3,
        # and a line holds the points orthogonal to its label
        on_line = {j for j in range(7) if bin((j + 1) & (line + 1)).count("1") % 2 == 0}
        subgroups = [
            subgroup_generated(G, []),
            subgroup_generated(G, [a, b]),
            stabilizer(G, point),
            Subgroup(G, frozenset(
                i for i, g in enumerate(G.elements) if {g(j) for j in on_line} == on_line
            )),
            subgroup_generated(G, [rng.choice(G.elements)]),
        ]
        assert [H.order for H in subgroups[:4]] == [1, 168, 24, 24]
        gens = [("A", a), ("B", b)]
        for H in subgroups:
            assert schreier_graph(G, H, gens) == schreier_by_cosets(G, H, gens)


class TestColorIsomorphism:
    def test_self(self, fano_graphs):
        g1, _ = fano_graphs
        assert color_isomorphism(g1, g1) == list(range(7))

    def test_relabeled(self, fano_graphs):
        g1, _ = fano_graphs
        pi = [3, 0, 5, 6, 2, 1, 4]
        edges = [
            Edge(e.id, pi[e.origin], pi[e.target], e.color) for e in g1.edges
        ]
        labels = [""] * 7
        for v, lbl in enumerate(g1.vertices):
            labels[pi[v]] = lbl
        g = ColoredGraph(labels, edges, g1.colors)
        assert color_isomorphism(g1, g) == pi

    def test_points_vs_lines_not_isomorphic(self, fano_graphs):
        g1, g2 = fano_graphs
        assert color_isomorphism(g1, g2) is None

    def test_alt_adjacency_not_isomorphic(self, fano_graphs):
        # the variant with the A-loop at 110 is not a relabeling of the
        # point graph: the B-edges force every candidate vertex map
        g1, _ = fano_graphs
        labels = sorted(V1_ADJACENCY_ALT["A"])
        idx = {l: i for i, l in enumerate(labels)}
        edges = []
        eid = 0
        for color in ("A", "B"):
            for lbl in labels:
                edges.append(Edge(eid, idx[lbl], idx[V1_ADJACENCY_ALT[color][lbl]], color))
                eid += 1
        alt = ColoredGraph(labels, edges, ["A", "B"])
        assert color_isomorphism(g1, alt) is None

    def test_requires_cayley_regular_graphs(self):
        g = ColoredGraph(["u", "v"], [Edge(0, 0, 1, "A"), Edge(1, 0, 0, "A")], ["A"])
        with pytest.raises(ValueError, match="out-regular"):
            color_isomorphism(g, g)

    # Out-edges alone reach the component of vertex 0, so a disconnected
    # first graph has no forced map and gives None.
    @given(colored_graph_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_agrees_with_brute_force(self, pair):
        g1, g2 = pair
        isos = color_isomorphisms_by_search(g1, g2)
        got = color_isomorphism(g1, g2)
        assert (got is not None) == (bool(isos) and is_connected(g1))
        assert got is None or got in isos


class TestFreeness:
    def test_left_action_is_free_and_color_preserving(self, fano):
        graph = regular_cayley_by_products(fano.group, fano_gens(fano, "points"))
        perms = left_action_by_products(fano.group)
        assert all(is_color_automorphism(graph, p) for p in perms)
        assert action_is_free(graph, perms[1:])

    def test_trivial_action_not_free(self, fano):
        g = cayley_graph([("A", Permutation([0]))], ["v"])
        # a group element acting as the identity fixes everything
        assert not action_is_free(g, [Permutation.identity(1)])

    def test_swap_of_two_copies_is_free(self):
        g = cayley_graph([("A", Permutation([0, 1]))], ["u", "v"])
        assert action_is_free(g, [Permutation([1, 0])])

    def test_non_automorphism_rejected(self, fano_graphs):
        g1, _ = fano_graphs
        with pytest.raises(ValueError):
            action_is_free(g1, [Permutation([1, 0, 2, 3, 4, 5, 6])])


class TestGenus:
    def test_seven_vertices_two_handles(self):
        assert surface_genus(7, 0, 2) == 8

    def test_base_genus_progression(self):
        for g in range(5):
            assert surface_genus(7, g, 2) == 1 + 7 * (g + 1)

    def test_torus_from_one_handle(self):
        assert surface_genus(1, 0, 1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            surface_genus(7, 0, 0)
        with pytest.raises(ValueError):
            surface_genus(-1, 0, 1)


class TestDot:
    def test_single_loop(self):
        g = cayley_graph([("A", Permutation([0]))], ["v"])
        dot = export_dot(g)
        assert dot.count("->") == 1 and 'label="v"' in dot

    def test_fano_styles(self, fano_graphs):
        g1, _ = fano_graphs
        dot = export_dot(g1)
        assert dot.count("->") == 14
        assert dot.count("style=dotted") == 7
        assert dot.count("style=solid") == 7

    def test_isolated_nodes(self):
        g = ColoredGraph(["a", "b"], [], [])
        dot = export_dot(g)
        assert "->" not in dot and dot.count("label=") == 2

    def test_deterministic(self, fano_graphs):
        g1, _ = fano_graphs
        assert export_dot(g1) == export_dot(g1)


class TestJson:
    def test_round_trip_with_lengths(self, fano_graphs):
        g1, _ = fano_graphs
        text = graph_to_json(g1, {"A": "2/1", "B": "5/2"})
        back, lengths = graph_from_json(text)
        assert back == g1
        assert lengths == {"A": "2/1", "B": "5/2"}
        assert graph_to_json(back, lengths) == text
        # rationals always serialize as p/q, integers included
        text = graph_to_json(g1, {"A": Fraction(2), "B": Fraction(5, 2)})
        assert graph_from_json(text)[1] == {"A": "2/1", "B": "5/2"}

    def test_without_lengths(self, fano_graphs):
        g1, _ = fano_graphs
        back, lengths = graph_from_json(graph_to_json(g1))
        assert back == g1 and lengths is None

    def test_malformed(self):
        with pytest.raises(ValueError):
            graph_from_json("{not json")
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": ["v"]}')
        # labels are read as strings, so 1 and "1" name the same vertex
        with pytest.raises(ValueError, match="listed twice"):
            graph_from_json('{"vertices": [1, "1"], "edges": []}')

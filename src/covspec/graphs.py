"""Colored directed multigraphs and generalized Cayley/Schreier constructions.

Edges carry their own ids; self-loops and parallel edges are first-class.
Every graph built here satisfies Cayley regularity: one outgoing and one
incoming edge of each color at every vertex.  Schreier graphs are built
in one pass as left-orbit quotients of the Cayley graph; the tests check
them against an independent coset construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .groups import FiniteGroup, Permutation, Subgroup


@dataclass(frozen=True)
class Edge:
    id: int
    origin: int
    target: int
    color: str


class ColoredGraph:
    """Directed multigraph with a generator-colored perfect matching structure."""

    def __init__(self, vertices: Sequence[str], edges: Iterable[Edge], colors: Sequence[str]):
        self.vertices = list(vertices)
        self.edges = sorted(edges, key=lambda e: e.id)
        self.colors = list(colors)
        self._validate()
        self._out = {(e.origin, e.color): e for e in self.edges}
        self._in = {(e.target, e.color): e for e in self.edges}

    def _validate(self) -> None:
        n = len(self.vertices)
        ids = [e.id for e in self.edges]
        if ids != list(range(len(ids))):
            raise ValueError("edge ids must be 0..|E|-1 without gaps")
        for e in self.edges:
            if not (0 <= e.origin < n and 0 <= e.target < n):
                raise ValueError(f"edge {e.id} endpoint out of range")
            if e.color not in self.colors:
                raise ValueError(f"edge {e.id} has unknown color {e.color!r}")

    def check_cayley_regular(self) -> None:
        """One outgoing and one incoming edge per color at every vertex."""
        n = len(self.vertices)
        for c in self.colors:
            edges = [e for e in self.edges if e.color == c]
            if sorted(e.origin for e in edges) != list(range(n)):
                raise ValueError(f"color {c!r} is not an out-regular matching")
            if sorted(e.target for e in edges) != list(range(n)):
                raise ValueError(f"color {c!r} is not an in-regular matching")

    def is_cayley_regular(self) -> bool:
        try:
            self.check_cayley_regular()
        except ValueError:
            return False
        return True

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_edge(self, v: int, color: str) -> Edge:
        return self._out[(v, color)]

    def in_edge(self, v: int, color: str) -> Edge:
        return self._in[(v, color)]

    def vertex_index(self, label: str) -> int:
        return self.vertices.index(label)

    def adjacency(self) -> set[tuple[str, str, str]]:
        """Edge set as (origin label, target label, color) triples."""
        return {(self.vertices[e.origin], self.vertices[e.target], e.color) for e in self.edges}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.colors == other.colors
        )


def cayley_graph(
    perms: Sequence[tuple[str, Permutation]], vertex_labels: Sequence[str] | None = None
) -> ColoredGraph:
    """Generalized Cayley graph of a right action: edge (v, s) runs v -> v.s.

    ``perms`` is an ordered list of (color, permutation); edge ids are
    assigned color-major, vertex-minor, so layouts are reproducible.
    """
    if not perms:
        raise ValueError("need at least one generator")
    degree = perms[0][1].degree
    if vertex_labels is None:
        vertex_labels = [str(v) for v in range(degree)]
    if len(vertex_labels) != degree:
        raise ValueError("label count does not match degree")
    edges = []
    eid = 0
    for color, p in perms:
        if p.degree != degree:
            raise ValueError("generator degrees differ")
        for v in range(degree):
            edges.append(Edge(eid, v, p(v), color))
            eid += 1
    graph = ColoredGraph(vertex_labels, edges, [c for c, _ in perms])
    graph.check_cayley_regular()
    return graph


def schreier_graph(
    G: FiniteGroup, H: Subgroup, gens: Sequence[tuple[str, Permutation]]
) -> ColoredGraph:
    """The coset graph (H\\G)[S], vertices ordered by minimal coset element.

    The coset H*g is the left H-orbit of g, so one pass over G in index
    order finds every coset, first reached at its minimal element; the
    edge (H*g, s) runs to the coset of g*s.  Every product is taken by
    index with ``FiniteGroup.product``.  This is the quotient of G's
    Cayley graph by the left H-action, vertex for vertex; the tests check
    it edge for edge against an independent coset construction.
    """
    steps = []
    for color, s in gens:
        if s not in G:
            raise ValueError(f"generator {color} not in group")
        steps.append((color, G.index[s.images]))
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(G.order):
        if i in coset_of:
            continue
        for h in H.members:
            coset_of[G.product(h, i)] = len(reps)
        reps.append(i)
    perms = [
        (color, Permutation([coset_of[G.product(r, k)] for r in reps])) for color, k in steps
    ]
    return cayley_graph(perms, [f"H*g{r}" for r in reps])


def color_isomorphism(g1: ColoredGraph, g2: ColoredGraph) -> list[int] | None:
    """A color-preserving isomorphism g1 -> g2 as a vertex map, or None.

    Regularity makes the image of one vertex propagate to the rest, so the
    search is an anchor choice followed by a forced flood fill.
    """
    if g1.vertex_count != g2.vertex_count or sorted(g1.colors) != sorted(g2.colors):
        return None
    if not (g1.is_cayley_regular() and g2.is_cayley_regular()):
        raise ValueError("isomorphism search requires Cayley-regular graphs")
    n = g1.vertex_count
    if n == 0:
        return []
    for anchor in range(n):
        mapping: dict[int, int] = {0: anchor}
        stack = [0]
        ok = True
        while stack and ok:
            v = stack.pop()
            for c in g1.colors:
                for e1, e2, forward in (
                    (g1.out_edge(v, c), g2.out_edge(mapping[v], c), True),
                    (g1.in_edge(v, c), g2.in_edge(mapping[v], c), False),
                ):
                    w = e1.target if forward else e1.origin
                    w2 = e2.target if forward else e2.origin
                    if w in mapping:
                        if mapping[w] != w2:
                            ok = False
                            break
                    else:
                        mapping[w] = w2
                        stack.append(w)
                if not ok:
                    break
        if ok and len(mapping) == n and len(set(mapping.values())) == n:
            out = [mapping[v] for v in range(n)]
            if _is_color_iso(g1, g2, out):
                return out
    return None


def _is_color_iso(g1: ColoredGraph, g2: ColoredGraph, vmap: Sequence[int]) -> bool:
    want = {(vmap[e.origin], vmap[e.target], e.color) for e in g1.edges}
    have = {(e.origin, e.target, e.color) for e in g2.edges}
    return want == have


def surface_genus(vertex_count: int, base_genus: int, handle_count: int) -> int:
    """Genus of the surface glued from one handled building block per vertex."""
    if vertex_count < 0 or base_genus < 0:
        raise ValueError("vertex count and base genus must be nonnegative")
    if handle_count < 1:
        raise ValueError("need at least one handle")
    return 1 + (base_genus + handle_count - 1) * vertex_count


_DOT_STYLES = ("dotted", "solid", "dashed", "bold")


def export_dot(graph: ColoredGraph) -> str:
    """Deterministic DOT text; the first color renders dotted, the second solid."""
    style = {c: _DOT_STYLES[i % len(_DOT_STYLES)] for i, c in enumerate(graph.colors)}
    lines = ["digraph G {"]
    for i, lbl in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="{lbl}"];')
    for e in graph.edges:
        lines.append(
            f'  v{e.origin} -> v{e.target} [style={style[e.color]} label="{e.color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON wire format (shared with the metric layer, which adds "lengths")


def graph_to_json(graph: ColoredGraph, lengths: dict[str, object] | None = None) -> str:
    doc: dict[str, object] = {
        "vertices": graph.vertices,
        "colors": graph.colors,
        "edges": [
            {"id": e.id, "from": e.origin, "to": e.target, "color": e.color}
            for e in graph.edges
        ],
    }
    if lengths is not None:
        # p/q even for integers, as the schema promises
        doc["lengths"] = {c: "{0.numerator}/{0.denominator}".format(Fraction(q))
                          for c, q in lengths.items()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _json_int(value) -> int:
    # bool is an int subclass, and int() would truncate 0.5 to 0
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def graph_from_json(text: str) -> tuple[ColoredGraph, dict[str, str] | None]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    try:
        if not (isinstance(doc["vertices"], list) and isinstance(doc["edges"], list)):
            raise TypeError('"vertices" and "edges" must be lists')
        vertices = [str(v) for v in doc["vertices"]]
        edges = [Edge(*(_json_int(e[k]) for k in ("id", "from", "to")), str(e["color"]))
                 for e in doc["edges"]]
        colors = doc.get("colors")
        if colors is None:
            seen = []
            for e in edges:
                if e.color not in seen:
                    seen.append(e.color)
            colors = seen
        graph = ColoredGraph(vertices, edges, [str(c) for c in colors])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: missing or bad field {exc}") from exc
    lengths = doc.get("lengths")
    if lengths is not None:
        if not isinstance(lengths, dict):
            raise ValueError("malformed graph JSON: \"lengths\" must be an object")
        lengths = {str(k): str(v) for k, v in lengths.items()}
    return graph, lengths

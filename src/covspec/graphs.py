"""Colored directed multigraphs and generalized Cayley/Schreier constructions.

Edges carry their own ids; self-loops and parallel edges are first-class.
Every graph built here satisfies Cayley regularity: one outgoing and one
incoming edge of each color at every vertex.  Schreier graphs are built
in one pass as left-orbit quotients of the Cayley graph; the tests check
them against an independent coset construction.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
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

    def _validate(self) -> None:
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            label = next(v for v, k in Counter(self.vertices).items() if k > 1)
            raise ValueError(f"vertex label {label!r} is listed twice")
        for i, c in enumerate(self.colors):
            if c in self.colors[:i]:
                raise ValueError(f"color {c!r} is listed twice")
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

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_index(self, label: str) -> int:
        return self.vertices.index(label)

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

    Every color of a regular graph is a permutation, whose cycles close, so out-edges
    from an anchor for vertex 0 force the map over its component (None if g1 is
    disconnected); a bijection keeping all n*|colors| out-edges maps edges onto g2's.
    """
    if g1.vertex_count != g2.vertex_count or sorted(g1.colors) != sorted(g2.colors):
        return None
    n = g1.vertex_count
    succ1, succ2 = ({c: [0] * n for c in g.colors} for g in (g1, g2))
    for succ, g in ((succ1, g1), (succ2, g2)):
        g.check_cayley_regular()
        for e in g.edges:
            succ[e.color][e.origin] = e.target
    for anchor in range(n):
        vmap = [anchor] + [-1] * (n - 1)
        stack = [0]
        ok = True
        while stack and ok:
            v = stack.pop()
            for c in g1.colors:
                w, w2 = succ1[c][v], succ2[c][vmap[v]]
                if vmap[w] < 0:
                    vmap[w] = w2
                    stack.append(w)
                elif vmap[w] != w2:
                    ok = False
                    break
        if ok and sorted(vmap) == list(range(n)):
            return vmap
    return None if n else []


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
# JSON wire format (the metric layer reads the optional "lengths")


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
        elif not isinstance(colors, list):
            raise TypeError('"colors" must be a list')
        graph = ColoredGraph(vertices, edges, [str(c) for c in colors])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: missing or bad field {exc}") from exc
    lengths = doc.get("lengths")
    if lengths is not None:
        if not isinstance(lengths, dict):
            raise ValueError("malformed graph JSON: \"lengths\" must be an object")
        lengths = {str(k): str(v) for k, v in lengths.items()}
    return graph, lengths

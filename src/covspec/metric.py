"""Metric graphs as length spaces.

Edge lengths are exact rationals and every comparison is exact: jump
detection downstream is equality-sensitive, so no floats enter any length
computation.

Closed geodesics of the geometric realization are exactly the cyclically
reduced edge loops, and free homotopy classes of loops correspond to such
loops up to rotation and inversion.  A loop is encoded as a sequence of
darts: dart 2*e traverses edge e forward, dart 2*e+1 backward.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import lcm
from typing import Iterator, Sequence

from .graphs import ColoredGraph
from .groups import CapExceededError
from .words import cyclic_reduce, least_rotation

# free homotopy classes one class stream may yield
CLASS_CAP = 200_000


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', an integer or a decimal such as '2.5' or '1e3' into an
    exact Fraction.  Only ASCII digits count, without '_' separators."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"bad rational {text!r}: only ASCII digits without '_' are read")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from exc


def format_rational(q: Fraction) -> str:
    """Serialize with an explicit denominator, e.g. '1/1', '5/2'."""
    return f"{q.numerator}/{q.denominator}"


def dart_reverse(d: int) -> int:
    return d ^ 1


def dart_edge(d: int) -> int:
    return d // 2


def reduce_dart_path(path: Sequence[int]) -> list[int]:
    """Cyclically reduce a closed dart path: remove backtracking pairs, also
    across the wraparound."""
    out: list[int] = []
    for d in path:
        if out and out[-1] == dart_reverse(d):
            out.pop()
        else:
            out.append(d)
    while len(out) >= 2 and out[0] == dart_reverse(out[-1]):
        out = out[1:-1]
    return out


class CyclicWord:
    """A cyclically reduced loop, canonical up to rotation and inversion.

    The canonical form is the lexicographically least dart tuple over all
    rotations of the word and of its inverse; darts order by (edge id,
    direction), forward before backward.
    """

    __slots__ = ("darts",)

    def __init__(self, darts: Sequence[int]):
        darts = tuple(darts)
        if not darts:
            raise ValueError("the trivial class has no cyclic word")
        for i, d in enumerate(darts):
            if darts[(i + 1) % len(darts)] == dart_reverse(d):
                raise ValueError("word is not cyclically reduced")
        self.darts = least_rotation(darts, tuple(dart_reverse(d) for d in reversed(darts)))

    @classmethod
    def from_path(cls, path: Sequence[int]) -> "CyclicWord":
        """Cyclically reduce an arbitrary closed dart path first."""
        reduced = reduce_dart_path(path)
        if not reduced:
            raise ValueError("path is null-homotopic")
        return cls(reduced)

    def __len__(self) -> int:
        return len(self.darts)

    def inverse(self) -> "CyclicWord":
        return CyclicWord([dart_reverse(d) for d in reversed(self.darts)])

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.darts == other.darts

    def __lt__(self, other: "CyclicWord") -> bool:
        return self.darts < other.darts

    def __hash__(self) -> int:
        return hash(self.darts)

    def __repr__(self) -> str:
        return f"CyclicWord({list(self.darts)})"


@dataclass(frozen=True, order=True)
class MarkedClass:
    """A free homotopy class with its minimum marked length."""

    length: Fraction
    word: CyclicWord


class MetricGraph:
    """A connected colored graph with positive rational edge lengths.

    The spanning tree is breadth-first from a root (vertex 0 unless
    overridden), visiting edges in id order, so the induced free basis of
    the fundamental group is deterministic.
    """

    def __init__(
        self,
        graph: ColoredGraph,
        lengths: dict[str, Fraction] | Sequence[Fraction],
        root: int = 0,
    ):
        self.graph = graph
        if graph.vertex_count == 0:
            raise ValueError("graph has no vertices")
        if isinstance(lengths, dict):
            missing = [c for c in graph.colors if c not in lengths]
            if missing:
                raise ValueError(f"no length for colors {missing}")
            per_edge = [Fraction(lengths[e.color]) for e in graph.edges]
        else:
            per_edge = [Fraction(q) for q in lengths]
            if len(per_edge) != graph.edge_count:
                raise ValueError("per-edge length list has wrong size")
        if any(q <= 0 for q in per_edge):
            raise ValueError("edge lengths must be positive")
        self.edge_lengths = per_edge

        # each vertex lists its out-darts in dart order, by edge id with
        # forward first: the order the spanning tree visits them in
        n = graph.vertex_count
        self.dart_origin: list[int] = [0] * (2 * graph.edge_count)
        self.dart_target: list[int] = [0] * (2 * graph.edge_count)
        for e in graph.edges:
            self.dart_origin[2 * e.id] = self.dart_target[2 * e.id + 1] = e.origin
            self.dart_target[2 * e.id] = self.dart_origin[2 * e.id + 1] = e.target
        self.out_darts: list[list[int]] = [[] for _ in range(n)]
        for d, v in enumerate(self.dart_origin):
            self.out_darts[v].append(d)

        if type(root) is not int or root not in range(n):
            raise ValueError(f"root {root!r} is not a vertex of the graph")
        parent: dict[int, int | None] = {root: None}  # the tree dart reaching each vertex
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for d in self.out_darts[v]:
                    w = self.dart_target[d]
                    if w not in parent:
                        parent[w] = d
                        nxt.append(w)
            frontier = nxt
        if len(parent) != n:
            raise ValueError("graph must be connected")
        self.spanning_tree = frozenset(dart_edge(d) for d in parent.values() if d is not None)
        self.free_generators = [e.id for e in graph.edges if e.id not in self.spanning_tree]
        self._gen_index = {e: k for k, e in enumerate(self.free_generators)}

    @property
    def rank(self) -> int:
        return self.graph.edge_count - self.graph.vertex_count + 1


def check_closed_loop(X: MetricGraph, darts: Sequence[int]) -> None:
    """Raise unless consecutive darts chain and the path closes up."""
    for i, d in enumerate(darts):
        j = (i + 1) % len(darts)
        if X.dart_target[d] != X.dart_origin[darts[j]]:
            raise ValueError(f"steps {i} and {j} do not chain")


def iter_classes(X: MetricGraph) -> Iterator[MarkedClass]:
    """Every free homotopy class exactly once, by (length, canonical word).

    Best-first search over non-backtracking dart walks, kept in a heap
    ordered by (length, darts).  A class's canonical word starts with the
    forward dart 2e of its least edge e and uses no edge below e, so walks
    start only at forward darts and never step to a smaller edge; a closed
    walk is yielded only when it is its own canonical word.  Raises
    CapExceededError on the class after the first ``CLASS_CAP``.

    The heap holds lengths as integers in units of 1/scale, scale the lcm
    of the edge-length denominators; scaling by a positive integer keeps
    the order and the ties, and only a yielded class gets a Fraction.
    """
    cap = CLASS_CAP
    scale = lcm(*(q.denominator for q in X.edge_lengths))
    units = [int(q * scale) for q in X.edge_lengths]
    origin, target, out_darts = X.dart_origin, X.dart_target, X.out_darts
    heap = [(units[e], (2 * e,)) for e in range(X.graph.edge_count)]
    heapq.heapify(heap)
    yielded = 0
    while heap:
        length, path = heapq.heappop(heap)
        first, last = path[0], path[-1]
        v = target[last]
        if v == origin[first] and first != dart_reverse(last):
            word = CyclicWord(path)
            if word.darts == path:
                yielded += 1
                if yielded > cap:
                    raise CapExceededError(f"class count exceeds cap {cap}")
                yield MarkedClass(Fraction(length, scale), word)
        for d in out_darts[v]:
            if d >= first and d != dart_reverse(last):
                heapq.heappush(heap, (length + units[dart_edge(d)], path + (d,)))


def enumerate_classes(X: MetricGraph, budget: Fraction) -> list[MarkedClass]:
    """All free homotopy classes with marked length below the budget.

    The budget itself is excluded.  Sorted by (length, canonical word).
    ``CLASS_CAP`` counts the first class past the budget too.
    """
    budget = Fraction(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    return list(takewhile(lambda c: c.length < budget, iter_classes(X)))


def loop_to_free_word(X: MetricGraph, path: Sequence[int] | CyclicWord) -> tuple[int, ...]:
    """Rewrite a closed edge loop as a cyclically reduced word in the free basis.

    Tree darts vanish; non-tree dart 2e maps to its generator letter.
    Letters are signed 1-based generator indices.  Two loops are freely
    homotopic iff their outputs agree up to rotation and inversion.
    """
    if isinstance(path, CyclicWord):
        darts: Sequence[int] = path.darts
    else:
        darts = list(path)
    if darts:
        check_closed_loop(X, darts)
    word: list[int] = []
    for d in darts:
        e = dart_edge(d)
        g = X._gen_index.get(e)
        if g is not None:
            word.append(g + 1 if d % 2 == 0 else -(g + 1))
    return cyclic_reduce(tuple(word))


# ---------------------------------------------------------------------------
# Human-readable loop notation: "A[110]*B[011]^-1" walks the A-edge leaving
# vertex 110, then the B-edge leaving 011 backwards.

_STEP_RE = re.compile(r"^([^\[\]]+)\[([^\[\]]+)\](\^-1)?$")


def render_loop(X: MetricGraph, word: CyclicWord) -> str:
    parts = []
    for d in word.darts:
        e = X.graph.edges[dart_edge(d)]
        origin = X.graph.vertices[e.origin]
        suffix = "" if d % 2 == 0 else "^-1"
        parts.append(f"{e.color}[{origin}]{suffix}")
    return "*".join(parts)


def parse_loop(X: MetricGraph, text: str) -> CyclicWord:
    """Inverse of render_loop; raises unless each step names one edge and the steps close."""
    darts = []
    for step in text.split("*"):
        m = _STEP_RE.match(step.strip())
        if not m:
            raise ValueError(f"bad loop step {step!r}")
        color, label, inv = m.groups()
        v = X.graph.vertex_index(label)
        found = [d for d in X.out_darts[v] if d % 2 == 0 and X.graph.edges[d // 2].color == color]
        if len(found) != 1:
            raise ValueError(f"loop step {step!r} names {len(found)} edges, not one")
        darts.append(found[0] + (1 if inv else 0))
    check_closed_loop(X, darts)
    return CyclicWord.from_path(darts)

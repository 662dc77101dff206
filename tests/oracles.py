"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's search strategies: class
enumeration walks ALL closed walks (backtracking allowed) and reduces
them, the lattice jump scan recomputes an echelon form from scratch at
every membership query, and the coset graph forms the coset of every
group element on its own instead of one pass of left orbits.
"""

from __future__ import annotations

from fractions import Fraction

from covspec.graphs import ColoredGraph, Edge
from covspec.metric import CyclicWord, MetricGraph, reduce_dart_path


def classes_by_walks(X: MetricGraph, budget: Fraction, strict: bool = True):
    """Free homotopy classes below budget, found by reducing every closed walk.

    Every class with geodesic length within budget is hit because its
    geodesic loop is itself a closed walk within budget; longer walks only
    rediscover the same canonical forms.
    """

    def within(q):
        return q < budget if strict else q <= budget

    found: dict[CyclicWord, Fraction] = {}
    for v0 in range(X.graph.vertex_count):
        stack = [((d,), X.dart_length(d)) for d in X.out_darts(v0)
                 if within(X.dart_length(d))]
        while stack:
            walk, length = stack.pop()
            if X.dart_target(walk[-1]) == v0:
                reduced = reduce_dart_path(walk, cyclic=True)
                if reduced:
                    word = CyclicWord(reduced)
                    geo = sum((X.dart_length(d) for d in reduced), Fraction(0))
                    if word not in found or geo < found[word]:
                        found[word] = geo
            v = X.dart_target(walk[-1])
            for d in X.out_darts(v):  # backtracking allowed on purpose
                total = length + X.dart_length(d)
                if within(total):
                    stack.append((walk + (d,), total))
    return found


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    rows = [r[:] for r in rows if any(r)]
    out: list[list[int]] = []
    n = len(rows[0]) if rows else 0
    for col in range(n):
        pool = [r for r in rows if r[col] != 0]
        if not pool:
            continue
        while True:
            pool.sort(key=lambda r: abs(r[col]))
            pivot = pool[0]
            done = True
            for r in pool[1:]:
                q = r[col] // pivot[col]
                for k in range(n):
                    r[k] -= q * pivot[k]
                if r[col] != 0:
                    done = False
            pool = [pivot] + [r for r in pool[1:] if any(r)]
            if done or len(pool) == 1:
                break
        if pivot[col] < 0:
            for k in range(n):
                pivot[k] = -pivot[k]
        out.append(pivot)
        rows = [r for r in rows if r is not pivot and any(r)]
        for r in rows:
            if r[col] != 0:
                q = r[col] // pivot[col]
                for k in range(n):
                    r[k] -= q * pivot[k]
                if r[col] != 0:
                    # pivot does not divide: fold r into the pool and redo
                    return _echelon(out + [r] + rows)
        rows = [r for r in rows if any(r)]
    return out


def _in_span(rows: list[list[int]], vec: list[int]) -> bool:
    basis = _echelon(rows)
    v = vec[:]
    n = len(v)
    for row in basis:
        p = next(k for k in range(n) if row[k] != 0)
        if v[p] != 0:
            if v[p] % row[p] != 0:
                return False
            q = v[p] // row[p]
            for k in range(n):
                v[k] -= q * row[k]
    return not any(v)


def lattice_jump_scan(basis: list[list[int]], norm_bound_sq: int) -> list[int]:
    """Jump squared-norms of the lattice, by exhaustive scan up to the bound."""
    n = len(basis)
    # coefficient box: |c_i| <= sqrt(bound) * max column norm of the inverse;
    # a crude but safe integer bound via adjugate / determinant
    det = _det(basis)
    assert det != 0
    bound = 1
    while bound * bound <= norm_bound_sq:
        bound += 1
    adj_max = max(abs(x) for row in _adjugate(basis) for x in row)
    cmax = bound * n * adj_max // abs(det) + 1
    vectors: dict[int, list[list[int]]] = {}
    from itertools import product

    for cs in product(range(-cmax, cmax + 1), repeat=n):
        if not any(cs):
            continue
        v = [sum(c * basis[i][k] for i, c in enumerate(cs)) for k in range(n)]
        q = sum(x * x for x in v)
        if q <= norm_bound_sq:
            vectors.setdefault(q, []).append(v)
    jumps = []
    added: list[list[int]] = []
    for q in sorted(vectors):
        grew = not added or any(not _in_span(added, v) for v in vectors[q])
        if grew:
            jumps.append(q)
        added.extend(vectors[q])
    return jumps


def _det(M: list[list[int]]) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        out += (-1) ** j * M[0][j] * _det(minor)
    return out


def _adjugate(M: list[list[int]]) -> list[list[int]]:
    n = len(M)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
            out[j][i] = (-1) ** (i + j) * _det(minor)
    return out


def schreier_by_cosets(G, H, gens) -> ColoredGraph:
    """The coset graph (H\\G)[S] from the coset H*g of every element g.

    Cosets are ordered by their least element and labeled H*g{least}; the
    edge (H*g, s) runs to the coset of (least element)*s.  Edge ids are
    color-major, vertex-minor, as in covspec's Cayley graphs.
    """
    cosets = {frozenset(G.index[G.elements[h] * g] for h in H.members) for g in G.elements}
    cosets = sorted(cosets, key=min)
    vertex = {i: k for k, coset in enumerate(cosets) for i in coset}
    edges = []
    for color, s in gens:
        for k, coset in enumerate(cosets):
            target = vertex[G.index[G.elements[min(coset)] * s]]
            edges.append(Edge(len(edges), k, target, color))
    return ColoredGraph([f"H*g{min(c)}" for c in cosets], edges, [c for c, _ in gens])

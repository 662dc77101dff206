"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's search strategies: class
enumeration walks ALL closed walks (backtracking allowed) and reduces
them, lattice vectors are listed by scanning a whole coefficient box,
``lattice_vectors_rational`` runs the torus stream's search on exact
rational Gram-Schmidt data with ``Fraction`` keys and must yield the
same vectors in the same order,
the lattice jump scan recomputes an echelon form from scratch at every
membership query, tree paths and fundamental loops come from a
breadth-first search of the spanning tree alone, the coset graph forms the coset of every
group element on its own instead of one pass of left orbits, and color
isomorphisms are found by trying every vertex bijection instead of a
forced flood fill.  The group
oracles keep the group layer's first, index-free paths, multiplying with
``Permutation`` products: closure and generated subgroups by
``Permutation`` breadth-first search, conjugacy classes by
``conjugate_by`` flood fill, regular Cayley graphs and the left action
element by element, and jump equivalence by the unmemoised pattern loop
with a quadratic witness search.  ``action_is_free`` checks the covering
argument: G acts freely on its Cayley graph from the left.  The membership oracle is kept stateless,
rebuilding everything it reads from the raw relators on every query, and
``decide_membership_syntactic_first`` asks the library's tiers in their
first order: syntactic, abelian, coset.
``todd_coxeter_reference`` is the coset enumerator before its per-row
overhead was cut, which must build the same tables.
``graph_to_json`` writes the graph JSON that ``graph_from_json`` reads,
for round trips and CLI input files, and ``swap_vertices`` moves the
vertex a spanning tree grows from.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import isqrt
from time import perf_counter
from typing import Sequence

from covspec import words as words_mod
from covspec.graphs import ColoredGraph, Edge, cayley_graph
from covspec.groups import CapExceededError, Permutation
from covspec.lattices import IntLattice
from covspec.metric import (
    CyclicWord,
    MetricGraph,
    dart_edge,
    dart_reverse,
    loop_to_free_word,
    reduce_dart_path,
    render_loop,
)
from covspec.spectrum import LATTICE_VECTOR_CAP, UndecidedOracleError, _NormalClosureOracle
from covspec.words import (
    CONJUGATOR_LENGTH,
    MEMBER,
    NON_MEMBER,
    SYNTACTIC_TERMS,
    UNDECIDED,
    CosetTable,
    MembershipCertificate,
    Presentation,
    _check_expression,
    _strip_to_cyclic,
    contraction_nonmember,
    exponent_vector,
    free_reduce,
    todd_coxeter,
    verify_certificate,
    word_inverse,
)


def classes_by_walks(X: MetricGraph, budget: Fraction):
    """Free homotopy classes below budget, found by reducing every closed walk.

    Every class with geodesic length below budget is hit because its
    geodesic loop is itself a closed walk below budget; longer walks only
    rediscover the same canonical forms.
    """

    def within(q):
        return q < budget

    found: dict[CyclicWord, Fraction] = {}
    for v0 in range(X.graph.vertex_count):
        stack = [((d,), X.edge_lengths[dart_edge(d)]) for d in X.out_darts[v0]
                 if within(X.edge_lengths[dart_edge(d)])]
        while stack:
            walk, length = stack.pop()
            if X.dart_target[walk[-1]] == v0:
                reduced = reduce_dart_path(walk)
                if reduced:
                    word = CyclicWord(reduced)
                    geo = sum((X.edge_lengths[dart_edge(d)] for d in reduced), Fraction(0))
                    if word not in found or geo < found[word]:
                        found[word] = geo
            v = X.dart_target[walk[-1]]
            for d in X.out_darts[v]:  # backtracking allowed on purpose
                total = length + X.edge_lengths[dart_edge(d)]
                if within(total):
                    stack.append((walk + (d,), total))
    return found


def tree_path_to_root(X: MetricGraph, v: int, root: int = 0) -> list[int]:
    """Darts walking from v to the root inside ``X.spanning_tree``, found by
    a breadth-first search over the tree edges alone."""
    to_root: dict[int, list[int]] = {root: []}
    frontier = [root]
    while v not in to_root and frontier:
        nxt = []
        for u in frontier:
            for d in X.out_darts[u]:
                w = X.dart_target[d]
                if dart_edge(d) in X.spanning_tree and w not in to_root:
                    to_root[w] = [dart_reverse(d)] + to_root[u]
                    nxt.append(w)
        frontier = nxt
    return to_root[v]


def generator_loop(X: MetricGraph, gen: int, root: int = 0) -> list[int]:
    """Fundamental loop of free generator ``gen``, based at the root, unreduced."""
    e = X.free_generators[gen]
    up = tree_path_to_root(X, X.dart_origin[2 * e], root)
    down = tree_path_to_root(X, X.dart_target[2 * e], root)
    return [dart_reverse(d) for d in reversed(up)] + [2 * e] + down


def generator_class_lengths(X: MetricGraph) -> list[Fraction]:
    """Marked length of each free generator's class: the length of its
    fundamental loop once cyclically reduced."""
    return [sum((X.edge_lengths[dart_edge(d)] for d in reduce_dart_path(generator_loop(X, k))),
                Fraction(0))
            for k in range(X.rank)]


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
            pool = [pivot] + [r for r in pool[1:] if r[col] != 0]
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


def lattice_vectors_by_box(basis: list[list[int]], norm_bound_sq: int) -> list:
    """Every nonzero (|c.basis|^2, c) with squared norm within the bound, sorted.

    Scans a whole coefficient box: c = v.basis^-1, so |c_i| is at most
    |v| times the norm of column i of the inverse, adj / det.
    """
    from itertools import product

    n = len(basis)
    d = det(basis)
    assert d != 0
    adj = _adjugate(basis)
    cmax = [isqrt(norm_bound_sq * sum(adj[k][i] ** 2 for k in range(n)) // (d * d)) + 1
            for i in range(n)]
    found = []
    for cs in product(*(range(-b, b + 1) for b in cmax)):
        if not any(cs):
            continue
        v = [sum(c * basis[i][k] for i, c in enumerate(cs)) for k in range(n)]
        q = sum(x * x for x in v)
        if q <= norm_bound_sq:
            found.append((q, cs))
    return sorted(found)


def lattice_vectors_rational(M: Sequence[Sequence[int]]):
    """Every nonzero c in Z^n as (|c.M|^2, c), in nondecreasing norm; past
    ``LATTICE_VECTOR_CAP`` vectors it raises CapExceededError.

    Best-first Fincke-Pohst.  With the exact Gram-Schmidt norms B and
    coefficients mu of the rows of M, |c.M|^2 = sum_i B_i (c_i - x_i)^2,
    where the centre x_i = -sum_{j>i} mu_ji c_j depends only on later
    coefficients.  A heap node fixes c_i..c_{n-1} and is keyed by the
    sum of their terms, which never falls as more coefficients are
    fixed.  A popped node pushes its nearest child and its next sibling
    outward from the centre (the nearest value pushes both neighbours),
    so every node is pushed by one with no larger key, and complete
    vectors pop in norm order.
    """
    n = len(M)
    star: list[list[Fraction]] = []
    B: list[Fraction] = []
    mu: dict[tuple[int, int], Fraction] = {}
    for i, row in enumerate(M):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i, j] = sum(a * b for a, b in zip(row, star[j])) / B[j]
            v = [a - mu[i, j] * b for a, b in zip(v, star[j])]
        B.append(sum(a * a for a in v))
        if B[i] == 0:
            raise ValueError("basis is singular")
        star.append(v)

    # a node: (key, (c_i, ..., c_{n-1}), its parent's key, centre x_i, the
    # direction c_i last stepped in, 0 for the nearest value)
    def push(base, fixed, x, c, step):
        i = n - 1 - len(fixed)
        heapq.heappush(heap, (base + B[i] * (c - x) ** 2, (c,) + fixed, base, x, step))

    heap: list = []
    push(Fraction(0), (), Fraction(0), 0, 0)
    taken = 0
    while True:
        norm, coeffs, base, x, step = heapq.heappop(heap)
        c, fixed = coeffs[0], coeffs[1:]
        if step >= 0:
            push(base, fixed, x, c + 1, 1)
        if step <= 0:
            push(base, fixed, x, c - 1, -1)
        i = n - len(coeffs)
        if i:
            centre = -sum(mu[j, i - 1] * cj for j, cj in enumerate(coeffs, start=i))
            push(norm, coeffs, centre, round(centre), 0)
        elif any(coeffs):
            if taken == LATTICE_VECTOR_CAP:
                raise CapExceededError(f"lattice vector count exceeds cap {LATTICE_VECTOR_CAP}")
            taken += 1
            yield norm, list(coeffs)


def lattice_jump_scan(basis: list[list[int]], norm_bound_sq: int) -> list[int]:
    """Jump squared-norms of the lattice, by exhaustive scan up to the bound."""
    n = len(basis)
    vectors: dict[int, list[list[int]]] = {}
    for q, cs in lattice_vectors_by_box(basis, norm_bound_sq):
        v = [sum(c * basis[i][k] for i, c in enumerate(cs)) for k in range(n)]
        vectors.setdefault(q, []).append(v)
    jumps = []
    added: list[list[int]] = []
    for q in sorted(vectors):
        grew = not added or any(not _in_span(added, v) for v in vectors[q])
        if grew:
            jumps.append(q)
        added.extend(vectors[q])
    return jumps


def det(M: list[list[int]]) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        out += (-1) ** j * M[0][j] * det(minor)
    return out


def _adjugate(M: list[list[int]]) -> list[list[int]]:
    n = len(M)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
            out[j][i] = (-1) ** (i + j) * det(minor)
    return out


def schreier_by_cosets(G, H, gens) -> ColoredGraph:
    """The coset graph (H\\G)[S] from the coset H*g of every element g.

    Cosets are ordered by their least element and labeled H*g{least}; the
    edge (H*g, s) runs to the coset of (least element)*s.  Edge ids are
    color-major, vertex-minor, as in covspec's Cayley graphs.
    """
    cosets = {
        frozenset(G.index[(G.elements[h] * g).images] for h in H.members) for g in G.elements
    }
    cosets = sorted(cosets, key=min)
    vertex = {i: k for k, coset in enumerate(cosets) for i in coset}
    edges = []
    for color, s in gens:
        for k, coset in enumerate(cosets):
            target = vertex[G.index[(G.elements[min(coset)] * s).images]]
            edges.append(Edge(len(edges), k, target, color))
    return ColoredGraph([f"H*g{min(c)}" for c in cosets], edges, [c for c, _ in gens])


def closure_by_permutations(generators, cap: int) -> list[Permutation]:
    """Elements of <generators> in breadth-first order from the identity,
    by Permutation products; CapExceededError once more than cap are found."""
    ident = Permutation.identity(generators[0].degree)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
                    if len(elements) > cap:
                        raise CapExceededError(f"group order exceeds cap {cap}")
        frontier = nxt
    return elements


def regular_cayley_by_products(G, gens) -> ColoredGraph:
    """G acting on itself on the right: edge (g_i, s) runs to g_i * s."""
    perms = [
        (color, Permutation([G.index[(g * s).images] for g in G.elements]))
        for color, s in gens
    ]
    return cayley_graph(perms, [f"g{i}" for i in range(G.order)])


def left_action_by_products(G) -> list[Permutation]:
    """G acting on its own elements on the left: g sends g_i to g * g_i."""
    return [
        Permutation([G.index[(g * x).images] for x in G.elements]) for g in G.elements
    ]


def is_color_automorphism(graph: ColoredGraph, p: Permutation) -> bool:
    """Does the vertex permutation commute with every colored successor map?"""
    if p.degree != graph.vertex_count:
        return False
    succ = {(e.origin, e.color): e.target for e in graph.edges}
    return all(succ[p(e.origin), e.color] == p(e.target) for e in graph.edges)


def color_isomorphisms_by_search(g1: ColoredGraph, g2: ColoredGraph) -> list[list[int]]:
    """Every vertex bijection g1 -> g2 that maps g1's colored edge multiset
    onto g2's, found by trying all n! maps."""
    if g1.vertex_count != g2.vertex_count:
        return []
    have = Counter((e.origin, e.target, e.color) for e in g2.edges)
    return [
        list(p) for p in permutations(range(g1.vertex_count))
        if Counter((p[e.origin], p[e.target], e.color) for e in g1.edges) == have
    ]


def action_is_free(graph: ColoredGraph, perms) -> bool:
    """True iff none of the given automorphisms fixes a vertex or an edge.

    ``perms`` are the images of the non-identity group elements, so an
    element acting by the identity permutation (trivially) makes the action
    non-free.  Colors and orientations are preserved, so an edge can never
    map to its own reverse and fixed points in edge interiors are ruled
    out along with fixed edges.
    """
    for p in perms:
        if not is_color_automorphism(graph, p):
            raise ValueError("permutation is not a color-preserving automorphism")
        if any(p(v) == v for v in range(graph.vertex_count)):
            return False
        for e in graph.edges:
            if p(e.origin) == e.origin and p(e.target) == e.target:
                return False
    return True


def subgroup_by_closure(G, gens) -> frozenset[int]:
    """Indices of <gens> in G, by breadth-first Permutation closure."""
    gens = list(gens)
    if not gens:
        return frozenset([0])
    ident = Permutation.identity(G.degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return frozenset(G.index[g.images] for g in seen)


def classes_by_conjugation(G) -> list[tuple[int, ...]]:
    """Conjugacy classes by flood fill with conjugate_by, in the order of
    their least element index."""
    conjugators = G.generators + [s.inverse() for s in G.generators]
    seen: set[int] = set()
    classes = []
    for i, g in enumerate(G.elements):
        if i in seen:
            continue
        orbit = {i}
        frontier = [g]
        while frontier:
            nxt = []
            for x in frontier:
                for s in conjugators:
                    y = x.conjugate_by(s)
                    if G.index[y.images] not in orbit:
                        orbit.add(G.index[y.images])
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def jump_equivalence_by_patterns(G, H1, H2):
    """(verdict, witness, stable subset count) of the jump-equivalence check.

    Generates <H ∩ S> afresh for every union S of classes and searches all
    pairs of subsets, in (i, j) order, for one equal under one subgroup and
    different under the other.
    """
    classes = classes_by_conjugation(G)
    n = len(classes)
    patterns = []
    for mask in range(1 << n):
        stable = {i for k in range(n) if mask >> k & 1 for i in classes[k]}
        patterns.append(tuple(
            subgroup_by_closure(G, [G.elements[i] for i in sorted(H.members & stable)])
            for H in (H1, H2)
        ))
    for i in range(1 << n):
        for j in range(i + 1, 1 << n):
            if (patterns[i][0] == patterns[j][0]) != (patterns[i][1] == patterns[j][1]):
                s = tuple(k for k in range(n) if i >> k & 1)
                t = tuple(k for k in range(n) if j >> k & 1)
                return False, (s, t), 1 << n
    return True, None, 1 << n


# ---------------------------------------------------------------------------
# Todd-Coxeter as it was before its per-row overhead was cut: a full row for
# every definition, ``find`` on every letter, a merge after every scan, and
# dead rows kept until the end.


def todd_coxeter_reference(relators, rank: int, cap: int) -> CosetTable:
    """Enumerate cosets of the trivial subgroup in F/<<relators>>.

    HLT strategy: scan every relator at every live coset, defining cosets
    as needed; coincidences are processed with a union-find stack.  The
    run aborts (complete=False) once the raw table grows past the cap.
    Deterministic for fixed inputs.
    """
    if cap <= 0:
        raise ValueError("coset cap must be positive")
    ncols = 2 * rank
    table: list[list[int | None]] = [[None] * ncols]
    labels = [0]

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def merge(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            labels[y] = x
            for k in range(ncols):
                u = table[y][k]
                if u is not None:
                    v = table[x][k]
                    if v is None:
                        table[x][k] = u
                    else:
                        stack.append((u, v))

    overflow = False
    i = 0
    while i < len(labels) and not overflow:
        if find(i) == i:
            for rel in relators:
                start = find(i)
                cur = start
                for x in rel:
                    col = 2 * (abs(x) - 1) + (0 if x > 0 else 1)
                    cur = find(cur)
                    nxt = table[cur][col]
                    if nxt is None:
                        table.append([None] * ncols)
                        labels.append(len(table) - 1)
                        nxt = len(table) - 1
                        table[cur][col] = nxt
                        table[nxt][col ^ 1] = cur
                    cur = find(nxt)
                merge(cur, start)
                if len(table) > cap:
                    overflow = True
                    break
        i += 1

    live = [c for c in range(len(labels)) if find(c) == c]
    lookup = {c: k for k, c in enumerate(live)}
    out: list[list[int | None]] = []
    complete = not overflow
    for c in live:
        row: list[int | None] = []
        for k in range(ncols):
            e = table[c][k]
            if e is None:
                row.append(None)
                complete = False
            else:
                row.append(lookup[find(e)])
        out.append(row)
    return CosetTable(out, complete)


# ---------------------------------------------------------------------------
# the stateless membership oracle, as it was before the tiers shared one
# presentation: every query re-reduces the relators, rebuilds every rotation
# of every relator (deduplicated globally), rebuilds the abelian lattice and
# re-runs Todd-Coxeter, and the two-form search is a nested loop.


def relator_forms(relators):
    forms = []
    seen = set()
    for j, rel in enumerate(relators):
        core, pref = _strip_to_cyclic(rel)
        if not core:
            continue
        for base, exp in ((core, 1), (word_inverse(core), -1)):
            for i in range(len(base)):
                f = base[i:] + base[:i]
                if f in seen:
                    continue
                seen.add(f)
                conj = free_reduce(word_inverse(tuple(pref) + base[:i]))
                forms.append((f, conj, j, exp))
    return forms


def syntactic_member_stateless(relators, target):
    target = free_reduce(target)
    if not target:
        return MembershipCertificate(MEMBER, "syntactic", {"expression": []})
    core, wrap = _strip_to_cyclic(target)
    forms = relator_forms(relators)
    if not forms:
        return None

    def cert(expr):
        assert _check_expression(relators, target, expr)
        return MembershipCertificate(MEMBER, "syntactic", {"expression": expr})

    for f, conj, j, exp in forms:
        if len(core) % len(f) == 0:
            k = len(core) // len(f)
            if f * k == core:
                return cert([[list(wrap) + list(conj), j, exp * k]])
    for f1, c1, j1, e1 in forms:
        for f2, c2, j2, e2 in forms:
            if free_reduce(f1 + f2) == core:
                return cert([[list(wrap) + list(c1), j1, e1], [list(wrap) + list(c2), j2, e2]])

    def peel(w, depth):
        if not w:
            return []
        if depth == 0:
            return None
        for f, conj, j, exp in forms:
            for i in range(min(CONJUGATOR_LENGTH, len(w)) + 1):
                p = w[:i]
                t = free_reduce(p + f + word_inverse(p))
                rest = free_reduce(word_inverse(t) + w)
                if len(rest) < len(w):
                    tail = peel(rest, depth - 1)
                    if tail is not None:
                        return [[list(free_reduce(p + conj)), j, exp]] + tail
            for i in range(min(CONJUGATOR_LENGTH, len(w)) + 1):
                s = w[len(w) - i:]
                t = free_reduce(word_inverse(s) + f + s)
                rest = free_reduce(w + word_inverse(t))
                if len(rest) < len(w):
                    head = peel(rest, depth - 1)
                    if head is not None:
                        return head + [[list(free_reduce(word_inverse(s) + conj)), j, exp]]
        return None

    expr = peel(core, SYNTACTIC_TERMS)
    return None if expr is None else cert([[list(wrap) + c, j, e] for c, j, e in expr])


def decide_membership_stateless(relators, target, rank, *, loops=None,
                                target_loop=None, coset_cap=100_000):
    relators = [r for r in (free_reduce(r) for r in relators) if r]
    cert = syntactic_member_stateless(relators, target)
    if cert is not None:
        return cert
    lattice = IntLattice(rank)
    for rel in relators:
        lattice.add(exponent_vector(rel, rank))
    tvec = exponent_vector(target, rank)
    if not lattice.contains(tvec):
        return MembershipCertificate(NON_MEMBER, "abelian", {
            "target_vector": tvec,
            "relator_vectors": [exponent_vector(r, rank) for r in relators],
        })
    if loops is not None and target_loop is not None:
        cert = contraction_nonmember(loops, target_loop)
        if cert is not None:
            return cert
    target = free_reduce(target)
    table = todd_coxeter(relators, rank, coset_cap)
    end = table.trace(target)
    if table.complete or end == 0:
        verdict = MEMBER if end == 0 else NON_MEMBER
        return MembershipCertificate(verdict, "coset_enumeration", {
            "complete": table.complete, "cap": coset_cap, "table_size": table.size,
            "target_coset": end,
        })
    return MembershipCertificate(UNDECIDED, "exhausted", {"budgets": {
        "syntactic_terms": SYNTACTIC_TERMS, "conjugator_length": CONJUGATOR_LENGTH,
        "coset_cap": coset_cap,
    }})


def decide_membership_syntactic_first(pres, target):
    for tier in (words_mod.syntactic_member, words_mod.abelian_nonmember,
                 words_mod.coset_membership):
        cert = tier(pres, target)
        if cert is not None:
            return cert
    return MembershipCertificate(UNDECIDED, "exhausted", {"budgets": {
        "syntactic_terms": SYNTACTIC_TERMS, "conjugator_length": CONJUGATOR_LENGTH,
        "coset_cap": words_mod.COSET_CAP,
    }})


class StatelessOracle(_NormalClosureOracle):
    """The graph driver's oracle with every query and saturation check run
    from relator words rewritten afresh from the report's classes; install
    it as ``spectrum._NormalClosureOracle``.  Past ``deadline`` (a
    ``perf_counter`` time), the next query or generator check raises
    TimeoutError."""

    deadline: float | None = None

    def _on_time(self):
        if self.deadline is not None and perf_counter() > self.deadline:
            raise TimeoutError("the stateless oracle ran past its deadline")

    def _relators(self, classes):
        return [loop_to_free_word(self.X, c.word) for c in classes]

    def contains(self, cls):
        self._on_time()
        # the query's context: every class strictly shorter than it
        shorter = [c for c in self.report.classes if c.length < cls.length]
        word = loop_to_free_word(self.X, cls.word)
        cert = decide_membership_stateless(self._relators(shorter), word, self.X.rank,
                                           loops=[c.word for c in shorter], target_loop=cls.word)
        self.report.certificates.append(cert)
        if cert.verdict == UNDECIDED:
            raise UndecidedOracleError(cls.length, render_loop(self.X, cls.word), cert)
        return cert.verdict == MEMBER

    def saturated(self):
        rank = self.X.rank
        certs = self.report.generator_certificates
        relators = self._relators(self.report.classes)
        for g in range(rank):
            if certs[g] is None:
                self._on_time()
                certs[g] = syntactic_member_stateless(relators, (g + 1,))
        if all(c is not None for c in certs):
            return True
        table = todd_coxeter(relators, rank, cap=3000)
        if table.complete and all(table.trace((g + 1,)) == 0 for g in range(rank)):
            certs[:] = [MembershipCertificate(MEMBER, "coset_enumeration", {
                "complete": True, "cap": 3000, "table_size": table.size, "target_coset": 0,
            }) for _ in range(rank)]
            return True
        return False


def replay_stateless(report, X) -> bool:
    """Replay every certificate of a report from fresh presentations of
    relator-list slices, each query's the classes strictly shorter than it."""
    relators = [loop_to_free_word(X, c.word) for c in report.classes]
    for cls, cert in report.queries:
        k = sum(c.length < cls.length for c in report.classes)
        if not verify_certificate(cert, Presentation(X.rank, relators[:k]),
                                  loop_to_free_word(X, cls.word)):
            return False
    return all(verify_certificate(cert, Presentation(X.rank, relators), (g + 1,))
               for g, cert in enumerate(report.generator_certificates))


def swap_vertices(graph: ColoredGraph, u: int, v: int) -> ColoredGraph:
    """The same graph with vertices u and v trading places in the vertex
    list, labels and edge ids kept."""
    pi = list(range(graph.vertex_count))
    pi[u], pi[v] = v, u
    edges = [Edge(e.id, pi[e.origin], pi[e.target], e.color) for e in graph.edges]
    return ColoredGraph([graph.vertices[k] for k in pi], edges, graph.colors)


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
        # p/q even for integers
        doc["lengths"] = {c: "{0.numerator}/{0.denominator}".format(Fraction(q))
                          for c, q in lengths.items()}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

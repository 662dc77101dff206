"""Finite permutation groups with explicit element lists.

Everything here targets small groups (a configurable cap, one million
elements by default), so closure enumeration and conjugacy classes are
computed by plain breadth-first search rather than stabilizer chains.

Composition convention: ``p * q`` means "apply p, then q".  With points as
row vectors and permutations induced by right matrix multiplication this
makes ``perm(M1) * perm(M2) == perm(M1 @ M2)``, i.e. all actions in this
package are right actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 10**6
DEFAULT_CLASS_CAP = 20


class CapExceededError(RuntimeError):
    """A search grew past its configured size cap before finishing."""


class Permutation:
    """A permutation of {0, ..., degree-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self, then other
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[x] for x in self.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g under the apply-then convention."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            seen.add(i)
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return sorted(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class FiniteGroup:
    """A group given by generators, closed into an explicit element list.

    Element 0 is the identity; the element order is the breadth-first
    closure order with the generator order fixed, so it is deterministic.
    Conjugacy classes are conjugation orbits, listed by minimal element
    index and stored as sorted index tuples.
    """

    def __init__(self, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.generators = list(generators)
        self.elements = list(elements)
        self.degree = elements[0].degree
        self.index = {g: i for i, g in enumerate(elements)}
        self._classes: list[tuple[int, ...]] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self.index

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> list[tuple[int, ...]]:
        # flood fill by generator conjugation; generators suffice since
        # conjugation by a product is a composite of generator conjugations
        seen = set()
        classes = []
        gens = self.generators + [g.inverse() for g in self.generators]
        for i, g in enumerate(self.elements):
            if i in seen:
                continue
            orbit = {i}
            frontier = [g]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in gens:
                        y = x.conjugate_by(s)
                        j = self.index[y]
                        if j not in orbit:
                            orbit.add(j)
                            nxt.append(y)
                frontier = nxt
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return classes

    def class_of(self, g: Permutation) -> int:
        i = self.index[g]
        for k, cls in enumerate(self.conjugacy_classes()):
            if i in cls:
                return k
        raise AssertionError("classes do not partition the group")


@dataclass(frozen=True)
class Subgroup:
    """Subset of a parent group's element indices, closed as a group."""

    parent: FiniteGroup
    members: frozenset[int]

    def __post_init__(self):
        if 0 not in self.members:
            raise ValueError("subgroup must contain the identity")
        if self.parent.order % len(self.members) != 0:
            raise ValueError("subgroup order does not divide group order")

    @property
    def order(self) -> int:
        return len(self.members)

    def element_list(self) -> list[Permutation]:
        return [self.parent.elements[i] for i in sorted(self.members)]

    def is_closed(self) -> bool:
        """Full closure check; constructions in this module satisfy it."""
        idx = self.parent.index
        elems = self.element_list()
        for a in elems:
            if idx[a.inverse()] not in self.members:
                return False
            for b in elems:
                if idx[a * b] not in self.members:
                    return False
        return True

    def __contains__(self, g: Permutation) -> bool:
        i = self.parent.index.get(g)
        return i is not None and i in self.members

    def conjugated_by(self, g: Permutation) -> "Subgroup":
        """The subgroup g^-1 H g."""
        idx = self.parent.index
        members = frozenset(
            idx[self.parent.elements[i].conjugate_by(g)] for i in self.members
        )
        return Subgroup(self.parent, members)


def closure(generators: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Generate a finite group by breadth-first closure from the identity."""
    if not generators:
        raise ValueError("need at least one generator (use the identity for the trivial group)")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generator degrees differ")
    ident = Permutation.identity(degree)
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
    return FiniteGroup(generators, elements)


def subgroup_generated(G: FiniteGroup, S: Iterable[Permutation]) -> Subgroup:
    """The smallest subgroup of G containing S."""
    gens = list(S)
    for g in gens:
        if g not in G:
            raise ValueError(f"element not in group: {g!r}")
    if not gens:
        return Subgroup(G, frozenset([0]))
    sub = closure(gens, cap=G.order)
    return Subgroup(G, frozenset(G.index[g] for g in sub.elements))


def stabilizer(G: FiniteGroup, point: int) -> Subgroup:
    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    members = frozenset(i for i, g in enumerate(G.elements) if g(point) == point)
    return Subgroup(G, members)


@dataclass(frozen=True)
class GassmannReport:
    """Per-class intersection counts behind a Gassmann-Sunada verdict."""

    verdict: bool
    rows: tuple[tuple[int, int, int], ...]  # (|C|, |C ∩ H1|, |C ∩ H2|)

    def table(self) -> str:
        lines = ["class size | in H1 | in H2"]
        for size, a, b in self.rows:
            lines.append(f"{size:>10} | {a:>5} | {b:>5}")
        return "\n".join(lines)


def is_gassmann_sunada(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> GassmannReport:
    """Check #(C ∩ H1) == #(C ∩ H2) for every conjugacy class C of G."""
    _check_subgroups(G, H1, H2)
    rows = []
    verdict = True
    for cls in G.conjugacy_classes():
        cset = set(cls)
        a = len(cset & H1.members)
        b = len(cset & H2.members)
        rows.append((len(cls), a, b))
        if a != b:
            verdict = False
    if verdict:
        # equal class counts force equal orders; fail loudly if they do not
        if H1.order != H2.order:
            raise AssertionError("equal class counts but different subgroup orders")
    return GassmannReport(verdict, tuple(rows))


@dataclass(frozen=True)
class JumpEquivalenceReport:
    """Verdict of the conjugation-stable-subset equality-pattern check.

    ``witness`` is a pair of class-index tuples (S, T) with
    <H1 ∩ S> == <H1 ∩ T> but <H2 ∩ S> != <H2 ∩ T>, or the other way
    around, when the verdict is False.
    """

    verdict: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    stable_subset_count: int


def is_jump_equivalent(
    G: FiniteGroup, H1: Subgroup, H2: Subgroup, class_cap: int = DEFAULT_CLASS_CAP
) -> JumpEquivalenceReport:
    """Exhaustively compare subgroup-equality patterns over stable subsets.

    Conjugation-stable subsets of G are exactly unions of conjugacy
    classes, so there are 2^c of them.  For each one we generate
    <H_i ∩ S> and compare the two induced partitions of the subset
    lattice; the patterns agree iff the partitions coincide.
    """
    _check_subgroups(G, H1, H2)
    classes = G.conjugacy_classes()
    if len(classes) > class_cap:
        raise CapExceededError(f"{len(classes)} conjugacy classes exceeds cap {class_cap}")
    n = len(classes)
    patterns: list[tuple[frozenset[int], frozenset[int]]] = []
    for mask in range(1 << n):
        chosen = [k for k in range(n) if mask >> k & 1]
        stable = set()
        for k in chosen:
            stable.update(classes[k])
        pats = []
        for H in (H1, H2):
            gens = [G.elements[i] for i in (H.members & stable)]
            pats.append(subgroup_generated(G, gens).members)
        patterns.append((frozenset(pats[0]), frozenset(pats[1])))
    by_h1: dict[frozenset[int], int] = {}
    by_h2: dict[frozenset[int], int] = {}
    block1 = []
    block2 = []
    for p1, p2 in patterns:
        block1.append(by_h1.setdefault(p1, len(by_h1)))
        block2.append(by_h2.setdefault(p2, len(by_h2)))
    if block1 == _relabel(block2):
        return JumpEquivalenceReport(True, None, 1 << n)
    # locate a witness pair of masks
    for i in range(1 << n):
        for j in range(i + 1, 1 << n):
            if (block1[i] == block1[j]) != (block2[i] == block2[j]):
                s = tuple(k for k in range(n) if i >> k & 1)
                t = tuple(k for k in range(n) if j >> k & 1)
                return JumpEquivalenceReport(False, (s, t), 1 << n)
    raise AssertionError("partition mismatch without witness")


def _relabel(blocks: list[int]) -> list[int]:
    # normalize block ids to first-appearance order so partitions compare
    seen: dict[int, int] = {}
    return [seen.setdefault(b, len(seen)) for b in blocks]


def _check_subgroups(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> None:
    if H1.parent is not G or H2.parent is not G:
        raise ValueError("subgroups must live in the given group")


# ---------------------------------------------------------------------------
# GF(2) matrices and the Fano plane actions


class GF2Matrix:
    """Square matrix over GF(2), rows stored as bit tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        self.rows = tuple(tuple(int(x) % 2 for x in row) for row in rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "GF2Matrix") -> "GF2Matrix":
        n = self.n
        return GF2Matrix(
            [
                [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) % 2 for j in range(n)]
                for i in range(n)
            ]
        )

    def apply_row(self, v: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix."""
        n = self.n
        return tuple(sum(v[i] * self.rows[i][j] for i in range(n)) % 2 for j in range(n))

    def det(self) -> int:
        # Gaussian elimination over GF(2)
        rows = [list(r) for r in self.rows]
        n = self.n
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                return 0
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(n):
                if r != col and rows[r][col]:
                    rows[r] = [(a + b) % 2 for a, b in zip(rows[r], rows[col])]
        return 1

    def is_invertible(self) -> bool:
        return self.det() == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


FANO_MATRIX_A = GF2Matrix([(1, 1, 0), (0, 0, 1), (0, 1, 0)])
FANO_MATRIX_B = GF2Matrix([(0, 1, 0), (0, 0, 1), (1, 0, 0)])

# the 7 nonzero vectors of GF(2)^3 in label order 001 < 010 < ... < 111
FANO_LABELS = tuple(format(k, "03b") for k in range(1, 8))
_VECTORS = tuple(tuple(int(c) for c in lbl) for lbl in FANO_LABELS)
_VEC_INDEX = {v: i for i, v in enumerate(_VECTORS)}


@dataclass(frozen=True)
class FanoActions:
    """Right actions of the two standard generators on Fano points and lines.

    Vertex labels are the 3-bit strings of the nonzero vectors; a line is
    labeled by the unique nonzero vector orthogonal to all of its points.
    ``line_action_of[i]`` is the line permutation of the group element with
    index i, aligned with ``group.elements`` through the simultaneous
    closure of the (point, line) generator pairs.
    """

    group: FiniteGroup
    labels: tuple[str, ...]
    point_perms: dict[str, Permutation]
    line_perms: dict[str, Permutation]
    matrices: dict[str, GF2Matrix]
    generator_names: tuple[str, ...]
    line_action_of: tuple[Permutation, ...]

    def point_index(self, lbl: str) -> int:
        return FANO_LABELS.index(lbl)

    def point_stabilizer(self, lbl: str = "100") -> Subgroup:
        return stabilizer(self.group, self.point_index(lbl))

    def line_stabilizer(self, lbl: str = "100") -> Subgroup:
        i = self.point_index(lbl)
        members = frozenset(
            k for k, lp in enumerate(self.line_action_of) if lp(i) == i
        )
        return Subgroup(self.group, members)


def _matrix_point_perm(M: GF2Matrix) -> Permutation:
    return Permutation(tuple(_VEC_INDEX[M.apply_row(v)] for v in _VECTORS))


def _matrix_line_perm(M: GF2Matrix) -> Permutation:
    def orth(w):
        return frozenset(v for v in _VECTORS if sum(a * b for a, b in zip(v, w)) % 2 == 0)

    points_of = {w: orth(w) for w in _VECTORS}
    images = []
    for w in _VECTORS:
        img = frozenset(M.apply_row(v) for v in points_of[w])
        matches = [u for u in _VECTORS if points_of[u] == img]
        if len(matches) != 1:
            raise AssertionError("image point set is not a line")
        images.append(_VEC_INDEX[matches[0]])
    return Permutation(images)


def fano_actions() -> FanoActions:
    """Build the group generated by the two Fano point permutations.

    The line action is derived from the point action through the
    orthogonality labeling rather than hard-coded, and is checked against
    the stored golden adjacency.  The point action is faithful, so closing
    (point, line) pairs keeps both actions aligned element by element.
    """
    from . import fano_data

    mats = {"A": FANO_MATRIX_A, "B": FANO_MATRIX_B}
    point = {name: _matrix_point_perm(M) for name, M in mats.items()}
    line = {name: _matrix_line_perm(M) for name, M in mats.items()}
    for name in ("A", "B"):
        golden = fano_data.V2_ADJACENCY[name]
        derived = {FANO_LABELS[i]: FANO_LABELS[line[name](i)] for i in range(7)}
        if derived != golden:
            raise AssertionError(f"derived line action of {name} deviates from the golden table")

    gen_pairs = [(point["A"], line["A"]), (point["B"], line["B"])]
    ident = Permutation.identity(7)
    pairs = [(ident, ident)]
    seen = {(ident, ident)}
    frontier = [(ident, ident)]
    while frontier:
        nxt = []
        for p, l in frontier:
            for ps, ls in gen_pairs:
                h = (p * ps, l * ls)
                if h not in seen:
                    seen.add(h)
                    pairs.append(h)
                    nxt.append(h)
        frontier = nxt
    G = FiniteGroup([point["A"], point["B"]], [p for p, _ in pairs])
    return FanoActions(
        group=G,
        labels=FANO_LABELS,
        point_perms=point,
        line_perms=line,
        matrices=mats,
        generator_names=("A", "B"),
        line_action_of=tuple(l for _, l in pairs),
    )


def load_generators(path: str | Path) -> list[Permutation]:
    """Read a group file: one generator per line as a 0-based image list."""
    gens = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            images = [int(tok) for tok in line.split()]
            gens.append(Permutation(images))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad generator line: {exc}") from exc
    if not gens:
        raise ValueError(f"{path}: no generators found")
    if len({g.degree for g in gens}) != 1:
        raise ValueError(f"{path}: generator degrees differ")
    return gens

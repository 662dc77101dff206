"""Finite permutation groups with explicit element lists.

Everything here targets small groups (a closure cap, one million elements
by default, and at most ``CONJUGACY_CLASS_CAP`` classes for the
jump-equivalence check), so closure enumeration and conjugacy classes are
computed by breadth-first search rather than stabilizer chains.  Once a
group is closed, its element list fixes an index for every element, and
everything computed inside it (generated subgroups, conjugacy classes,
Schreier graphs) runs in that index space:
a product is composed as a raw image tuple and looked up in the group's
one image -> index map, so no ``Permutation`` is built or validated per
product or conjugate.  ``closure`` searches on image tuples the same way.

The last section builds the paper's example from two GF(2) matrices:
GL(3,2) acting on the seven points and the seven lines of the Fano plane,
and the triple of GL(3,2) with the stabilizers of a point and of a line.

Composition convention: ``p * q`` means "apply p, then q".  With points as
row vectors and permutations induced by right matrix multiplication this
makes ``perm(M1) * perm(M2) == perm(M1 @ M2)``, i.e. all actions in this
package are right actions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 10**6
CONJUGACY_CLASS_CAP = 20


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
    ``index`` maps each element's image tuple to its index, and
    ``product`` multiplies by index through it.  Conjugacy classes are
    conjugation orbits, listed by minimal element index and stored as
    sorted index tuples.
    """

    def __init__(self, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.generators = list(generators)
        self.elements = list(elements)
        self.degree = elements[0].degree
        self.index = {g.images: i for i, g in enumerate(elements)}
        self._classes: list[tuple[int, ...]] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def product(self, i: int, j: int) -> int:
        """Index of e_i * e_j: apply e_i, then e_j."""
        t = self.elements[j].images
        return self.index[tuple([t[k] for k in self.elements[i].images])]

    def __contains__(self, g: Permutation) -> bool:
        return g.images in self.index

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> list[tuple[int, ...]]:
        """Orbits of x -> s^-1 x s for each generator s only (conjugation by a
        product composes these; by s^-1, it is a power of it).  Column s maps i
        to the index of s^-1 g_i s, composed as the tuple of s[g_i[s^-1[k]]]."""
        columns = [
            [self.index[tuple([s[g.images[k]] for k in s_inv])] for g in self.elements]
            for s, s_inv in ((c.images, c.inverse().images) for c in self.generators)
        ]
        seen = set()
        classes = []
        for i in range(self.order):
            if i in seen:
                continue
            orbit = {i}
            frontier = [i]
            while frontier:
                nxt = []
                for x in frontier:
                    for column in columns:
                        j = column[x]
                        if j not in orbit:
                            orbit.add(j)
                            nxt.append(j)
                frontier = nxt
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return classes


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


def closure(generators: Sequence[Permutation], cap: int | None = None) -> FiniteGroup:
    """Generate a finite group by breadth-first closure from the identity,
    of at most ``cap`` elements (``DEFAULT_ORDER_CAP`` if None)."""
    cap = DEFAULT_ORDER_CAP if cap is None else cap
    if not generators:
        raise ValueError("need at least one generator (use the identity for the trivial group)")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generator degrees differ")
    steps = [s.images for s in generators]
    ident = tuple(range(degree))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in steps:
                h = tuple([s[k] for k in g])  # g * s: apply g, then s
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
                    if len(elements) > cap:
                        raise CapExceededError(f"group order exceeds cap {cap}")
        frontier = nxt
    return FiniteGroup(generators, [Permutation(g) for g in elements])


def subgroup_generated(G: FiniteGroup, S: Iterable[Permutation]) -> Subgroup:
    """The smallest subgroup of G containing S, grown from {1} by ``_grow``."""
    gens = list(S)
    for g in gens:
        if g not in G:
            raise ValueError(f"element not in group: {g!r}")
    return Subgroup(G, _grow(G, frozenset([0]), (), [G.index[g.images] for g in gens])[0])


def _grow(G: FiniteGroup, members: frozenset[int], used: tuple[int, ...], new: Iterable[int]):
    """(members, used) of the subgroup ``members``, generated by the indices ``used``,
    grown by the indices ``new`` one at a time; any already inside costs no product."""
    members, used = set(members), list(used)
    for t in new:
        if t in members:
            continue  # already in the subgroup built so far
        used.append(t)
        # the members so far are closed under the earlier generators, so
        # they need only the new one; new members need all of them
        frontier, step = list(members), [t]
        while frontier:
            nxt = []
            for x in frontier:
                for s in step:
                    y = G.product(x, s)
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier, step = nxt, used
    return frozenset(members), tuple(used)


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


def is_gassmann_sunada(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> GassmannReport:
    """Check #(C ∩ H1) == #(C ∩ H2) for every conjugacy class C of G."""
    _check_subgroups(G, H1, H2)
    rows = []
    for cls in G.conjugacy_classes():
        cset = set(cls)
        rows.append((len(cls), len(cset & H1.members), len(cset & H2.members)))
    # the class counts of H partition |H|, so equal counts force equal orders
    return GassmannReport(all(a == b for _, a, b in rows), tuple(rows))


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


def is_jump_equivalent(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> JumpEquivalenceReport:
    """Exhaustively compare subgroup-equality patterns over stable subsets.

    Conjugation-stable subsets of G are exactly unions of conjugacy classes,
    so there are 2^c of them; ``_meet_subgroups`` gives <H_i ∩ S> for each.
    A mask has a witness partner iff its H1 block differs from its H2
    block, that is, unless the masks with its pattern pair fill both.  The
    first such mask has all its partners above it, and the witness pairs
    it with the first.  More than ``CONJUGACY_CLASS_CAP`` classes raise
    CapExceededError.
    """
    _check_subgroups(G, H1, H2)
    n = len(G.conjugacy_classes())
    if n > CONJUGACY_CLASS_CAP:
        raise CapExceededError(f"{n} conjugacy classes exceeds cap {CONJUGACY_CLASS_CAP}")
    patterns = list(zip(_meet_subgroups(G, H1), _meet_subgroups(G, H2)))
    pairs, h1_blocks = Counter(patterns), Counter(p1 for p1, _ in patterns)
    h2_blocks = Counter(p2 for _, p2 in patterns)
    for i, (p1, p2) in enumerate(patterns):
        if not pairs[p1, p2] == h1_blocks[p1] == h2_blocks[p2]:
            j = next(j for j in range(i + 1, 1 << n)
                     if (patterns[j][0] == p1) != (patterns[j][1] == p2))
            witness = tuple(tuple(k for k in range(n) if m >> k & 1) for m in (i, j))
            return JumpEquivalenceReport(False, witness, 1 << n)
    return JumpEquivalenceReport(True, None, 1 << n)


def _meet_subgroups(G: FiniteGroup, H: Subgroup) -> list[frozenset[int]]:
    """<H ∩ S> for every union S of G's classes, by class mask.  Only the
    classes that meet H (``live``) matter: each submask of ``live`` is grown
    once, from the one without its top class k, by H ∩ C_k; mask m reads m & live."""
    parts = [[i for i in cls if i in H.members] for cls in G.conjugacy_classes()]
    live = sum(1 << k for k, part in enumerate(parts) if part)
    grown, mask = {0: (frozenset([0]), ())}, live & -live
    while mask:  # the nonzero submasks of live, in increasing order
        k = mask.bit_length() - 1
        grown[mask] = _grow(G, *grown[mask ^ (1 << k)], parts[k])
        mask = (mask - live) & live
    return [grown[mask & live][0] for mask in range(1 << len(parts))]


def _check_subgroups(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> None:
    if H1.parent is not G or H2.parent is not G:
        raise ValueError("subgroups must live in the given group")


# ---------------------------------------------------------------------------
# GF(2) matrices and the Fano plane actions

# matrices over GF(2) are tuples of rows; points are row vectors v -> vM
FANO_MATRIX_A = ((1, 1, 0), (0, 0, 1), (0, 1, 0))
FANO_MATRIX_B = ((0, 1, 0), (0, 0, 1), (1, 0, 0))

# the 7 nonzero vectors of GF(2)^3 in label order 001 < 010 < ... < 111
FANO_LABELS = tuple(format(k, "03b") for k in range(1, 8))
_VECTORS = tuple(tuple(int(c) for c in lbl) for lbl in FANO_LABELS)
_VEC_INDEX = {v: i for i, v in enumerate(_VECTORS)}
# a line is labeled by the unique nonzero vector orthogonal to all of its
# points; _LINES[i] holds the indices of the points on the line labeled i
_LINES = tuple(
    frozenset(j for j, v in enumerate(_VECTORS) if sum(a * b for a, b in zip(v, w)) % 2 == 0)
    for w in _VECTORS
)


def _apply_row(v: Sequence[int], M: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row vector v times the GF(2) matrix M."""
    return tuple(sum(a * row[j] for a, row in zip(v, M)) % 2 for j in range(len(M)))


def _matrix_point_perm(M: Sequence[Sequence[int]]) -> Permutation:
    return Permutation(tuple(_VEC_INDEX[_apply_row(v, M)] for v in _VECTORS))


def _matrix_line_perm(M: Sequence[Sequence[int]]) -> Permutation:
    """M maps the points of a line onto the points of its image line."""
    p = _matrix_point_perm(M).images
    return Permutation(tuple(_LINES.index(frozenset(p[j] for j in line)) for line in _LINES))


def fano_generators() -> tuple[dict[str, Permutation], dict[str, Permutation]]:
    """The point and the line permutations of the generators A and B.

    Both come from the matrices: a point moves by v -> vM, and a line moves
    with the set of its points.  No group is closed, so drawing the two
    Fano graphs needs nothing more.
    """
    mats = {"A": FANO_MATRIX_A, "B": FANO_MATRIX_B}
    point = {name: _matrix_point_perm(M) for name, M in mats.items()}
    line = {name: _matrix_line_perm(M) for name, M in mats.items()}
    return point, line


def fano_triple() -> tuple[FiniteGroup, Subgroup, Subgroup]:
    """The paper's Gassmann-Sunada triple (G, H1, H2).

    G is GL(3,2), closed from the point permutations of A and B; H1 is the
    stabilizer of the point 100 and H2 that of the line 100.  A line
    stabilizer is the setwise stabilizer of the points on the line (here
    001, 010 and 011), so no line action is needed.
    """
    point, _ = fano_generators()
    G = closure([point["A"], point["B"]])
    i = FANO_LABELS.index("100")
    line = _LINES[i]
    H2 = Subgroup(G, frozenset(k for k, g in enumerate(G.elements) if {g(j) for j in line} == line))
    return G, stabilizer(G, i), H2


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

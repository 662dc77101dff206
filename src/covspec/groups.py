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

    def __contains__(self, g: Permutation) -> bool:
        i = self.parent.index.get(g.images)
        return i is not None and i in self.members


def closure(generators: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Generate a finite group by breadth-first closure from the identity."""
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


def is_jump_equivalent(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> JumpEquivalenceReport:
    """Exhaustively compare subgroup-equality patterns over stable subsets.

    Conjugation-stable subsets of G are exactly unions of conjugacy classes,
    so there are 2^c of them; ``_meet_subgroups`` gives <H_i ∩ S> for each,
    and the patterns agree iff the two induced partitions of the subset
    lattice coincide.  More than ``CONJUGACY_CLASS_CAP`` classes raise
    CapExceededError.
    """
    _check_subgroups(G, H1, H2)
    n = len(G.conjugacy_classes())
    if n > CONJUGACY_CLASS_CAP:
        raise CapExceededError(f"{n} conjugacy classes exceeds cap {CONJUGACY_CLASS_CAP}")
    patterns = list(zip(_meet_subgroups(G, H1), _meet_subgroups(G, H2)))
    # the partitions coincide iff pairing their blocks is a bijection
    h1_blocks = {p1 for p1, _ in patterns}
    h2_blocks = {p2 for _, p2 in patterns}
    if len(set(patterns)) == len(h1_blocks) == len(h2_blocks):
        return JumpEquivalenceReport(True, None, 1 << n)
    # locate a witness pair of masks
    for i in range(1 << n):
        for j in range(i + 1, 1 << n):
            if (patterns[i][0] == patterns[j][0]) != (patterns[i][1] == patterns[j][1]):
                s = tuple(k for k in range(n) if i >> k & 1)
                t = tuple(k for k in range(n) if j >> k & 1)
                return JumpEquivalenceReport(False, (s, t), 1 << n)
    raise AssertionError("partition mismatch without witness")


def _meet_subgroups(G: FiniteGroup, H: Subgroup) -> list[frozenset[int]]:
    """<H ∩ S> for every union S of G's classes, by class mask.  The meet of
    mask m is that of m without its top class k plus H ∩ C_k, so each
    distinct meet is grown once, from that smaller meet's subgroup."""
    parts = [[i for i in cls if i in H.members] for cls in G.conjugacy_classes()]
    meets, grown = [frozenset()], {frozenset(): (frozenset([0]), ())}
    for mask in range(1, 1 << len(parts)):
        k = mask.bit_length() - 1
        base = meets[mask ^ (1 << k)]
        meet = base.union(parts[k])
        if meet not in grown:
            grown[meet] = _grow(G, *grown[base], parts[k])
        meets.append(meet)
    return [grown[meet][0] for meet in meets]


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

    def apply_row(self, v: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix."""
        n = self.n
        return tuple(sum(v[i] * self.rows[i][j] for i in range(n)) % 2 for j in range(n))


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
    index i, aligned with ``group.elements`` through one closure of the
    point and line actions side by side.
    """

    group: FiniteGroup
    labels: tuple[str, ...]
    point_perms: dict[str, Permutation]
    line_perms: dict[str, Permutation]
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


def fano_generators() -> tuple[dict[str, Permutation], dict[str, Permutation]]:
    """The point and the line permutations of the generators A and B.

    The line action is derived from the point action through the
    orthogonality labeling rather than hard-coded, and is checked against
    the stored golden adjacency.  No group is closed, so drawing the two
    Fano graphs needs nothing more.
    """
    from . import fano_data

    mats = {"A": FANO_MATRIX_A, "B": FANO_MATRIX_B}
    point = {name: _matrix_point_perm(M) for name, M in mats.items()}
    line = {name: _matrix_line_perm(M) for name, M in mats.items()}
    for name in mats:
        golden = fano_data.V2_ADJACENCY[name]
        derived = {FANO_LABELS[i]: FANO_LABELS[line[name](i)] for i in range(7)}
        if derived != golden:
            raise AssertionError(f"derived line action of {name} deviates from the golden table")
    return point, line


def fano_actions() -> FanoActions:
    """Build the group generated by the two Fano point permutations.

    ``closure`` runs on the 14-point action of ``fano_generators`` (points
    0-6, then lines shifted to 7-13); its elements split into a point and
    a line permutation, so both actions stay aligned element by element.
    The point action is faithful, so distinct elements keep distinct point
    permutations.
    """
    point, line = fano_generators()
    both = closure(
        [Permutation(point[n].images + tuple(7 + j for j in line[n].images)) for n in point]
    )
    images = [g.images for g in both.elements]
    return FanoActions(
        group=FiniteGroup([point["A"], point["B"]], [Permutation(g[:7]) for g in images]),
        labels=FANO_LABELS,
        point_perms=point,
        line_perms=line,
        generator_names=("A", "B"),
        line_action_of=tuple(Permutation([j - 7 for j in g[7:]]) for g in images),
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

"""Free-group words and the tiered normal-closure membership oracle.

Membership of a word in the normal closure of finitely many relators is
undecidable in general, so the oracle is explicitly partial: it returns a
machine-checkable certificate (member / non_member) or an undecided
report, never a guess.  Tiers run cheap to expensive:

  syntactic    member      witness expression of conjugated relator powers
  abelian      non_member  exponent vector outside the relator lattice
  contraction  non_member  nontrivial image after contracting relator loops
  coset        exact       Todd-Coxeter on F/<<relators>>, trivial subgroup

Words are tuples of signed 1-based generator indices: (1, -2) is g1*g2^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from .groups import CapExceededError, Permutation, closure
from .lattices import IntLattice

if TYPE_CHECKING:
    from .metric import CyclicWord

FreeWord = tuple[int, ...]

MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided"


def free_reduce(word: Sequence[int]) -> FreeWord:
    out: list[int] = []
    for x in word:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(int(x))
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> FreeWord:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def word_inverse(word: Sequence[int]) -> FreeWord:
    return tuple(-x for x in reversed(word))


def least_rotation(word: tuple, inverse: tuple) -> tuple:
    """Lexicographically least rotation of a cyclic word or of its inverse."""
    return min(w[i:] + w[:i] for w in (word, inverse) for i in range(len(w)))


def canonical_cyclic_word(word: Sequence[int]) -> FreeWord:
    """Least rotation over the cyclic reduction and its inverse."""
    w = cyclic_reduce(word)
    if not w:
        return w
    return least_rotation(w, word_inverse(w))


# search limits of the syntactic tier: relator forms peeled off a target,
# and the length of the target prefixes and suffixes that conjugate them
SYNTACTIC_TERMS = 3
CONJUGATOR_LENGTH = 4


@dataclass
class MembershipCertificate:
    """A verdict plus the evidence an independent checker needs to replay it."""

    verdict: str
    tier: str
    evidence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "tier": self.tier, "evidence": self.evidence}


# ---------------------------------------------------------------------------
# syntactic tier

# A form is a word known equal to conj * relator^exp * conj^-1; rotations of
# the cyclic reductions of the relators and their inverses cover every
# cyclic shift with an explicit conjugator.


def _strip_to_cyclic(word: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Return (core, prefix) with word == prefix * core * prefix^-1."""
    w = free_reduce(word)
    prefix: list[int] = []
    while len(w) >= 2 and w[0] == -w[-1]:
        prefix.append(w[0])
        w = w[1:-1]
    return tuple(w), tuple(prefix)


class Presentation:
    """Append-only relators of F_rank and what the tiers read of them: the
    reduced nonempty ``relators`` (certificates index these), ``forms``
    (f, conj, j, exp), one per distinct rotation f of a relator's cyclic
    core or its inverse, with f == conj * relators[j]^exp * conj^-1,
    ``form_index`` from f to its position, the exponent vectors'
    ``lattice``, and the last coset table."""

    def __init__(self, rank: int, relators: Sequence[Sequence[int]] = ()):
        self.rank = rank
        self.relators: list[FreeWord] = []
        self.forms: list[tuple[FreeWord, FreeWord, int, int]] = []
        self.form_index: dict[FreeWord, int] = {}
        self.lattice = IntLattice(rank) if rank else None
        self._table = (None, None)
        for rel in relators:
            self.add(rel)

    def add(self, relator: Sequence[int]) -> None:
        rel = free_reduce(relator)
        if not rel:
            return
        j = len(self.relators)
        self.relators.append(rel)
        if self.lattice is not None:
            self.lattice.add(exponent_vector(rel, self.rank))
        core, pref = _strip_to_cyclic(rel)
        # rotations by i and by i + p coincide for the least period p
        p = next(p for p in range(1, len(core) + 1) if core[p:] + core[:p] == core)
        for base, exp in ((core, 1), (word_inverse(core), -1)):
            for i in range(p):
                f = base[i:] + base[:i]
                if f not in self.form_index:
                    self.form_index[f] = len(self.forms)
                    # f == conj * rel^exp * conj^-1 with conj = (pref * base[:i])^-1,
                    # since core == pref^-1 * rel * pref and a rotation conjugates
                    # by the rotated-away prefix
                    conj = free_reduce(word_inverse(pref + base[:i]))
                    self.forms.append((f, conj, j, exp))

    def coset_table(self, cap: int) -> "CosetTable":
        """The Todd-Coxeter table at ``cap``, kept until the relators or cap change."""
        key = (len(self.relators), cap)
        if self._table[0] != key:
            self._table = None  # drop the old table before building the next
            self._table = key, todd_coxeter(self.relators, self.rank, cap)
        return self._table[1]


def _term_word(relators, conj, j, exp) -> FreeWord:
    rel = tuple(relators[j])
    powered = rel * exp if exp > 0 else word_inverse(rel) * (-exp)
    return free_reduce(tuple(conj) + powered + word_inverse(conj))


def syntactic_member(pres: Presentation, target: Sequence[int]) -> MembershipCertificate | None:
    """Member certificates from rotations, powers, and shortening products.

    The search peels conjugated relator forms off either end of the target,
    requiring strict length decrease, with conjugators drawn from target
    prefixes/suffixes up to ``CONJUGATOR_LENGTH``, at most
    ``SYNTACTIC_TERMS`` deep.  Sound by construction: the witness
    expression multiplies out to the target.
    """
    relators, forms = pres.relators, pres.forms
    target = free_reduce(target)
    if not target:
        return MembershipCertificate(MEMBER, "syntactic", {"expression": []})
    core, wrap = _strip_to_cyclic(target)
    if not forms:
        return None

    # exact power of a single form
    for f, conj, j, exp in forms:
        if len(core) % len(f) == 0:
            k = len(core) // len(f)
            if f * k == core:
                expr = [[list(wrap) + list(conj), j, exp * k]]
                return _syntactic_cert(relators, target, expr)

    # products of two rotated relators, which the shrinking peel below can
    # miss; forms are reduced and distinct, so only f2 == f1^-1 * core fits
    for f1, c1, j1, e1 in forms:
        k = pres.form_index.get(free_reduce(word_inverse(f1) + core))
        if k is not None:
            _, c2, j2, e2 = forms[k]
            expr = [
                [list(wrap) + list(c1), j1, e1],
                [list(wrap) + list(c2), j2, e2],
            ]
            return _syntactic_cert(relators, target, expr)

    def peel(w: FreeWord, depth: int):
        if not w:
            return []
        if depth == 0:
            return None
        for f, conj, j, exp in forms:
            # peel a form off the left, conjugating by prefixes of w
            for i in range(min(CONJUGATOR_LENGTH, len(w)) + 1):
                p = w[:i]
                t = free_reduce(p + f + word_inverse(p))
                rest = free_reduce(word_inverse(t) + w)
                if len(rest) < len(w):
                    tail = peel(rest, depth - 1)
                    if tail is not None:
                        return [[list(free_reduce(p + conj)), j, exp]] + tail
            # and off the right, conjugating by suffixes
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
    if expr is None:
        return None
    expr = [[list(wrap) + c, j, e] for c, j, e in expr]
    return _syntactic_cert(relators, target, expr)


def _syntactic_cert(relators, target, expr) -> MembershipCertificate:
    if not _check_expression(relators, target, expr):
        raise AssertionError("witness does not multiply out")
    return MembershipCertificate(MEMBER, "syntactic", {"expression": expr})


def _check_expression(relators, target, expr) -> bool:
    acc: tuple[int, ...] = ()
    for conj, j, exp in expr:
        acc = free_reduce(acc + _term_word(relators, tuple(conj), j, exp))
    return acc == free_reduce(target)


# ---------------------------------------------------------------------------
# abelianization tier


def exponent_vector(word: Sequence[int], rank: int) -> list[int]:
    v = [0] * rank
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def abelian_nonmember(pres: Presentation, target: Sequence[int]) -> MembershipCertificate | None:
    """Certify non-membership when the target's exponent vector leaves the
    integer lattice spanned by the relators' vectors.

    Sound because the normal closure dies in the abelianization quotient
    Z^rank / <relator vectors>.
    """
    tvec = exponent_vector(target, pres.rank)
    if pres.lattice.contains(tvec):
        return None
    vectors = [exponent_vector(r, pres.rank) for r in pres.relators]
    return MembershipCertificate(
        NON_MEMBER, "abelian", {"target_vector": tvec, "relator_vectors": vectors}
    )


# ---------------------------------------------------------------------------
# contraction tier


def contraction_nonmember(
    loops: Sequence["CyclicWord"], target: "CyclicWord"
) -> MembershipCertificate | None:
    """Contract the edges the relator ``loops`` traverse; certify
    non-membership if the target's image in the quotient graph stays
    homotopically nontrivial.

    Sound because every conjugate of a contracted loop dies in the quotient
    fundamental group, so the normal closure lies in the kernel.  In a
    graph a closed path is null-homotopic iff its reduced edge word is
    empty, and vertex identifications never create new cancellations, so
    the reduced image word decides the question.
    """
    dead = _loop_edges(loops)
    image = _contracted_image(target, dead)
    if not image:
        return None
    return MembershipCertificate(
        NON_MEMBER,
        "contraction",
        {"contracted_edges": sorted(dead), "image_word": image},
    )


def _loop_edges(loops: Sequence["CyclicWord"]) -> set[int]:
    from .metric import dart_edge

    return {dart_edge(d) for loop in loops for d in loop.darts}


def _contracted_image(target: "CyclicWord", dead) -> list[int]:
    """The cyclically reduced darts of ``target`` outside the edges ``dead``."""
    from .metric import dart_edge, reduce_dart_path

    return reduce_dart_path([d for d in target.darts if dart_edge(d) not in dead], cyclic=True)


# ---------------------------------------------------------------------------
# coset enumeration tier (HLT Todd-Coxeter over the trivial subgroup)


class CosetTable:
    """Result of an enumeration attempt on <generators | relators>."""

    def __init__(self, table: list[list[int | None]], complete: bool):
        self.table = table
        self.complete = complete

    @property
    def size(self) -> int:
        return len(self.table)

    def trace(self, word: Sequence[int], start: int = 0) -> int | None:
        cur = start
        for x in word:
            col = 2 * (abs(x) - 1) + (0 if x > 0 else 1)
            nxt = self.table[cur][col]
            if nxt is None:
                return None
            cur = nxt
        return cur


def todd_coxeter(relators: Sequence[FreeWord], rank: int, cap: int) -> CosetTable:
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


def coset_membership(
    pres: Presentation, target: Sequence[int], cap: int = 100_000
) -> MembershipCertificate | None:
    """Decide membership through coset enumeration when it can.

    A completed table is the regular representation of F/<<relators>>, so
    membership is exact: the target is in the normal closure iff it traces
    back to coset 0.  On an incomplete table only positive deductions are
    valid, so a fully defined trace landing on 0 still certifies
    membership; anything else is inconclusive.
    """
    target = free_reduce(target)
    result = pres.coset_table(cap)
    end = result.trace(target)
    if result.complete:
        verdict = MEMBER if end == 0 else NON_MEMBER
        return MembershipCertificate(
            verdict,
            "coset_enumeration",
            {"complete": True, "cap": cap, "table_size": result.size, "target_coset": end},
        )
    if end == 0:
        # positive deductions are valid even before completion: any trace
        # reaching coset 0 proves the traced word lies in the closure
        return MembershipCertificate(
            MEMBER,
            "coset_enumeration",
            {"complete": False, "cap": cap, "table_size": result.size, "target_coset": 0},
        )
    return None


# ---------------------------------------------------------------------------
# orchestration


def decide_membership(
    pres: Presentation,
    target: Sequence[int],
    *,
    loops: Sequence["CyclicWord"] | None = None,
    target_loop: "CyclicWord | None" = None,
    coset_cap: int = 100_000,
) -> MembershipCertificate:
    """Run the tiers in order and return the first conclusive certificate.

    The contraction tier needs the graph context, ``loops`` realizing the
    relators and ``target_loop`` realizing the target; it is skipped when
    that context is absent.
    ``coset_cap`` bounds the coset table of the last tier.
    """
    cert = syntactic_member(pres, target)
    if cert is not None:
        return cert
    cert = abelian_nonmember(pres, target)
    if cert is not None:
        return cert
    if loops is not None and target_loop is not None:
        cert = contraction_nonmember(loops, target_loop)
        if cert is not None:
            return cert
    cert = coset_membership(pres, target, coset_cap)
    if cert is not None:
        return cert
    return MembershipCertificate(
        UNDECIDED,
        "exhausted",
        {
            "budgets": {
                "syntactic_terms": SYNTACTIC_TERMS,
                "conjugator_length": CONJUGATOR_LENGTH,
                "coset_cap": coset_cap,
            }
        },
    )


# ---------------------------------------------------------------------------
# independent certificate checker

_REGULARITY_CLOSURE_CAP = 5000


def verify_certificate(
    cert: MembershipCertificate,
    pres: Presentation,
    target: Sequence[int],
    *,
    loops: Sequence["CyclicWord"] | None = None,
    target_loop: "CyclicWord | None" = None,
) -> bool:
    """Re-validate a certificate from the original query data alone;
    ``loops`` and ``target_loop`` are as in ``decide_membership``."""
    target = free_reduce(target)
    if cert.tier == "syntactic" and cert.verdict == MEMBER:
        return _check_expression(pres.relators, target, cert.evidence["expression"])
    if cert.tier == "abelian" and cert.verdict == NON_MEMBER:
        tvec = exponent_vector(target, pres.rank)
        return tvec == cert.evidence["target_vector"] and not pres.lattice.contains(tvec)
    if cert.tier == "contraction" and cert.verdict == NON_MEMBER:
        if loops is None or target_loop is None:
            return False
        # contracting any set of edges that holds every relator loop kills
        # the normal closure, so a nontrivial image of the target is enough
        dead = set(cert.evidence["contracted_edges"])
        image = cert.evidence["image_word"]
        return (_loop_edges(loops) <= dead and bool(image)
                and image == _contracted_image(target_loop, dead))
    if cert.tier == "coset_enumeration":
        return _verify_coset_cert(cert, pres, target)
    if cert.verdict == UNDECIDED:
        return True
    return False


def _verify_coset_cert(cert, pres, target) -> bool:
    size = cert.evidence["table_size"]
    result = pres.coset_table(cert.evidence["cap"])
    if result.size != size or result.complete != cert.evidence["complete"]:
        return False
    if result.trace(target) != cert.evidence["target_coset"]:
        return False
    if not cert.evidence["complete"]:
        # only a 0-trace is a valid deduction on an incomplete table
        return cert.verdict == MEMBER and cert.evidence["target_coset"] == 0
    # completed table: check it really is a quotient action killing the relators
    n = result.size
    cols = []
    for k in range(2 * pres.rank):
        col = [result.table[c][k] for c in range(n)]
        if sorted(col) != list(range(n)):
            return False
        cols.append(col)
    for k in range(pres.rank):
        fwd, bwd = cols[2 * k], cols[2 * k + 1]
        if any(bwd[fwd[c]] != c for c in range(n)):
            return False
    for rel in pres.relators:
        for c in range(n):
            if result.trace(rel, c) != c:
                return False
    reached = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for col in cols:
            if col[c] not in reached:
                reached.add(col[c])
                stack.append(col[c])
    if len(reached) != n:
        return False
    if 1 < n <= _REGULARITY_CLOSURE_CAP:
        # regular action: the generated permutation group has order n;
        # a single coset is regular without a check
        try:
            return closure([Permutation(col) for col in cols[::2]], cap=n).order == n
        except CapExceededError:
            return False
    return True

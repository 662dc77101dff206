"""Free-group words and the tiered normal-closure membership oracle.

Membership of a word in the normal closure of finitely many relators is
undecidable in general, so the oracle is explicitly partial: it returns a
machine-checkable certificate (member / non_member) or an undecided
report, never a guess.  Each tier takes (presentation, target) and returns
a certificate or None; ``decide_membership`` runs them cheap to expensive
and stops at the first certificate:

  syntactic    member      witness expression of conjugated relator powers
  abelian      non_member  exponent vector outside the relator lattice
  coset        exact       Todd-Coxeter on F/<<relators>>, trivial subgroup,
                           at most ``COSET_CAP`` rows

``contraction_nonmember`` is a standalone predicate, not a tier: the
abelian tier decides every query it could (see its docstring).

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


def _strip_to_cyclic(word: Sequence[int]) -> tuple[FreeWord, FreeWord]:
    """Return (core, prefix) with word == prefix * core * prefix^-1."""
    w = free_reduce(word)
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == -w[-1 - k]:
        k += 1
    return w[k:len(w) - k], w[:k]


def cyclic_reduce(word: Sequence[int]) -> FreeWord:
    return _strip_to_cyclic(word)[0]


def word_inverse(word: Sequence[int]) -> FreeWord:
    return tuple(-x for x in reversed(word))


def least_rotation(word: tuple, inverse: tuple) -> tuple:
    """Lexicographically least rotation of a cyclic word or of its inverse."""
    return min(w[i:] + w[:i] for w in (word, inverse) for i in range(len(w)))


# search limits of the syntactic tier: relator forms peeled off a target,
# and the length of the target prefixes and suffixes that conjugate them
SYNTACTIC_TERMS = 3
CONJUGATOR_LENGTH = 4
# raw rows the coset tier's Todd-Coxeter table may grow to
COSET_CAP = 100_000


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
            self._table = (None, None)  # drop the old table before building the next
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
        n = len(w)
        for f, conj, j, exp in forms:
            # peeling f conjugated by w[:k] (by w[k:] off the right) leaves
            # the free reduction of w[:k] * f^-1 * w[k:]; a candidate whose
            # two junctions cancel nothing would leave a longer word, so it
            # is skipped before anything is built
            first, last = f[0], f[-1]
            # peel a form off the left, conjugating by prefixes of w
            for i in range(min(CONJUGATOR_LENGTH, n) + 1):
                if not ((i < n and w[i] == first) or (i > 0 and w[i - 1] == last)):
                    continue
                p = w[:i]
                t = free_reduce(p + f + word_inverse(p))
                rest = free_reduce(word_inverse(t) + w)
                if len(rest) < n:
                    tail = peel(rest, depth - 1)
                    if tail is not None:
                        return [[list(free_reduce(p + conj)), j, exp]] + tail
            # and off the right, conjugating by suffixes
            for i in range(min(CONJUGATOR_LENGTH, n) + 1):
                if not ((i < n and w[n - i - 1] == last) or (i > 0 and w[n - i] == first)):
                    continue
                s = w[n - i:]
                t = free_reduce(word_inverse(s) + f + s)
                rest = free_reduce(w + word_inverse(t))
                if len(rest) < n:
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
        if not 0 <= j < len(relators) or 0 in conj:
            return False
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
# edge contraction, a predicate outside the tiers


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

    Not a tier of ``decide_membership``: a nonempty image needs a target
    edge e that no relator loop traverses, and the signed count of e is a
    linear form on exponent vectors, nonzero on the target and zero on
    every relator, so the abelian tier has already decided the target.
    """
    from .metric import dart_edge, reduce_dart_path

    dead = {dart_edge(d) for loop in loops for d in loop.darts}
    image = reduce_dart_path([d for d in target.darts if dart_edge(d) not in dead])
    if not image:
        return None
    return MembershipCertificate(
        NON_MEMBER,
        "contraction",
        {"contracted_edges": sorted(dead), "image_word": image},
    )


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


def coset_membership(pres: Presentation, target: Sequence[int]) -> MembershipCertificate | None:
    """Decide membership through coset enumeration at ``COSET_CAP`` when it can.

    A completed table is the regular representation of F/<<relators>>, so
    membership is exact: the target is in the normal closure iff it traces
    back to coset 0.  On an incomplete table only positive deductions are
    valid, so a fully defined trace landing on 0 still certifies
    membership; anything else is inconclusive.
    """
    result = pres.coset_table(COSET_CAP)
    return coset_certificate(result, COSET_CAP, result.trace(free_reduce(target)))


def coset_certificate(
    table: CosetTable, cap: int, end: int | None
) -> MembershipCertificate | None:
    """The certificate of a target that ``table``, enumerated at ``cap``,
    traces to coset ``end``, or None if an incomplete table left it
    short of coset 0."""
    if not (table.complete or end == 0):
        return None
    return MembershipCertificate(
        MEMBER if end == 0 else NON_MEMBER,
        "coset_enumeration",
        {"complete": table.complete, "cap": cap, "table_size": table.size, "target_coset": end},
    )


# ---------------------------------------------------------------------------
# orchestration


def decide_membership(pres: Presentation, target: Sequence[int]) -> MembershipCertificate:
    """Run the tiers in order and return the first conclusive certificate."""
    # built per call: the benchmark's layer tracer rebinds the tier names
    for tier in (syntactic_member, abelian_nonmember, coset_membership):
        cert = tier(pres, target)
        if cert is not None:
            return cert
    return MembershipCertificate(
        UNDECIDED,
        "exhausted",
        {
            "budgets": {
                "syntactic_terms": SYNTACTIC_TERMS,
                "conjugator_length": CONJUGATOR_LENGTH,
                "coset_cap": COSET_CAP,
            }
        },
    )


# ---------------------------------------------------------------------------
# independent certificate checker

_REGULARITY_CLOSURE_CAP = 5000


def verify_certificate(
    cert: MembershipCertificate, pres: Presentation, target: Sequence[int]
) -> bool:
    """Re-validate a certificate from the original query data alone.  An
    undecided certificate proves nothing, and malformed evidence is
    rejected, so neither replays."""
    target = free_reduce(target)
    try:
        if cert.tier == "syntactic" and cert.verdict == MEMBER:
            return _check_expression(pres.relators, target, cert.evidence["expression"])
        if cert.tier == "abelian" and cert.verdict == NON_MEMBER:
            # rank 0 has no lattice: Z^0 is its own relator lattice
            tvec = exponent_vector(target, pres.rank)
            return (tvec == cert.evidence["target_vector"] and pres.lattice is not None
                    and not pres.lattice.contains(tvec))
        if cert.tier == "coset_enumeration":
            return _verify_coset_cert(cert, pres, target)
    except (KeyError, TypeError, ValueError):
        return False
    return False


def _verify_coset_cert(cert, pres, target) -> bool:
    cap, size = cert.evidence["cap"], cert.evidence["table_size"]
    result = pres.coset_table(cap)
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

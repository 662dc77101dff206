"""The covering spectrum: jump sets of marked-length filtrations.

The graph driver walks realized marked lengths in increasing order,
saturating the normal closure of everything at or below the current
length; a length is a jump exactly when some class realizing it falls
outside the closure of the strictly shorter classes.  Since the image of
the marked length map is discrete, the strict-< filtration of the
underlying definition and the <=-saturation used here produce the same
jump set.  The covering spectrum is half the jump set.

Every membership verdict along the way carries a certificate; an
undecided oracle aborts the run rather than guessing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, takewhile
from math import isqrt, lcm
from typing import Sequence

from .groups import CapExceededError
from .lattices import IntLattice
from .metric import (
    CyclicWord,
    MarkedClass,
    MetricGraph,
    enumerate_classes,  # noqa: F401  kept bound here: the benchmark's layer tracer wraps it
    format_rational,
    iter_classes,
    length_units,
    loop_to_free_word,
    render_loop,
)
from .words import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    MembershipCertificate,
    Presentation,
    coset_certificate,
    decide_membership,
    syntactic_member,
    todd_coxeter,
)


class UndecidedOracleError(RuntimeError):
    """The membership oracle gave up on a query the driver needed decided."""

    def __init__(self, length: Fraction, target_name: str, certificate: MembershipCertificate):
        super().__init__(
            f"membership oracle undecided for class {target_name!r} at length {length}"
        )
        self.length = length
        self.target_name = target_name
        self.certificate = certificate


class BudgetExhaustedError(RuntimeError):
    """The length ceiling was reached before the closure saturated."""


def jump_set(items, oracle):
    """Walk (m, key) pairs, sorted by m, and record where the span grows.

    ``oracle`` maintains the generated subgroup: ``contains(key)`` tests
    membership in the span of everything added so far, ``add(key)`` grows
    it, and ``saturated()`` says whether the span is already everything.
    The keys of one level are tested in order against the strictly
    smaller levels until the first falls outside, then all are added.
    The walk stops after the first level at which the oracle is
    saturated, so ``items`` may be an endless stream.  Returns
    (jumps, last_level).
    """
    jumps = []
    last = None
    for m, level in groupby(items, key=lambda item: item[0]):
        if last is not None and m < last:
            raise ValueError("items are not sorted by level")
        keys = [key for _, key in level]
        if not all(oracle.contains(key) for key in keys):
            jumps.append(m)
        for key in keys:
            oracle.add(key)
        last = m
        if oracle.saturated():
            break
    return jumps, last


@dataclass(frozen=True)
class CoveringSpectrum:
    """Sorted covering spectrum values, exactly half the filtration jumps."""

    values: tuple[Fraction, ...]

    def __contains__(self, q) -> bool:
        return Fraction(q) in self.values

    def as_strings(self) -> list[str]:
        return [format_rational(v) for v in self.values]


@dataclass
class QueryRecord:
    length: Fraction
    target_name: str
    target_loop: CyclicWord
    certificate: MembershipCertificate


@dataclass
class FiltrationReport:
    """Audit trail of one covering spectrum run.

    ``classes`` are the relators in the order they were added, by
    nondecreasing length; a query's oracle context is exactly the classes
    strictly shorter than it.  ``generator_certificates`` holds one
    membership certificate per free generator, filled in as the closure
    saturates, and ``mode`` says how they were found.
    """

    classes: list[MarkedClass] = field(default_factory=list)
    queries: list[QueryRecord] = field(default_factory=list)
    generator_certificates: list[MembershipCertificate | None] = field(default_factory=list)
    mode: str = "generators_certified"
    processed_to: Fraction | None = None

    @property
    def jumps(self) -> list[QueryRecord]:
        """The non-member queries: a level's querying stops at its first
        non-member, so these are exactly the jump witnesses, in order."""
        return [q for q in self.queries if q.certificate.verdict == NON_MEMBER]

    @property
    def termination(self) -> dict:
        if not self.generator_certificates:
            return {"mode": "simply_connected"}
        return {"mode": self.mode,
                "certificates": [c.to_json_dict() for c in self.generator_certificates]}

    def realized_lengths(self) -> list[Fraction]:
        return sorted({c.length for c in self.classes})

    def verify_all_certificates(self, X: MetricGraph) -> bool:
        """Replay every certificate with the checker's own presentation,
        rewriting and measuring every relator and target loop in X afresh.
        Class lengths never fall, and a query replays against exactly the
        classes strictly shorter than it.  Each free generator needs a member
        certificate: only then is the closure everything, with no jump past
        the last level."""
        # looked up per call, so the benchmark's layer tracer can wrap it
        from .words import verify_certificate

        if any(c is None or c.verdict != MEMBER for c in self.generator_certificates):
            return False
        # lengths in integer units of 1/scale, measured on the loops in X
        scale, units = length_units(X)
        loops = [c.word for c in self.classes] + [q.target_loop for q in self.queries]
        recorded = [c.length for c in self.classes] + [q.length for q in self.queries]
        measured = [sum(units[d // 2] for d in loop.darts) for loop in loops]
        lengths = measured[:len(self.classes)]
        if lengths != sorted(lengths) or any(
                m.numerator * scale != n * m.denominator for m, n in zip(recorded, measured)):
            return False
        try:
            relators = [loop_to_free_word(X, c.word) for c in self.classes]
            checks = [(bisect_left(lengths, n), loop_to_free_word(X, q.target_loop), q.certificate)
                      for q, n in zip(self.queries, measured[len(lengths):])]
        except ValueError:  # a loop that does not close in X
            return False
        checks += [(len(relators), (g + 1,), c) for g, c in enumerate(self.generator_certificates)]
        # a run's queries never fall in length, so a stable sort keeps its own order
        pres, grown = Presentation(X.rank), 0
        for k, word, cert in sorted(checks, key=lambda check: check[0]):
            for rel in relators[grown:k]:
                pres.add(rel)
            grown = k
            if not verify_certificate(cert, pres, word):
                return False
        return True


class _NormalClosureOracle:
    """Membership in the normal closure of the loops added so far."""

    def __init__(self, X: MetricGraph, report: FiltrationReport):
        self.X = X
        self.report = report
        self.presentation = Presentation(X.rank)

    def contains(self, cls: MarkedClass) -> bool:
        cert = decide_membership(self.presentation, loop_to_free_word(self.X, cls.word))
        name = render_loop(self.X, cls.word)
        self.report.queries.append(QueryRecord(cls.length, name, cls.word, cert))
        if cert.verdict == UNDECIDED:
            raise UndecidedOracleError(cls.length, name, cert)
        return cert.verdict == MEMBER

    def add(self, cls: MarkedClass) -> None:
        self.presentation.add(loop_to_free_word(self.X, cls.word))
        self.report.classes.append(cls)

    def saturated(self) -> bool:
        """All free generators certified inside the current closure?"""
        rank = self.X.rank
        certs = self.report.generator_certificates
        lattice = self.presentation.lattice
        # a generator outside the relator lattice is outside the closure, so
        # neither a syntactic witness nor a complete table can certify it
        inside = [lattice.contains([int(i == g) for i in range(rank)]) for g in range(rank)]
        for g in range(rank):
            if certs[g] is None and inside[g]:
                certs[g] = syntactic_member(self.presentation, (g + 1,))
        if all(c is not None for c in certs):
            return True
        if not all(inside):
            return False
        # one bounded enumeration can settle all generators at once
        cap = 3000
        table = todd_coxeter(self.presentation.relators, rank, cap=cap)
        if table.complete and all(table.trace((g + 1,)) == 0 for g in range(rank)):
            certs[:] = [coset_certificate(table, cap, 0) for _ in range(rank)]
            self.report.mode = "quotient_enumerated"
            return True
        return False


def covering_spectrum(
    X: MetricGraph, budget: Fraction | None = None
) -> tuple[CoveringSpectrum, FiltrationReport]:
    """Covering spectrum of a compact metric graph with full audit trail.

    Classes are taken from the length-ordered stream level by level until
    every free generator of the fundamental group is certified inside the
    saturated closure, past which no further jumps can exist.  ``budget``,
    when given, is an inclusive ceiling on the lengths walked, and a
    ceiling reached before saturation raises BudgetExhaustedError.

    Without a budget the run still stops: a free generator's class
    rewrites to the one-letter word ±(g+1), and once that class is a
    relator the syntactic tier's exact-power search certifies (g+1,).
    So the closure saturates by the longest generator class at the
    latest.  ``metric.CLASS_CAP`` still bounds the stream of a graph
    whose longest generator class lies far out.
    """
    if budget is not None and Fraction(budget) <= 0:
        raise ValueError("budget must be positive")
    report = FiltrationReport(generator_certificates=[None] * X.rank)
    if X.rank == 0:
        report.processed_to = Fraction(0)
        return CoveringSpectrum(()), report

    classes = iter_classes(X)
    if budget is not None:
        budget = Fraction(budget)
        classes = takewhile(lambda c: c.length <= budget, classes)
    jumps, report.processed_to = jump_set(((c.length, c) for c in classes),
                                          _NormalClosureOracle(X, report))
    # jump_set asked saturated() at the last level walked, and a False
    # there left some generator uncertified; only a ceiling can cut the
    # stream before that
    if None in report.generator_certificates:
        raise BudgetExhaustedError(f"no saturation up to the budget {budget}")
    return CoveringSpectrum(tuple(v / 2 for v in jumps)), report


def length_spectrum_containment(report: FiltrationReport, spectrum: CoveringSpectrum) -> bool:
    """Twice every covering spectrum value must be a realized marked length."""
    realized = set(report.realized_lengths())
    return all(2 * v in realized for v in spectrum.values)


# ---------------------------------------------------------------------------
# flat tori: the lattice covering spectrum


@dataclass(frozen=True)
class LatticeSpectrum:
    """Covering spectrum of R^n / L, carried as exact squared values.

    values_squared[i] is the square of the i-th spectrum value; a value
    itself is rational only when its square is a perfect square rational,
    so the display strings fall back to a sqrt rendering.
    """

    jumps_squared: tuple[Fraction, ...]
    values_squared: tuple[Fraction, ...]

    def exact_values(self) -> list[Fraction | None]:
        roots = [(q, isqrt(q.numerator), isqrt(q.denominator)) for q in self.values_squared]
        return [Fraction(n, d) if Fraction(n * n, d * d) == q else None for q, n, d in roots]

    def display(self) -> list[str]:
        return [f"sqrt({format_rational(q)})" if exact is None else format_rational(exact)
                for q, exact in zip(self.values_squared, self.exact_values())]


def covering_spectrum_lattice(basis: Sequence[Sequence[Fraction | int]]) -> LatticeSpectrum:
    """Covering spectrum of the flat torus R^n / (Z-span of basis rows).

    The marked length of a deck transformation is the Euclidean norm of
    its lattice vector, so jumps live at realized norms and the subgroup
    filtration is plain sublattice generation, decided exactly in integer
    coordinates.  Lattice vectors come from one lazy stream in
    nondecreasing norm, which ``jump_set`` stops once the vectors seen
    generate the whole lattice, as the graph driver stops its class
    stream.  All arithmetic is on squared norms in Q.
    """
    n = len(basis)
    rows = [[Fraction(x) for x in row] for row in basis]
    if any(len(r) != n for r in rows):
        raise ValueError("basis must be square")
    scale = lcm(*(x.denominator for row in rows for x in row))
    M = [[int(x * scale) for x in row] for row in rows]
    jumps_scaled, _ = jump_set(_lattice_vectors(M), IntLattice(n))
    s2 = Fraction(scale) ** 2
    jumps_squared = tuple(q / s2 for q in jumps_scaled)
    return LatticeSpectrum(jumps_squared, tuple(q / 4 for q in jumps_squared))


# vectors the torus stream may yield; the seeded benchmark bases use at
# most a few hundred, while a thin basis such as "K 0; 0 1" needs about 2K
LATTICE_VECTOR_CAP = 10_000


def _lattice_vectors(M: Sequence[Sequence[int]]):
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

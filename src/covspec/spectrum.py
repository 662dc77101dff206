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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, takewhile
from math import isqrt, lcm
from typing import Sequence

from .lattices import IntLattice
from .metric import (
    CyclicWord,
    MarkedClass,
    MetricGraph,
    enumerate_classes,  # noqa: F401  kept bound here: the benchmark's layer tracer wraps it
    format_rational,
    iter_classes,
    loop_to_free_word,
    render_loop,
)
from .words import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    Budgets,
    MembershipCertificate,
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
    (jumps, witnesses, last_level) where jumps[i] is the level at which
    witnesses[i] fell outside.
    """
    jumps = []
    witnesses = []
    last = None
    for m, level in groupby(items, key=lambda item: item[0]):
        if last is not None and m < last:
            raise ValueError("items are not sorted by level")
        keys = [key for _, key in level]
        outside = next((key for key in keys if not oracle.contains(key)), None)
        for key in keys:
            oracle.add(key)
        if outside is not None:
            jumps.append(m)
            witnesses.append(outside)
        last = m
        if oracle.saturated():
            break
    return jumps, witnesses, last


@dataclass(frozen=True)
class CoveringSpectrum:
    """Sorted covering spectrum values, exactly half the filtration jumps."""

    values: tuple[Fraction, ...]
    source: str

    def __contains__(self, q) -> bool:
        return Fraction(q) in self.values

    def as_strings(self) -> list[str]:
        return [format_rational(v) for v in self.values]


@dataclass
class JumpRecord:
    value: Fraction
    witness: CyclicWord
    witness_name: str
    certificate: MembershipCertificate


@dataclass
class QueryRecord:
    length: Fraction
    target_name: str
    word: tuple[int, ...]
    target_loop: CyclicWord
    relator_count: int  # relator list length when the query was made
    certificate: MembershipCertificate


@dataclass
class FiltrationReport:
    """Audit trail of one covering spectrum run.

    The relator lists are append-only, so ``relator_count`` on each query
    reconstructs the exact oracle context for independent re-verification.
    """

    jumps: list[JumpRecord] = field(default_factory=list)
    queries: list[QueryRecord] = field(default_factory=list)
    classes: list[MarkedClass] = field(default_factory=list)
    relator_words: list[tuple[int, ...]] = field(default_factory=list)
    relator_loops: list[CyclicWord] = field(default_factory=list)
    termination_queries: list[tuple[tuple[int, ...], MembershipCertificate]] = field(
        default_factory=list
    )
    processed_to: Fraction | None = None
    termination: dict = field(default_factory=dict)

    def realized_lengths(self) -> list[Fraction]:
        return sorted({c.length for c in self.classes})

    def jump_values(self) -> list[Fraction]:
        return [j.value for j in self.jumps]

    def verify_all_certificates(self, X: MetricGraph) -> bool:
        """Replay every emitted certificate with the independent checker."""
        from .words import verify_certificate

        for q in self.queries:
            k = q.relator_count
            ok = verify_certificate(
                q.certificate,
                self.relator_words[:k],
                q.word,
                X.rank,
                graph=X,
                relator_loops=self.relator_loops[:k],
                target_loop=q.target_loop,
            )
            if not ok:
                return False
        for word, cert in self.termination_queries:
            if not verify_certificate(cert, self.relator_words, word, X.rank):
                return False
        return True


class _NormalClosureOracle:
    """Membership in the normal closure of the loops added so far."""

    def __init__(self, X: MetricGraph, budgets: Budgets, report: FiltrationReport):
        self.X = X
        self.budgets = budgets
        self.report = report
        self.relators = report.relator_words
        self.loops = report.relator_loops
        self._gen_certified: list[MembershipCertificate | None] = [None] * X.rank
        self._mode = "generators_certified"

    def contains(self, cls: MarkedClass) -> bool:
        word = loop_to_free_word(self.X, cls.word)
        count = len(self.relators)
        cert = decide_membership(
            self.relators,
            word,
            self.X.rank,
            graph=self.X,
            relator_loops=self.loops,
            target_loop=cls.word,
            budgets=self.budgets,
        )
        name = render_loop(self.X, cls.word)
        self.report.queries.append(QueryRecord(cls.length, name, word, cls.word, count, cert))
        if cert.verdict == UNDECIDED:
            raise UndecidedOracleError(cls.length, name, cert)
        return cert.verdict == MEMBER

    def add(self, cls: MarkedClass) -> None:
        self.relators.append(loop_to_free_word(self.X, cls.word))
        self.loops.append(cls.word)
        self.report.classes.append(cls)

    def saturated(self) -> bool:
        """All free generators certified inside the current closure?"""
        rank = self.X.rank
        if rank == 0:
            return True
        for g in range(rank):
            if self._gen_certified[g] is None:
                cert = syntactic_member(self.relators, (g + 1,), self.budgets)
                if cert is not None:
                    self._gen_certified[g] = cert
        if all(c is not None for c in self._gen_certified):
            return True
        # one bounded enumeration can settle all generators at once
        table = todd_coxeter(self.relators, rank, cap=3000)
        if table.complete and all(table.trace((g + 1,)) == 0 for g in range(rank)):
            for g in range(rank):
                self._gen_certified[g] = MembershipCertificate(
                    MEMBER,
                    "coset_enumeration",
                    {"complete": True, "cap": 3000, "table_size": table.size,
                     "target_coset": 0},
                )
            self._mode = "quotient_enumerated"
            return True
        return False

    def finalize_termination(self) -> dict:
        certs = []
        for g, cert in enumerate(self._gen_certified):
            if cert is None:
                raise AssertionError(f"generator {g + 1} is not certified inside the closure")
            self.report.termination_queries.append(((g + 1,), cert))
            certs.append(cert.to_json_dict())
        return {"mode": self._mode, "certificates": certs}


def covering_spectrum(
    X: MetricGraph,
    budgets: Budgets | None = None,
    budget: Fraction | None = None,
) -> tuple[CoveringSpectrum, FiltrationReport]:
    """Covering spectrum of a compact metric graph with full audit trail.

    Classes are taken from the length-ordered stream level by level until
    every free generator of the fundamental group is certified inside the
    saturated closure, past which no further jumps can exist.  ``budget``
    is an inclusive ceiling on the lengths walked.  Its default is the
    longest generator loop: there every free generator is itself a
    relator, so the default always saturates.  A ceiling reached before
    saturation raises BudgetExhaustedError.
    """
    budgets = budgets or Budgets()
    report = FiltrationReport()
    source = f"graph[V={X.graph.vertex_count},E={X.graph.edge_count},rank={X.rank}]"
    if X.rank == 0:
        report.processed_to = Fraction(0)
        report.termination = {"mode": "simply_connected"}
        return CoveringSpectrum((), source), report

    if budget is None:
        budget = max(
            sum((X.dart_length(d) for d in X.generator_loop(k)), Fraction(0))
            for k in range(X.rank)
        )
    budget = Fraction(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")

    oracle = _NormalClosureOracle(X, budgets, report)
    classes = takewhile(lambda c: c.length <= budget, iter_classes(X))
    jumps, _, report.processed_to = jump_set(((c.length, c) for c in classes), oracle)
    if not oracle.saturated():
        raise BudgetExhaustedError(f"no saturation up to the budget {budget}")
    report.termination = oracle.finalize_termination()
    # a level's querying stops at its first non-member, so the non-member
    # queries are exactly the jump witnesses, in order
    report.jumps = [
        JumpRecord(q.length, q.target_loop, q.target_name, q.certificate)
        for q in report.queries
        if q.certificate.verdict == NON_MEMBER
    ]
    return CoveringSpectrum(tuple(v / 2 for v in jumps), source), report


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
        out = []
        for q in self.values_squared:
            n, d = q.numerator, q.denominator
            rn, rd = isqrt(n), isqrt(d)
            out.append(Fraction(rn, rd) if rn * rn == n and rd * rd == d else None)
        return out

    def display(self) -> list[str]:
        out = []
        for q, exact in zip(self.values_squared, self.exact_values()):
            if exact is not None:
                out.append(format_rational(exact))
            else:
                out.append(f"sqrt({format_rational(q)})")
        return out


class _SublatticeOracle:
    def __init__(self, n: int, full_rows: Sequence[Sequence[int]]):
        self.lattice = IntLattice(n)
        self.full_rows = [list(r) for r in full_rows]

    def contains(self, coeffs) -> bool:
        return self.lattice.contains(coeffs)

    def add(self, coeffs) -> None:
        self.lattice.add(coeffs)

    def saturated(self) -> bool:
        return self.lattice.contains_all(self.full_rows)


def covering_spectrum_lattice(basis: Sequence[Sequence[Fraction | int]]) -> LatticeSpectrum:
    """Covering spectrum of the flat torus R^n / (Z-span of basis rows).

    The marked length of a deck transformation is the Euclidean norm of
    its lattice vector, so jumps live at realized norms and the subgroup
    filtration is plain sublattice generation, decided exactly in integer
    coordinates.  All arithmetic is on squared norms in Q.
    """
    n = len(basis)
    rows = [[Fraction(x) for x in row] for row in basis]
    if any(len(r) != n for r in rows):
        raise ValueError("basis must be square")
    scale = lcm(*(x.denominator for row in rows for x in row))
    M = [[int(x * scale) for x in row] for row in rows]
    check = IntLattice(n)
    for row in M:
        check.add(row)
    if check.rank() != n:
        raise ValueError("basis is singular")

    # saturation bound: the basis rows themselves generate, so no jump can
    # exceed the largest row norm
    def norm2_scaled(coeffs: Sequence[int]) -> int:
        v = [sum(c * M[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
        return sum(x * x for x in v)

    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    threshold = max(norm2_scaled(u) for u in unit)

    # box bound via the inverse matrix: |c_i| <= |v| * |column i of M^-1|
    Minv = _invert_fraction_matrix([[Fraction(x) for x in row] for row in M])
    bounds = []
    for i in range(n):
        colnorm2 = sum(Minv[k][i] * Minv[k][i] for k in range(n))
        b2 = Fraction(threshold) * colnorm2
        bounds.append(isqrt(b2.numerator // b2.denominator) + 1)

    items = []
    for coeffs in _integer_box(bounds):
        if not any(coeffs):
            continue
        q = norm2_scaled(coeffs)
        if q <= threshold:
            items.append((Fraction(q), list(coeffs)))
    items.sort(key=lambda t: (t[0], t[1]))
    oracle = _SublatticeOracle(n, unit)
    jumps_scaled, _, _ = jump_set(items, oracle)
    if not oracle.saturated():
        raise AssertionError("enumeration box missed a generating set")
    s2 = Fraction(scale) ** 2
    jumps_squared = tuple(q / s2 for q in jumps_scaled)
    return LatticeSpectrum(jumps_squared, tuple(q / 4 for q in jumps_squared))


def _integer_box(bounds: Sequence[int]):
    if not bounds:
        yield ()
        return
    for rest in _integer_box(bounds[1:]):
        for c in range(-bounds[0], bounds[0] + 1):
            yield (c,) + rest


def _invert_fraction_matrix(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    aug = [row[:] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("basis is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]

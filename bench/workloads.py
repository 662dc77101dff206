"""Seeded inputs and checked operations for the four benchmark workloads.

Every op is one call sequence into covspec on one generated input, followed
by a check of its outputs.  An op either returns normally (its outputs were
checked and are correct) or raises:

  OpMismatch         an output differs from the expected value (wrong answer)
  OpDeadline         the per-op deadline fired (did not finish)
  covspec errors     UndecidedOracleError, BudgetExhaustedError, cap
                     RuntimeErrors (no answer)

The runner counts all of them as failed ops and never drops one; a
mismatch, or any other exception, also makes the run's result incorrect.

Inputs are drawn here from integer seeds only (`draw_inputs`), before
set-up's timer starts; `build_ops` then makes the program's own objects from
them (permutations, graphs), which set-up times.  `schreier` and `torus`
draw their instances from a fixed pool whose reference spectra and
outcomes were recorded by `record.py` (see `references/`); the pool is split
into strata by recorded outcome and cost and a run seed picks one instance
per stratum, so every pass carries the same mix of cheap, heavy and failing
draws while the seed decides which ones (see `stratified_draw`).  `fano_wedge` and `triple` are checked against
theory, so their inputs come straight from the seed.
"""

from __future__ import annotations

import json
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "references"
CONFIG = json.loads((BENCH_DIR / "config.json").read_text())

# The pinned spectra of the paper's default lengths (README, criterion 3).
PINNED_PAIR = (Fraction(2), Fraction(5, 2))
PINNED_X1 = ["1/1", "5/4", "2/1", "9/4", "13/4", "7/2", "15/4"]
PINNED_X2 = ["1/1", "5/4", "2/1", "9/4", "7/2", "4/1"]

SCHREIER_LENGTHS = (Fraction(2), Fraction(5, 2))
# references/schreier.json was recorded for these degrees; a change to them
# needs a new recording
SCHREIER_DEGREES = (7, 10)

# the largest recorded cost of a drawn instance, as a share of the deadline
DRAWN_COST_SHARE = 1 / 3


class OpMismatch(Exception):
    """An op's output differs from its expected value."""


class OpDeadline(Exception):
    """The per-op deadline fired before the op finished."""


@dataclass
class Op:
    """One operation: a label naming its input and a closure that runs it."""

    label: str
    run: Callable[[], None]


@contextmanager
def deadline(seconds: float):
    """Raise OpDeadline inside the block once ``seconds`` of wall time pass."""

    def fire(signum, frame):
        raise OpDeadline(f"did not finish within {seconds:.3g} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def require(cond: bool, what: str) -> None:
    # an explicit raise, so the check survives any interpreter flags
    if not cond:
        raise OpMismatch(what)


# ---------------------------------------------------------------------------
# input generators: pure functions of their seed that never call covspec, so
# the inputs do not depend on the code under test


def fano_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """An admissible pair: 1 < l_B/l_A < 3/2 with varied denominators."""
    la = Fraction(rng.randint(1, 12), rng.randint(1, 6))
    m = rng.randint(3, 12)
    k = rng.choice([k for k in range(m + 1, 3 * m) if 2 * k < 3 * m])
    return la, la * Fraction(k, m)


def _connected(n: int, perms) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for p in perms:
            for w in (p[v], p.index(v)):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == n


def schreier_instance(seed: int) -> tuple[list[int], list[int]]:
    """Two random permutations of one random degree, resampled until their
    Schreier graph is connected (a metric graph must be connected)."""
    rng = random.Random(seed)
    n = rng.randint(*SCHREIER_DEGREES)
    while True:
        a = rng.sample(range(n), n)
        b = rng.sample(range(n), n)
        if _connected(n, (a, b)):
            return a, b


def torus_instance(seed: int) -> list[list[Fraction]]:
    """A random nonsingular rational basis of dimension 2-4."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    while True:
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        if _det(rows) != 0:
            return rows


def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [r[:] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


# GL(3,2) on the 14 points and lines of the Fano plane: points are the
# nonzero row vectors v (acted on by v -> vM), a line is labelled by the
# nonzero vector orthogonal to its points.
_VECTORS = [tuple((k >> s) & 1 for s in (2, 1, 0)) for k in range(1, 8)]
_LINES = [frozenset(v for v in _VECTORS if sum(a * b for a, b in zip(v, w)) % 2 == 0)
          for w in _VECTORS]


def _apply(v, M):
    return tuple(sum(v[i] * M[i][j] for i in range(3)) % 2 for j in range(3))


def _fano_perm14(M) -> tuple[int, ...]:
    points = [_VECTORS.index(_apply(v, M)) for v in _VECTORS]
    lines = [7 + _LINES.index(frozenset(_apply(v, M) for v in L)) for L in _LINES]
    return tuple(points + lines)


def _group_order(gens) -> int:
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def triple_instance(rng: random.Random) -> dict:
    """A random generating pair of GL(3,2) as permutations of the 14 points
    and lines, a point and a line to stabilise, and two random group words:
    the generator of a cyclic subgroup and a conjugator for its twin."""
    while True:
        mats = []
        while len(mats) < 2:
            M = [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
            if all(any(_apply(v, M)) for v in _VECTORS):  # invertible over F2
                mats.append(M)
        gens = [_fano_perm14(M) for M in mats]
        if _group_order(gens) == 168:
            break
    return {
        "gens": gens,
        "point": rng.randrange(7),
        "line": 7 + rng.randrange(7),
        "words": [[rng.randrange(2) for _ in range(rng.randint(1, 6))] for _ in range(2)],
    }


# ---------------------------------------------------------------------------
# reference pools


def load_pool(workload: str) -> dict[str, dict]:
    """Instance seed -> {"covspec": reference strings or null, "cost_s", "outcome"}."""
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["instances"]


def drawable(pool: dict, deadline_s: float) -> tuple[list[str], list[str]]:
    """(finishing, failing) instance seeds that a run may draw, each ranked
    by recorded cost.

    Only instances whose recorded cost is at most DRAWN_COST_SHARE of the
    deadline are drawn: one op's time varies by about a third from run to
    run on a shared host, so an op that ends near the deadline would finish
    in one run and not in another, and two runs of the same code would
    count different failures.  Failing instances are those the oracle left
    undecided or a cap stopped, which fail the same way in every run."""
    cap = deadline_s * DRAWN_COST_SHARE
    ranked = sorted((s for s in pool if pool[s]["cost_s"] <= cap),
                    key=lambda s: (pool[s]["cost_s"], int(s)))
    if any(pool[s]["outcome"] == "OpDeadline" for s in ranked):
        raise ValueError("an instance that did not finish when recorded is under the cost cap")
    return ([s for s in ranked if pool[s]["outcome"] == "ok"],
            [s for s in ranked if pool[s]["outcome"] != "ok"])


def _strata(ranked: list[str], k: int) -> list[list[str]]:
    """k strata of nearly equal size, each a consecutive run of ``ranked``."""
    if k > len(ranked):
        raise ValueError(f"{len(ranked)} instances do not split into {k} strata")
    return [ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k] for i in range(k)]


def stratified_draw(pool: dict, n: int, deadline_s: float, rng: random.Random) -> list[int]:
    """One instance seed from each of n strata of the drawable pool.

    Failing instances get strata of their own, about their share of the n,
    and at least one when there are any; so every pass holds the same
    number of failing ops, whatever the seed."""
    finishing, failing = drawable(pool, deadline_s)
    k = max(1, round(n * len(failing) / (len(finishing) + len(failing)))) if failing else 0
    strata = _strata(failing, k) + _strata(finishing, n - k)
    picks = [int(rng.choice(stratum)) for stratum in strata]
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------------------
# ops


def draw_inputs(workload: str, seed: int) -> list:
    """The seeded inputs of one workload, made without covspec."""
    rng = random.Random(f"{workload}:{seed}")
    n = CONFIG[workload]["ops"]
    if workload == "fano_wedge":
        return [PINNED_PAIR] + [fano_pair(rng) for _ in range(n - 1)]
    if workload == "triple":
        return [triple_instance(rng) for _ in range(n)]
    if workload in ("schreier", "torus"):
        make = schreier_instance if workload == "schreier" else torus_instance
        pool = load_pool(workload)
        picks = stratified_draw(pool, n, CONFIG[workload]["deadline_s"], rng)
        return [(s, make(s), pool[str(s)]) for s in picks]
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(workload: str, inputs: list, cv) -> list[Op]:
    """The op list of one workload from its drawn inputs; ``cv`` is the
    covspec namespace."""
    if workload == "fano_wedge":
        return [Op(f"la={la},lb={lb}", _fano_op(cv, la, lb)) for la, lb in inputs]
    if workload == "schreier":
        return [_schreier_op(cv, s, perms, ref) for s, perms, ref in inputs]
    if workload == "triple":
        return [_triple_op(cv, k, inst) for k, inst in enumerate(inputs)]
    if workload == "torus":
        return [_torus_op(cv, s, basis, ref) for s, basis, ref in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def _replay(report, X, what: str) -> None:
    require(report.verify_all_certificates(X), f"{what}: certificate replay failed")


def _fano_op(cv, la: Fraction, lb: Fraction) -> Callable[[], None]:
    def run() -> None:
        # run_fano keeps its reports to itself; catch them at its own call
        # of covering_spectrum so their certificates can be replayed
        runs = []
        inner = cv.cli.covering_spectrum

        def capturing(X, **kw):
            spectrum, report = inner(X, **kw)
            runs.append((X, report))
            return spectrum, report

        cv.cli.covering_spectrum = capturing
        try:
            doc = cv.cli.run_fano(la, lb)
        finally:
            cv.cli.covering_spectrum = inner
        require(doc["pass"] is True, "fano pass is not true")
        for key in ("x1", "x2"):
            require(doc[key]["length_spectrum_containment"], f"{key}: containment")
        if (la, lb) == PINNED_PAIR:
            require(doc["x1"]["covspec"] == PINNED_X1, "x1 differs from the pinned spectrum")
            require(doc["x2"]["covspec"] == PINNED_X2, "x2 differs from the pinned spectrum")
        require(len(runs) == 2, "run_fano did not compute two spectra")
        for k, (X, report) in enumerate(runs):
            _replay(report, X, f"x{k + 1}")

    return run


def schreier_metric_graph(cv, perms):
    """The metric graph of one schreier instance (built during set-up)."""
    a, b = perms
    graph = cv.graphs.cayley_graph(
        [("A", cv.groups.Permutation(a)), ("B", cv.groups.Permutation(b))]
    )
    return cv.metric.MetricGraph(graph, dict(zip("AB", SCHREIER_LENGTHS)))


def _schreier_op(cv, seed: int, perms, ref: dict) -> Op:
    X = schreier_metric_graph(cv, perms)

    def run() -> None:
        spectrum, report = cv.spectrum.covering_spectrum(X)
        # a null reference: the oracle left the instance undecided when it
        # was recorded
        if ref["covspec"] is not None:
            require(spectrum.as_strings() == ref["covspec"], "spectrum differs from the reference")
        require(cv.spectrum.length_spectrum_containment(report, spectrum), "containment")
        _replay(report, X, "schreier")

    return Op(f"schreier#{seed}", run)


def _torus_op(cv, seed: int, basis, ref: dict) -> Op:
    def run() -> None:
        spectrum = cv.spectrum.covering_spectrum_lattice(basis)
        if ref["covspec"] is not None:
            require(spectrum.display() == ref["covspec"], "spectrum differs from the reference")

    return Op(f"torus#{seed}", run)


def _triple_op(cv, k: int, inst: dict) -> Op:
    groups, graphs = cv.groups, cv.graphs
    gens = [groups.Permutation(g) for g in inst["gens"]]

    def word(G, letters):
        out = G.elements[0]
        for x in letters:
            out = out * gens[x]
        return out

    def run() -> None:
        G = groups.closure(gens)
        require(G.order == 168, "closure order is not 168")
        require(len(G.conjugacy_classes()) == 6, "GL(3,2) has six conjugacy classes")
        H1 = groups.stabilizer(G, inst["point"])
        H2 = groups.stabilizer(G, inst["line"])
        require(H1.order == H2.order == 24, "stabilisers of order 24")
        # every generating pair closes to the same group on the 14 points,
        # whose point and line stabilisers form the Fano triple: both true
        require(groups.is_gassmann_sunada(G, H1, H2).verdict, "point/line GS verdict")
        require(groups.is_jump_equivalent(G, H1, H2).verdict, "point/line JE verdict")
        # conjugate subgroups are jump equivalent by definition
        x, g = (word(G, w) for w in inst["words"])
        K1 = groups.subgroup_generated(G, [x])
        K2 = groups.subgroup_generated(G, [x.conjugate_by(g)])
        require(K1.order == K2.order, "conjugate subgroups of different order")
        require(groups.is_jump_equivalent(G, K1, K2).verdict, "conjugate-pair JE verdict")
        names = [("A", gens[0]), ("B", gens[1])]
        for H in (H1, H2):
            S = graphs.schreier_graph(G, H, names)
            require(S.vertex_count == 7 and S.edge_count == 14, "Schreier graph size")

    return Op(f"triple#{k}", run)

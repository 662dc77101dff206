"""Outside-in layer trace for the benchmark.

The tracer wraps public covspec functions at the layer boundaries without
editing the package.  Modules import names directly (``from .words import
decide_membership``), so each name is wrapped in the namespace of the
module that calls it; methods are wrapped on their class.  Every call
becomes a span [name, start, end, parent span index, op id, counts]; spans
stay in memory until the run ends.  A layer's self time is its span time
minus the time of its child spans.

``spectrum.syntactic_member`` and ``spectrum.todd_coxeter`` are called only
by the saturation check of the graph driver, so their spans measure that
check alone.  Oracle tier spans count as tier work only when their parent
is a ``words.decide`` span, and ``words.todd_coxeter`` spans only when they
run under one; the same functions also run inside certificate replay, which
is timed as ``words.replay``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, COUNTS = range(6)

TIERS = ("syntactic", "abelian", "contraction", "coset")


def _size(result):
    return {"classes": len(result)}


def _rows(result):
    return {"rows": result.size}


def _hit(result):
    return {"hit": int(result is not None)}


def _undecided(result):
    return {"undecided": int(result.verdict == "undecided")}


def _elements(result):
    return {"elements": result.order}


def boundaries(cv):
    """(owner, attribute, span name, counter) for every traced boundary."""
    return [
        (cv.cli, "covering_spectrum", "spectrum.covering_spectrum", None),
        (cv.spectrum, "covering_spectrum", "spectrum.covering_spectrum", None),
        (cv.spectrum, "covering_spectrum_lattice", "spectrum.lattice", None),
        (cv.spectrum.FiltrationReport, "verify_all_certificates", "spectrum.verify", None),
        (cv.cli, "enumerate_classes", "metric.enumerate", _size),
        (cv.spectrum, "enumerate_classes", "metric.enumerate", _size),
        (cv.spectrum, "decide_membership", "words.decide", _undecided),
        (cv.spectrum, "syntactic_member", "spectrum.saturation", None),
        (cv.spectrum, "todd_coxeter", "spectrum.saturation", _rows),
        (cv.words, "syntactic_member", "words.syntactic", _hit),
        (cv.words, "abelian_nonmember", "words.abelian", _hit),
        (cv.words, "contraction_nonmember", "words.contraction", _hit),
        (cv.words, "coset_membership", "words.coset", _hit),
        (cv.words, "todd_coxeter", "words.todd_coxeter", _rows),
        (cv.words, "verify_certificate", "words.replay", None),
        (cv.lattices.IntLattice, "add", "lattices.add", None),
        (cv.lattices.IntLattice, "contains", "lattices.contains", None),
        (cv.groups, "closure", "groups.closure", _elements),
        (cv.groups.FiniteGroup, "conjugacy_classes", "groups.conjugacy_classes", None),
        (cv.groups, "subgroup_generated", "groups.subgroup_generated", None),
        (cv.groups, "is_gassmann_sunada", "groups.gassmann_sunada", None),
        (cv.groups, "is_jump_equivalent", "groups.jump_equivalent", None),
        (cv.cli, "cayley_graph", "graphs.cayley_graph", None),
        (cv.graphs, "cayley_graph", "graphs.cayley_graph", None),
        (cv.graphs, "schreier_graph", "graphs.schreier_graph", None),
        (cv.graphs, "color_isomorphism", "graphs.color_isomorphism", None),
    ]


class _CountingOracle:
    """Stands in for the oracle handed to ``jump_set`` and counts, at that
    boundary, the membership queries, the keys fed to the oracle and the
    levels walked (``jump_set`` asks ``saturated()`` once per level)."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.queries = self.adds = self.levels = 0

    def contains(self, key):
        self.queries += 1
        return self._oracle.contains(key)

    def add(self, key):
        self.adds += 1
        return self._oracle.add(key)

    def saturated(self):
        self.levels += 1
        return self._oracle.saturated()


class Tracer:
    def __init__(self, cv):
        self.cv = cv
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = -1

    # -- recording

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        # a deadline can interrupt a span between open and close; start
        # every op from an empty stack
        self.op_id = op_id
        self._stack.clear()

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[COUNTS] = counter(result)
                return result
            finally:
                tracer._close(span)

        return traced

    def _wrap_jump_set(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(items, oracle, *args, **kwargs):
            span = tracer._open("spectrum.jump_set")
            counting = _CountingOracle(oracle)
            try:
                return fn(items, counting, *args, **kwargs)
            finally:
                span[COUNTS] = {"queries": counting.queries, "adds": counting.adds,
                                "levels": counting.levels}
                tracer._close(span)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(o, a, self._wrap(getattr(o, a), n, c)) for o, a, n, c in boundaries(self.cv)]
        targets.append((self.cv.spectrum, "jump_set",
                        self._wrap_jump_set(self.cv.spectrum.jump_set)))
        for owner, attr, wrapped in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation

    def _under(self, i: int, name: str) -> bool:
        """Whether span i runs, at any depth, inside a span called name."""
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def metrics(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] (one traced pass)."""
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for s in spans:
            if s[PARENT] >= first and s[END]:
                child_time[s[PARENT]] += s[END] - s[START]
        m: dict[str, float] = defaultdict(float)
        fed = enumerated = 0
        for i, s in enumerate(spans, first):
            if not s[END]:  # a deadline fired before the span could close
                continue
            name, dur, counts = s[NAME], s[END] - s[START], s[COUNTS] or {}
            parent = self.spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
            if name.startswith("words.") and name[6:] in TIERS:
                if parent != "words.decide":
                    continue
                m[name + ".calls"] += 1
                m[name + ".s"] += dur
                m[name + ".hits"] += counts.get("hit", 0)
                continue
            if name == "words.todd_coxeter" and not self._under(i, "words.decide"):
                continue
            m[name + ".calls"] += 1
            m[name + ".s"] += dur
            for key, value in counts.items():
                m[f"{name}.{key}"] += value
            if name == "spectrum.covering_spectrum":
                m["spectrum.driver.self_s"] += dur - child_time[i]
            elif name == "metric.enumerate" and parent == "spectrum.covering_spectrum":
                enumerated += counts.get("classes", 0)
            elif name == "spectrum.jump_set" and parent == "spectrum.covering_spectrum":
                fed += counts.get("adds", 0)
        m["metric.classes_used_ratio"] = fed / enumerated if enumerated else 0.0
        m["lattices.s"] = m["lattices.add.s"] + m["lattices.contains.s"]
        m["spectrum.levels"] = m["spectrum.jump_set.levels"]
        m["spectrum.queries"] = m["spectrum.jump_set.queries"]
        m["spectrum.saturation.tc_rows"] = m["spectrum.saturation.rows"]
        m["words.undecided"] = m["words.decide.undecided"]
        m["trace.spans"] = len(spans)
        return m

    def exact_counts(self, first: int = 0, last: int | None = None) -> dict[int, tuple]:
        """Per op: (classes, queries, coset rows, closure elements)."""
        out: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        slot = {"classes": 0, "queries": 1, "rows": 2, "elements": 3}
        for s in self.spans[first:last]:
            for key, value in (s[COUNTS] or {}).items():
                if key in slot:
                    out[s[OP]][slot[key]] += value
        return {op: tuple(v) for op, v in out.items()}

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from covspec import (
    ColoredGraph,
    Edge,
    MetricGraph,
    cayley_graph,
    covering_spectrum,
    fano_generators,
    fano_triple,
)
from covspec.groups import FANO_LABELS

_RUN_CACHE: dict = {}


@pytest.fixture(scope="session")
def fano():
    """The Fano triple (group, h1 the point and h2 the line stabilizer) and
    the generator permutations on points and lines, keyed by "A" and "B"."""
    G, H1, H2 = fano_triple()
    point, line = fano_generators()
    return SimpleNamespace(
        group=G, h1=H1, h2=H2, point_perms=point, line_perms=line, labels=FANO_LABELS
    )


@pytest.fixture(scope="session")
def fano_graphs(fano):
    g1 = cayley_graph(list(fano.point_perms.items()), list(fano.labels))
    g2 = cayley_graph(list(fano.line_perms.items()), list(fano.labels))
    return g1, g2


@pytest.fixture(scope="session")
def fano_run(fano_graphs):
    """Factory: covering spectrum runs on both Fano length spaces, cached."""

    def run(la: Fraction, lb: Fraction, root: int = 0):
        key = (la, lb, root)
        if key not in _RUN_CACHE:
            g1, g2 = fano_graphs
            X1 = MetricGraph(g1, {"A": la, "B": lb}, root=root)
            X2 = MetricGraph(g2, {"A": la, "B": lb}, root=root)
            s1, r1 = covering_spectrum(X1)
            s2, r2 = covering_spectrum(X2)
            _RUN_CACHE[key] = (X1, s1, r1, X2, s2, r2)
        return _RUN_CACHE[key]

    return run


@pytest.fixture()
def wedge23():
    graph = ColoredGraph(["v"], [Edge(0, 0, 0, "A"), Edge(1, 0, 0, "B")], ["A", "B"])
    return MetricGraph(graph, {"A": Fraction(2), "B": Fraction(3)})


@pytest.fixture()
def theta_graph():
    # two vertices joined by three parallel edges of distinct lengths
    graph = ColoredGraph(
        ["u", "v"],
        [Edge(0, 0, 1, "A"), Edge(1, 0, 1, "B"), Edge(2, 1, 0, "C")],
        ["A", "B", "C"],
    )
    return MetricGraph(graph, [Fraction(1), Fraction(2), Fraction(5, 2)])

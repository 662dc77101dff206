"""The benchmark's layer tracer must find every name it wraps in covspec.

bench/tracing.py wraps covspec functions in the namespaces of the modules
that call them; a refactor that unbinds one of those names breaks the
traced benchmark.  The traced calls run the spectrum driver, the
flat-torus spectrum, and then the group and graph layers in the order a
Gassmann-Sunada triple uses them.
The check runs in a fresh interpreter so that the tracer meets a freshly
imported package and cannot leave it patched.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import covspec

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import importlib
import sys
import types
from fractions import Fraction

import covspec
from tracing import Tracer, boundaries

cv = types.SimpleNamespace(**{
    m: importlib.import_module("covspec." + m)
    for m in ("cli", "graphs", "groups", "lattices", "metric", "spectrum", "words")
})
targets = [(o, a) for o, a, _, _ in boundaries(cv)] + [(cv.spectrum, "jump_set")]
originals = [o.__dict__[a] for o, a in targets]
tracer = Tracer(cv)
tracer.install()
try:
    graph = covspec.ColoredGraph(
        ["v"], [covspec.Edge(0, 0, 0, "A"), covspec.Edge(1, 0, 0, "B")], ["A", "B"]
    )
    X = covspec.MetricGraph(graph, {"A": Fraction(2), "B": Fraction(3)})
    spectrum, report = cv.spectrum.covering_spectrum(X)
    assert spectrum.as_strings() == ["1/1", "3/2"]
    assert report.verify_all_certificates(X)
    torus = cv.spectrum.covering_spectrum_lattice([[2, 0], [0, 3]])
    assert torus.display() == ["1/1", "3/2"]
    # the group and graph layers, as a Gassmann-Sunada triple is checked
    gens = list(covspec.fano_actions().point_perms.items())
    G = cv.groups.closure([p for _, p in gens])
    H1 = cv.groups.stabilizer(G, 0)
    H2 = cv.groups.subgroup_generated(G, [gens[1][1]])
    assert cv.graphs.schreier_graph(G, H1, gens).vertex_count == 7
    assert not cv.groups.is_jump_equivalent(G, H1, H2).verdict
finally:
    tracer.uninstall()
names = {span[0] for span in tracer.spans}
for name in ("spectrum.covering_spectrum", "spectrum.jump_set", "spectrum.lattice",
             "words.decide", "words.syntactic", "words.abelian", "words.replay",
             "groups.closure", "graphs.schreier_graph", "groups.subgroup_generated",
             "groups.jump_equivalent"):
    if name not in names:
        sys.exit(f"no span {name}")
for (owner, attr), original in zip(targets, originals):
    if owner.__dict__[attr] is not original:
        sys.exit(f"{attr} left patched")
"""


def test_tracer_installs_and_uninstalls_on_fresh_import():
    src = Path(covspec.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

"""Record the reference pools of the `schreier` and `torus` workloads.

    python3 bench/record.py schreier --size 160 --deadline 10
    python3 bench/record.py torus --size 300 --deadline 3

For each instance seed 0..size-1 this computes the instance's covering
spectrum with the current `src/`, its outcome and its cost in reference
seconds (see run.Clock), the median of REPEATS runs, and writes
`bench/references/<workload>.json`.  The benchmark compares every op's
spectrum with these strings, and draws its ops from the instances whose
cost is well inside its deadline (see workloads.stratified_draw).
Re-record only when the benchmark itself changes, never in a change that
claims a speed-up.  The outcome is "ok", or the name of the exception that
stopped the instance: an oracle that leaves a class undecided or a cap
(the benchmark then expects that op to fail), or OpDeadline when it did not
finish within --deadline wall seconds (the benchmark never draws it).  Only
"ok" instances have a spectrum.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import Clock, import_covspec
from workloads import (
    REFERENCE_DIR,
    OpDeadline,
    deadline,
    schreier_instance,
    schreier_metric_graph,
    torus_instance,
)

# an instance's cost is the median of this many runs
REPEATS = 3


def spectrum_of(cv, workload: str, seed: int) -> list[str]:
    if workload == "schreier":
        X = schreier_metric_graph(cv, schreier_instance(seed))
        spectrum, report = cv.spectrum.covering_spectrum(X)
        if not report.verify_all_certificates(X):
            raise SystemExit(f"schreier#{seed}: certificate replay failed")
        return spectrum.as_strings()
    return cv.spectrum.covering_spectrum_lattice(torus_instance(seed)).display()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=["schreier", "torus"])
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--deadline", type=float, default=300.0)
    args = ap.parse_args()
    cv = import_covspec()
    clock = Clock()
    instances = {}
    for seed in range(args.size):
        costs, outcome = [], "ok"
        for _ in range(REPEATS):
            before = clock.sample()
            t0 = time.perf_counter()
            try:
                with deadline(args.deadline):
                    spectrum = spectrum_of(cv, args.workload, seed)
            except (OpDeadline, RuntimeError) as exc:
                spectrum, outcome = None, type(exc).__name__
                print(f"{args.workload}#{seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            clock.sample()
            costs.append(elapsed * clock.scale(before)[0])
            if spectrum is None:
                break
        cost = statistics.median(costs)
        instances[str(seed)] = {"covspec": spectrum, "cost_s": round(cost, 6), "outcome": outcome}
        print(f"{args.workload}#{seed} {cost:.3f}s {outcome} {spectrum}", file=sys.stderr, flush=True)
    doc = {"workload": args.workload, "instances": instances}
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

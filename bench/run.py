"""The covspec benchmark: one seeded workload, checked and timed.

    python3 bench/run.py --workload fano_wedge --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports covspec from its `src/`.  The
op list is built from --seed (see workloads.py); every op runs closed-loop
and sequentially in this one process and thread, under a per-op deadline
from config.json, and every output is checked.  Times are reported in
reference seconds (see Clock).

--trace 0 runs the workload's configured number of passes over the op
list, and more while one more still ends within --seconds, and prints the
end-to-end metrics.  --trace 1 runs a traced, an untraced and a second
traced pass (tracing.py) and prints the per-layer metrics of the second
traced pass, the tracing overhead against the untraced pass, and whether
the exact counts of the two traced passes agree.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it gives
the run's context (Python, nproc, commit, failures, tail percentile).
Exit code 2, with no result, when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
COVSPEC_MODULES = ("cli", "graphs", "groups", "lattices", "metric", "spectrum", "words")

SETUP_REPEATS = 25
CAL_REF_S = 0.002
CAL_INTERVAL_S = 0.5
# a runaway op fails with MemoryError instead of exhausting a shared machine
ADDRESS_SPACE_LIMIT = 1 << 30

class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_covspec() -> types.SimpleNamespace:
    """Import covspec afresh from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "covspec" / "__init__.py").is_file():
        raise SetupError(f"no covspec sources at {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if m == "covspec" or m.startswith("covspec.")]:
        del sys.modules[name]
    pkg = importlib.import_module("covspec")
    if Path(pkg.__file__).resolve().parent != SRC_DIR / "covspec":
        raise SetupError(f"covspec imported from {pkg.__file__}, not from {SRC_DIR}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"covspec.{m}") for m in COVSPEC_MODULES}
    )


def commit_id() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/covspec, which identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "covspec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between neighbouring values."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _calibration_loop():
    # a fixed mix of the interpreter work covspec does: rational arithmetic,
    # tuple keys in dicts, list building and sorting
    acc, seen, out = Fraction(0), {}, []
    for i in range(1, 800):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, -(i % 7))
        seen[key] = seen.get(key, 0) + 1
        out.append(key[::-1])
    return acc, len(seen), sorted(out)[0]


class Clock:
    """Times ops in reference seconds.

    This machine is shared, and its speed drifts by tens of percent over
    seconds to minutes.  The clock runs a fixed calibration loop between ops
    (at least every CAL_INTERVAL_S) and scales each op's wall and CPU time
    by CAL_REF_S over the loop's mean time in the samples taken just before
    and just after the op.  A reference second is a second at the speed
    where one loop takes CAL_REF_S.  Raw times are kept alongside.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (taken at, wall, cpu)

    def sample(self) -> int:
        walls, cpus = [], []
        for _ in range(3):
            t, c = time.perf_counter(), time.process_time()
            _calibration_loop()
            walls.append(time.perf_counter() - t)
            cpus.append(time.process_time() - c)
        self.samples.append((time.perf_counter(), statistics.median(walls),
                             statistics.median(cpus)))
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.samples[-1][0] >= CAL_INTERVAL_S

    def scale(self, before: int) -> tuple[float, float]:
        """(wall, cpu) factors for an op between sample ``before`` and the next."""
        (_, w0, c0), (_, w1, c1) = self.samples[before], self.samples[before + 1]
        return 2 * CAL_REF_S / (w0 + w1), 2 * CAL_REF_S / (c0 + c1)


def run_pass(ops, deadline_s: float, w, tracer=None) -> dict:
    """One closed-loop pass over the op list; failed ops are counted, never dropped."""
    cv_errors = (w.OpDeadline, MemoryError, RuntimeError)
    clock = Clock()
    before = clock.sample()
    raw, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        # the deadline is in reference seconds too, so whether an op
        # finishes does not depend on how busy the machine is
        limit = deadline_s * clock.samples[-1][1] / CAL_REF_S
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with w.deadline(limit):
                op.run()
        except w.OpMismatch as exc:
            failures.append({"op": op.label, "kind": "mismatch", "wrong": True, "error": str(exc)})
        except cv_errors as exc:
            # did not finish, undecided oracle, exhausted budget, or a cap
            failures.append({"op": op.label, "kind": type(exc).__name__, "wrong": False,
                             "error": str(exc)[:200]})
        except Exception as exc:  # an op that breaks in any other way is wrong
            failures.append({"op": op.label, "kind": type(exc).__name__, "wrong": True,
                             "error": str(exc)[:200]})
        raw.append((time.perf_counter() - t0, time.process_time() - c0, before))
        if clock.due() or i == len(ops) - 1:
            before = clock.sample()
    times, cpus = [], []
    for wall, cpu, k in raw:
        fw, fc = clock.scale(k)
        times.append(wall * fw)
        cpus.append(cpu * fc)
    return {
        "wall_s": sum(times),
        "cpu_s": sum(cpus),
        "raw_wall_s": sum(r[0] for r in raw),
        "times": times,
        "failures": failures,
    }


def setup(workload: str, seed: int):
    """Draw the inputs, then import covspec and build the op list from them,
    SETUP_REPEATS times; the last build is the one that runs.  Only the
    import and the build are timed.  Returns (cv, workloads module, ops,
    times), times in reference seconds."""
    import workloads as w

    if workload not in w.CONFIG:
        raise SetupError(f"unknown workload {workload!r}; choose from {sorted(w.CONFIG)}")
    tail_percentile(w.CONFIG[workload]["ops"])
    inputs = w.draw_inputs(workload, seed)
    clock = Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        before = clock.sample()
        t0 = time.perf_counter()
        cv = import_covspec()
        ops = w.build_ops(workload, inputs, cv)
        elapsed = time.perf_counter() - t0
        clock.sample()
        times.append(elapsed * clock.scale(before)[0])
    return cv, w, ops, times


def tail_percentile(n_ops: int) -> int:
    """The highest whole percentile with at least ten of n_ops ops beyond it."""
    if n_ops <= 10:
        raise SetupError(f"{n_ops} ops leave no ten beyond any percentile")
    return 100 * (n_ops - 10) // n_ops


def end_to_end(passes, setup_times) -> dict[str, float]:
    """Wall and CPU time are medians over passes; an op's time is its median
    over passes, and the op percentiles are taken over ops."""
    per_op = [statistics.median(t) for t in zip(*(p["times"] for p in passes))]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": percentile(per_op, tail_percentile(len(per_op))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(cv, w, ops, deadline_s, per_layer):
    """A traced pass, an untraced pass and a second traced pass over the same
    ops.  The layer metrics and the tracing overhead come from the last two,
    which both run warm; the exact counts of the two traced passes must agree."""
    from tracing import Tracer

    tracer = Tracer(cv)

    def traced_pass():
        tracer.install()
        try:
            return run_pass(ops, deadline_s, w, tracer)
        finally:
            tracer.uninstall()

    first = traced_pass()
    mark = len(tracer.spans)
    untraced = run_pass(ops, deadline_s, w)
    second = traced_pass()
    layer = tracer.metrics(mark)
    # span times are raw; put them in the reference seconds of the pass
    scale = second["wall_s"] / second["raw_wall_s"]
    for name in layer:
        if name.endswith((".s", "_s")):
            layer[name] *= scale
    failed = {f["op"] for p in (first, second) for f in p["failures"]}
    counts = tracer.exact_counts(0, mark), tracer.exact_counts(mark)
    mismatched = sorted(
        op.label for i, op in enumerate(ops)
        if op.label not in failed and counts[0].get(i) != counts[1].get(i)
    )
    layer["trace.overhead_s"] = second["wall_s"] - untraced["wall_s"]
    layer["trace.untraced_wall_s"] = untraced["wall_s"]
    layer["trace.count_mismatches"] = len(mismatched)
    metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
               for m in per_layer}
    return [first, untraced, second], metrics, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="covspec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        # covspec checks a syntactic witness with assert; -O would skip it
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    # run_fano reads COVSPEC_BUDGET; the benchmark measures the default budget
    os.environ.pop("COVSPEC_BUDGET", None)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cv, w, ops, setup_times = setup(args.workload, args.seed)
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    conf = w.CONFIG[args.workload]

    if args.trace:
        passes, metrics, mismatched = traced_run(cv, w, ops, conf["deadline_s"], spec["per_layer"])
    else:
        # at least the configured passes, then more while one more still
        # ends within --seconds
        passes = []
        t0 = time.perf_counter()
        while len(passes) < conf["passes"] or (
            time.perf_counter() - t0 + passes[-1]["raw_wall_s"] <= args.seconds
        ):
            passes.append(run_pass(ops, conf["deadline_s"], w))
        values = end_to_end(passes, setup_times)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        mismatched = []

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["times"]) for p in passes)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "src_sha256": source_digest(),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
        "deadline_s": conf["deadline_s"],
        "op_tail_percentile": tail_percentile(len(ops)),
        "op_samples": attempted,
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "count_mismatches": mismatched,
    }
    print(json.dumps(context, sort_keys=True))
    result = {
        "correct": not mismatched and not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

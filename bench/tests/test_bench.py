"""Tests of the benchmark harness itself: python3 -m pytest bench/tests -q"""

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads as w

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cv():
    return run.import_covspec()


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture
def small(monkeypatch):
    """Single short passes; the op counts still split the reference pools
    and leave ten ops beyond the tail percentile."""
    for name, ops in {"fano_wedge": 11, "schreier": 16, "triple": 11, "torus": 12}.items():
        monkeypatch.setitem(w.CONFIG[name], "ops", ops)
        monkeypatch.setitem(w.CONFIG[name], "passes", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", [x["name"] for x in BENCHMARK["workloads"]])
def test_every_end_to_end_metric_prints_with_its_unit(small, capsys, workload):
    context, result = _result(
        capsys, ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == context["op_samples"] >= 11
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert context["python"] and context["nproc"] and context["src_sha256"]


def test_every_per_layer_metric_prints_with_its_unit(small, capsys):
    context, result = _result(
        capsys, ["--workload", "fano_wedge", "--seed", "3", "--seconds", "0", "--trace", "1"]
    )
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] is True and context["count_mismatches"] == []
    assert result["metrics"]["metric.enumerate.classes"]["value"] > 0
    assert result["metrics"]["words.decide.calls"]["value"] > 0


def test_wrong_reference_is_a_failed_wrong_op(cv):
    pool = w.load_pool("torus")
    seed = min(pool, key=lambda s: pool[s]["cost_s"])
    basis = w.torus_instance(int(seed))
    good = w._torus_op(cv, int(seed), basis, pool[seed])
    bad = w._torus_op(cv, int(seed), basis, {"covspec": ["1/1"]})
    result = run.run_pass([good, bad], 10, w)
    assert len(result["times"]) == 2
    assert [(f["op"], f["kind"], f["wrong"]) for f in result["failures"]] == [
        (bad.label, "mismatch", True)
    ]


def test_op_past_deadline_is_counted_not_dropped():
    def spin():
        while True:
            pass

    ops = [w.Op("spin", spin), w.Op("quick", lambda: None)]
    t0 = time.perf_counter()
    result = run.run_pass(ops, 0.2, w)
    assert time.perf_counter() - t0 < 5
    assert len(result["times"]) == 2 and result["raw_wall_s"] >= 0.2
    assert [(f["op"], f["kind"], f["wrong"]) for f in result["failures"]] == [
        ("spin", "OpDeadline", False)
    ]


def test_trace_survives_ops_cut_inside_a_span(cv):
    ops = w.build_ops("schreier", w.draw_inputs("schreier", 1), cv)[:4]
    passes, metrics, mismatched = run.traced_run(cv, w, ops, 0.02, BENCHMARK["per_layer"])
    assert [len(p["times"]) for p in passes] == [4, 4, 4]
    assert any(f["kind"] == "OpDeadline" for p in passes for f in p["failures"])
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert mismatched == []


def test_replay_todd_coxeter_is_not_oracle_work():
    tracer = tracing.Tracer(None)
    tracer.spans = [
        ["words.decide", 0.0, 4.0, -1, 0, {"undecided": 0}],
        ["words.coset", 1.0, 3.0, 0, 0, {"hit": 1}],
        ["words.todd_coxeter", 1.5, 2.5, 1, 0, {"rows": 7}],
        # _verify_coset_cert runs Todd-Coxeter again inside replay
        ["words.replay", 5.0, 9.0, -1, 0, None],
        ["words.todd_coxeter", 6.0, 8.0, 3, 0, {"rows": 7}],
    ]
    m = tracer.metrics()
    assert m["words.todd_coxeter.calls"] == 1 and m["words.todd_coxeter.rows"] == 7
    assert m["words.todd_coxeter.s"] == 1.0
    assert m["words.replay.s"] == 4.0


def test_undecided_oracle_is_a_failed_op_not_a_wrong_one(cv):
    pool = w.load_pool("schreier")
    undecided = [s for s, ref in pool.items() if ref["outcome"] == "UndecidedOracleError"]
    assert undecided, "the pool records its undecided draws"
    seed = int(undecided[0])
    op = w._schreier_op(cv, seed, w.schreier_instance(seed), pool[undecided[0]])
    result = run.run_pass([op], 30, w)
    assert [(f["kind"], f["wrong"]) for f in result["failures"]] == [
        ("UndecidedOracleError", False)
    ]


@pytest.mark.parametrize("workload", ["schreier", "torus"])
def test_every_seed_draws_the_same_failures_well_inside_the_deadline(workload):
    pool, conf = w.load_pool(workload), w.CONFIG[workload]
    failing, costs = set(), []
    for seed in range(30):
        picks = [str(s) for s in w.stratified_draw(
            pool, conf["ops"], conf["deadline_s"], random.Random(seed))]
        assert len(set(picks)) == conf["ops"]
        failing.add(sum(pool[s]["outcome"] != "ok" for s in picks))
        costs += [pool[s]["cost_s"] for s in picks]
    assert len(failing) == 1
    assert max(costs) <= conf["deadline_s"] * w.DRAWN_COST_SHARE


def test_covspec_budget_is_unset(small, capsys, monkeypatch):
    monkeypatch.setenv("COVSPEC_BUDGET", "1/2")
    _, result = _result(
        capsys, ["--workload", "fano_wedge", "--seed", "0", "--seconds", "0", "--trace", "0"]
    )
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_json_matches_the_runner():
    assert {x["name"] for x in BENCHMARK["workloads"]} == set(w.CONFIG)
    predictions = json.loads((run.BENCH_DIR / "predictions.json").read_text())
    predicted = [m for p in predictions["predictions"] for m in p["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_same_seed_same_ops_other_seed_other_ops(cv):
    for workload in w.CONFIG:
        a = w.draw_inputs(workload, 5)
        assert a == w.draw_inputs(workload, 5) != w.draw_inputs(workload, 6)
        labels = [op.label for op in w.build_ops(workload, a, cv)]
        assert len(labels) == w.CONFIG[workload]["ops"]


def _bench(argv, cwd, *flags):
    return subprocess.run(
        [sys.executable, *flags, "bench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


ARGS = ["--workload", "triple", "--seed", "1", "--seconds", "1", "--trace", "0"]


def test_refuses_python_O():
    proc = _bench(ARGS, run.ROOT, "-O")
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(ARGS, tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""

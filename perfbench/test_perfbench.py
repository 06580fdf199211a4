"""Tests of the benchmark harness itself: span arithmetic, count and answer
checks, and one traced unit of a cut-down workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import SETUP, Span  # noqa: E402


def nested_spans():
    # fit [0, 10] holds gram [1, 4] (which holds a nested gram [2, 3]) and chol [5, 9]
    return [
        Span("gp.fit", 0.0, 10.0, -1, 0),
        Span("kernels.gram", 1.0, 4.0, 0, 0),
        Span("kernels.gram", 2.0, 3.0, 1, 0),
        Span("gp.chol", 5.0, 9.0, 0, 0, notes={"retries": 2}),
        Span("gp.fit", 20.0, 21.0, -1, SETUP),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_outermost_skips_spans_nested_in_the_same_name():
    spans = nested_spans()
    flags = [tracing.outermost(spans, i) for i in range(len(spans))]
    assert flags == [True, True, False, True, True]


def test_layer_metrics_per_call_per_unit_and_absent():
    m = tracing.layer_metrics(nested_spans(), {0: 20.0}, [18.0])
    assert m["gp.fit_ms"] == pytest.approx(1e3 * (10.0 + 1.0) / 2)  # set-up call included
    assert m["gp.fit_self_ms"] == pytest.approx(1e3 * (3.0 + 1.0) / 2)
    assert m["kernels.gram_calls"] == 2
    assert m["kernels.gram_share"] == pytest.approx(3.0 / 20.0)  # nested gram not double counted
    assert m["gp.jitter_retries"] == 2
    assert m["trace.uncovered_share"] == pytest.approx((20.0 - 10.0) / 20.0)
    assert m["trace.overhead_s"] == pytest.approx(2.0)
    assert m["statespace.filter_ms"] is None and m["tuning.evals"] is None


def op(answers, counts, error=None):
    return {"name": "x", "seed_index": 0, "answers": answers, "points": 0, "counts": counts,
            "error": error}


def test_count_check_reports_changed_work():
    counts = {"gp.fit": 373, "kernels.gram": 373}
    _, ok = run.check_op(op({"nmse": 1.0}, counts), {"nmse": 1.0}, counts)
    _, bad = run.check_op(op({"nmse": 1.0}, {"gp.fit": 373, "kernels.gram": 746}),
                          {"nmse": 1.0}, counts)
    assert ok == []
    assert bad == ["changed work: kernels.gram ran 746 times, recorded 373"]


def test_answer_check_tolerance_and_errors():
    counts = {"gp.fit": 1}
    err, ok = run.check_op(op({"nmse": 4.0 * (1 + 1e-12)}, counts), {"nmse": 4.0}, counts)
    assert ok == [] and err == pytest.approx(1e-12)
    err, bad = run.check_op(op({"nmse": 4.0 * (1 + 1e-6)}, counts), {"nmse": 4.0}, counts)
    assert len(bad) == 1 and err == pytest.approx(1e-6)
    _, raised = run.check_op(op({}, counts, "NumericalError: boom"), {"nmse": 4.0}, counts)
    assert raised[0] == "NumericalError: boom"


@pytest.fixture
def tracer():
    t = tracing.Tracer(worker.time.perf_counter)
    tracing.install_core(t)
    yield t
    t.restore()


def test_cut_down_workload_counts_answers_and_layers(tracer, tmp_path):
    import shmgp.gp
    from workloads import TuneWorkload

    workload = TuneWorkload(["trend_zero_mean", "reduced_rank_field"])
    workload.setup(0, tmp_path)
    workload.configs[0, "trend_zero_mean"].optimizer = {"particles": 4, "iterations": 2}
    tracer.clocked = frozenset(workload.work_spans)
    first = worker.run_unit(workload, tracer, 0, traced=False, draw=0)
    second = worker.run_unit(workload, tracer, 1, traced=True, draw=0)

    trend = second["ops"][0]
    assert trend["counts"] == {"gp.fit": 13, "kernels.gram": 13, "statespace.filter": 0,
                               "gp.predict": 1, "tuning.objective": 12}
    assert first["work"] == second["work"] == 12  # swarm evaluations; the final refit is not one
    assert 0.0 < first["work_s"] < first["solve_s"]
    assert not hasattr(shmgp.gp.chol_with_jitter, "__wrapped__")  # layers only while traced
    assert [index for _, index, _ in workload.ops(9)] == [1, 1]  # draw j runs index (k + j) mod 8
    expected = {
        "counts": {o["name"]: o["counts"] for o in first["ops"]},
        "answers": {"0": {o["name"]: o["answers"] for o in first["ops"]}},
    }
    assert run.score([first, second], expected) == (4, 0, 0.0, [])

    perturbed = {o: {k: v * (1 + 1e-7) for k, v in a.items()}
                 for o, a in expected["answers"]["0"].items()}
    attempted, failed, worst, _ = run.score([second], {**expected, "answers": {"0": perturbed}})
    assert (attempted, failed) == (2, 2) and worst == pytest.approx(1e-7, rel=1e-3)

    layers = tracing.layer_metrics(tracer.spans, {1: second["solve_s"]}, [first["solve_s"]])
    assert layers["tuning.evals"] == 12
    assert layers["kernels.gram_calls"] == 13
    assert layers["reduced_rank.fit_ms"] > 0
    assert layers["statespace.passes"] is None
    assert 0.0 <= layers["trace.uncovered_share"] < 1.0
    assert all(s.unit == 1 for s in tracer.spans)  # the untraced unit records no spans


def test_restore_puts_the_program_back(tracer):
    import shmgp.gp
    import shmgp.tuning

    assert hasattr(shmgp.gp.fit_exact, "__wrapped__")
    tracer.restore()
    assert not hasattr(shmgp.gp.fit_exact, "__wrapped__")
    assert not hasattr(shmgp.tuning.pso_minimize, "__wrapped__")
    assert shmgp.tuning.pso_minimize is shmgp.pso.pso_minimize


def test_benchmark_json_lists_the_metrics_run_prints():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

"""Quick-size runs of every workload, untraced and traced."""

import json
import math
import os
import subprocess
import sys

import pytest

import tracing
import workloads
from toacnn import cantilever, fem

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run_is_correct_and_reports_every_metric(name, tmp_path):
    res = workloads.run_workload(name, seed=5, seconds=0.0, sizes=workloads.QUICK,
                                 workdir=str(tmp_path))
    run = res["run"]
    assert run.failures == [] and run.errors == [] and run.failed == 0
    assert run.attempted == run.ops_per_round * (res["rounds"] + 1)
    for metric, _ in workloads.END_TO_END:
        value = res["metrics"][metric]
        assert math.isfinite(value) and value > 0.0, metric
    assert os.listdir(tmp_path) == []


def test_traced_counts_repeat_exactly_and_patches_come_off(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        workloads.run_workload("sweep-small", seed=9, seconds=0.0, sizes=workloads.QUICK,
                               workdir=str(tmp_path), tracer=tracer)
        m = tracer.per_layer_metrics()
        assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
        counts.append({k: m[k] for k in ("fem.splu_calls_per_iter", "fem.backsolves_per_rhs",
                                          "fem.lu_fill_nnz", "dataset.bytes_written")})
    assert counts[0] == counts[1]
    q = workloads.QUICK
    iters = q.cant_iters + q.arch_iters + q.micro_iters
    assert counts[0]["fem.splu_calls_per_iter"] == (q.cant_iters + 3 * q.arch_iters
                                                    + q.micro_iters) / iters
    assert counts[0]["fem.backsolves_per_rhs"] >= 1.0
    assert cantilever.assemble_stiffness is fem.assemble_stiffness
    assert not hasattr(fem.spla.splu, "__wrapped__")


def test_command_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_an_operation_that_raises_fails_the_rest_of_its_round():
    from toacnn.errors import SolverFailure

    run = workloads.Run(t0=0.0, ops_per_round=3)

    def body():
        run.op(lambda: None)
        run.op(lambda: (_ for _ in ()).throw(SolverFailure("residual")))
        run.op(lambda: None)

    assert run.round(body) is None
    assert (run.attempted, run.failed, run.failures) == (3, 2, [])
    assert run.errors and "residual" in run.errors[0]

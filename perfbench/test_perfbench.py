"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fixtures  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from uwit import bounds, oracle, probvec, quantum  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def traced_op(name: str, seed: int, op_id: int, workdir: Path):
    workload = workloads.make(name, seed, workdir)
    workload.setup()
    tracer = tracing.Tracer()
    inputs = workload.inputs(op_id)
    with tracer.installed(op_id):
        result = workload.run(inputs)
    return workload.check(inputs, result), tracer


def test_fixture_structure_is_fixed():
    a = fixtures.soundness_fixture(1, 0)
    b = fixtures.soundness_fixture(2, 5)
    for fx in (a, b):
        assert fx.separable_matrix.shape == (4, 4)
        assert len(fx.directions) == 4
        assert len(fx.hidden_weights) == len(fx.hidden_matrices) == fixtures.HIDDEN_STATES
        assert np.array(fx.response).shape == (fixtures.HIDDEN_STATES, 2, 2)
    assert not np.allclose(a.separable_matrix, b.separable_matrix)
    again = fixtures.soundness_fixture(1, 0)
    assert np.array_equal(a.separable_matrix, again.separable_matrix)


@pytest.mark.parametrize("name", WORKLOADS)
def test_call_counts_do_not_depend_on_the_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = traced_op(name, 1, 3, tmp_path / "a")
    _, second = traced_op(name, 2, 7, tmp_path / "b")
    assert first.call_counts() == second.call_counts()
    assert sum(first.call_counts().values()) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_on_one_seed(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = traced_op(name, 4, 2, tmp_path / "a")
    _, second = traced_op(name, 4, 2, tmp_path / "b")
    assert first.call_counts() == second.call_counts()


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_ops_agree(name, tmp_path):
    workload = workloads.make(name, 9, tmp_path)
    workload.setup()
    inputs = workload.inputs(1)
    plain = workload.check(inputs, workload.run(inputs))
    tracer = tracing.Tracer()
    with tracer.installed(1):
        result = workload.run(inputs)
    assert workload.check(inputs, result) == plain
    assert len(tracer.per_op) == 1


def test_wrappers_are_removed_after_tracing(tmp_path):
    originals = (quantum.born_stats, oracle.born_stats, bounds.fingerprint_povms,
                 quantum.DensityState.__init__, probvec.ProbVec.__init__)
    _, tracer = traced_op("census", 1, 0, tmp_path)
    assert tracer.call_counts()["quantum.born_stats"] > 0
    assert tracing.original_bindings_restored()
    assert (quantum.born_stats, oracle.born_stats, bounds.fingerprint_povms,
            quantum.DensityState.__init__, probvec.ProbVec.__init__) == originals


def test_tracer_wraps_every_binding_while_installed(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed(0):
        assert oracle.born_stats is quantum.born_stats
        assert hasattr(oracle.born_stats, "__wrapped__")
        assert not tracing.original_bindings_restored()
    assert tracing.original_bindings_restored()


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.installed(0):
        quantum.random_pure_state(2, np.random.default_rng(0))
    calls, self_ns = tracer.per_op[0]
    names = dict(zip(tracing.NAMES, range(len(tracing.NAMES))))
    assert calls[names["quantum.random_pure_state"]] == 1
    assert calls[names["quantum.DensityState"]] == 1
    assert all(t >= 0 for t in self_ns)


def test_gate_counts_a_wrong_result_as_a_failed_op(tmp_path):
    workload = workloads.make("census", 1, tmp_path)
    workload.setup()
    workload.qubit_bound = bounds.BoundVector(
        omega=probvec.uniform(4), method="too_tight", measurement_fingerprint="",
        certified_slack=0.0,
    )
    loop = bench.Loop(workload)
    assert loop.op(0) is not None
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "majorization violations" in loop.errors[0]


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_runs_repeat_their_counts_and_report_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, "soundness", trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
              for r in results]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "scenarios", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

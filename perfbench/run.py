"""Benchmark for uwit: four closed-loop workloads measured from outside the library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one client in a closed loop: the next op starts when the
previous one has finished.  ``UW_THREADS`` is removed from the environment,
so the library runs its default serial path.  Every op of a workload is the
same fixed round of library calls (see ``workloads.py``); its inputs come
from ``--seed`` and the op's index.  An op fails if it raises or if its
correctness check fails.  The timed phase runs until the ops have spent
``--seconds`` in the library and at least 100 ops have completed, so that
op_ms.p90 has at least ten samples beyond it; the count is printed with
the result.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``op_ms.p50``/``op_ms.p90``: wall time of the library calls of one op;
* ``items_per_s``: work items per second of that time;
* ``setup_s``: median of 11 cold starts, each a fresh interpreter with numpy
  already imported, timed from ``import uwit`` through the workload's set-up
  and first op (``coldstart.py``).  They are spread evenly through the
  timed phase, which is paused while one runs;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced ops with ops traced by ``tracer.py`` and
reports the per-layer metrics: calls and self time per op of every wrapped
function, validations per item, fingerprints per criterion call, the
tracing overhead on op_ms.p50, and ``host.calib_ms``, a fixed pure-Python
and small-``eigh`` loop timed at the same pauses, which tells drift of the
host apart from a change of the program.

The last line of standard output is the result object; the line before it
carries the sample counts and other context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 11
WARMUP_OPS = 1
MIN_OPS = 100            # so that op_ms.p90 has at least ten samples beyond it
MAX_LOOP_S = 100.0       # wall-clock cap on the timed phase, pauses included
COLD_START_TIMEOUT_S = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calib_ms(np, matrix) -> float:
    """Fixed host probe: a pure-Python loop plus small Hermitian eigensolves."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(300):
        np.linalg.eigh(matrix)
    return (time.perf_counter() - start) * 1e3


def cold_start(workload: str, seed: int, op_id: int, workdir: Path) -> tuple[float | None, str | None]:
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed), str(op_id), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return None, f"cold start exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["error"]


def percentiles(times_s: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(times_s, n=10)
    return statistics.median(times_s) * 1e3, deciles[8] * 1e3


class Loop:
    """The closed loop: times ``run`` only, gates every op, pauses at fixed marks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def op(self, op_id: int, tracer=None) -> float | None:
        """Run and check one op; return the library time in seconds, None if it raised."""
        self.attempted += 1
        inputs = self.workload.inputs(op_id)
        scope = nullcontext() if tracer is None else tracer.installed(op_id)
        try:
            with scope:
                start = time.perf_counter()
                try:
                    result = self.workload.run(inputs)
                finally:
                    # the time of an op that raised still counts towards the run's length
                    elapsed = time.perf_counter() - start
                    self.busy_s += elapsed
        except Exception:
            self.fail(f"op {op_id} raised:\n{traceback.format_exc()}")
            return None
        try:
            self.workload.check(inputs, result)
        except Exception as exc:   # a report the check cannot read is a wrong result too
            self.fail(f"op {op_id} failed its check: {exc!r}")
        return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "uwit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {SRC / 'uwit'} or {spec_path} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    os.environ.pop("UW_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import workloads

    if Path(workloads.cli.__file__).resolve().parents[2] != ROOT:
        print(f"perfbench: imported uwit from {workloads.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe_matrix = np.random.default_rng(0).normal(size=(6, 6))
    probe_matrix = probe_matrix + probe_matrix.T
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        workdir = Path(tmp)
        workload = workloads.make(args.workload, args.seed, workdir)
        setup_start = time.perf_counter()
        workload.setup()
        inprocess_setup_s = time.perf_counter() - setup_start
        loop = Loop(workload)
        op_id = 0
        for _ in range(WARMUP_OPS):
            loop.op(op_id)
            op_id += 1
        loop.busy_s = 0.0

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        marks = [args.seconds * (k + 0.5) / COLD_STARTS for k in range(COLD_STARTS)]
        calib = [calib_ms(np, probe_matrix)]
        setup_samples: list[float] = []
        plain_s: list[float] = []
        traced_s: list[float] = []

        def pause(k: int) -> None:
            calib.append(calib_ms(np, probe_matrix))
            if args.trace:
                return
            loop.attempted += 1
            try:
                sample, error = cold_start(args.workload, args.seed, k, workdir / f"cold{k}")
            except subprocess.TimeoutExpired:
                sample, error = None, "cold start timed out"
            if error is not None:
                loop.fail(f"cold start {k}: {error}")
            if sample is not None:
                setup_samples.append(sample)

        taken = 0
        loop_start = time.perf_counter()
        while ((loop.busy_s < args.seconds or len(plain_s) + len(traced_s) < MIN_OPS)
               and time.perf_counter() - loop_start < MAX_LOOP_S):
            if taken < COLD_STARTS and loop.busy_s >= marks[taken]:
                pause(taken)
                taken += 1
            traced = tracer is not None and op_id % 2 == 1
            elapsed = loop.op(op_id, tracer if traced else None)
            if elapsed is not None:
                (traced_s if traced else plain_s).append(elapsed)
            op_id += 1
        while taken < COLD_STARTS:
            pause(taken)
            taken += 1

    for message in loop.errors:
        print(message, file=sys.stderr)
    if len(plain_s) < 2 or (args.trace and len(traced_s) < 2) or (not args.trace and not setup_samples):
        print("perfbench: too few successful samples to report", file=sys.stderr)
        return 1

    p50, p90 = percentiles(plain_s)
    items = workload.items_per_op
    values = {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "items_per_s": items * len(plain_s) / sum(plain_s),
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host.calib_ms": statistics.median(calib),
    }
    if tracer is not None:
        values.update(tracing_metrics(tracing, tracer, items, p50, percentiles(traced_s)[0]))

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "timed_ops": len(plain_s), "traced_ops": len(traced_s),
        "items_per_op": items, "cold_start_samples": len(setup_samples),
        "inprocess_setup_s": inprocess_setup_s, "host.calib_ms": values["host.calib_ms"],
        "restarts": workloads.RESTARTS, "python": platform.python_version(),
        "numpy": np.__version__, "cpus": os.cpu_count(),
    }
    print(json.dumps({"info": info}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def tracing_metrics(tracing, tracer, items: int, plain_p50: float, traced_p50: float) -> dict:
    ops = len(tracer.per_op)
    values = {}
    for i, name in enumerate(tracing.NAMES):
        values[f"{name}.calls"] = sum(calls[i] for calls, _ in tracer.per_op) / ops
        values[f"{name}.self_ms"] = statistics.median(s[i] for _, s in tracer.per_op) / 1e6
    criteria_calls = sum(values[f"{name}.calls"] for name in tracing.CRITERIA)
    fingerprints = values["bounds.fingerprint_povms.calls"]
    values["quantum.validations_per_item"] = sum(
        values[f"{name}.calls"] for name in tracing.VALIDATIONS) / items
    values["bounds.fingerprints_per_criterion"] = (
        fingerprints / criteria_calls if criteria_calls else 0.0)
    values["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1.0) * 100.0
    return values


if __name__ == "__main__":
    sys.exit(main())

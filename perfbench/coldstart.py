"""One cold-start sample for the ``setup_s`` metric.

Usage: python3 perfbench/coldstart.py WORKLOAD SEED OP_ID WORKDIR

numpy and the benchmark's own seeded generators are imported before the
clock starts.  The clock covers ``import uwit``, the workload's set-up and
its first op; the op's correctness check runs after the clock stops.  The
last line of standard output is ``{"setup_s": ..., "ok": ..., "error": ...}``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401
import fixtures  # noqa: E402,F401


def main(argv: list[str]) -> int:
    name, seed, op_id, workdir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    start = time.perf_counter()
    import workloads

    workload = workloads.make(name, seed, workdir)
    workload.setup()
    inputs = workload.inputs(op_id)
    result = workload.run(inputs)
    elapsed = time.perf_counter() - start
    error = None
    try:
        workload.check(inputs, result)
    except workloads.GateFailure as exc:
        error = str(exc)
    print(json.dumps({"setup_s": elapsed, "ok": error is None, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

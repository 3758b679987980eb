"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public functions of each ``uwit`` module for the
duration of a ``with tracer.installed(op_id):`` block and restores every
original binding on exit.  A module-level function is rebound in every
``uwit`` module that imports it (``uwit.quantum.born_stats`` and
``uwit.oracle.born_stats`` alike); a class constructor or method is
rebound once, on its class.

Each call records a span ``(op_id, parent, name, start_ns, end_ns)`` where
``parent`` is the index of the enclosing span of the same op, or -1.  When
the block ends the op's spans are folded into calls and self time per
function.  Self time is the span's duration minus the time its child spans
cover, so it includes every unwrapped helper and closure the function
calls (``parallel_map`` carries the work of the closures it maps).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# layer -> (module, attribute path) of every wrapped function; the metric
# name of a function is "<module>.<attribute path>" without the package.
LAYERS = {
    "cli": [("uwit.cli", "run"), ("uwit.cli", "load_config")],
    "quantum": [
        ("uwit.quantum", "DensityState"),
        ("uwit.quantum", "Povm"),
        ("uwit.quantum", "Observable.povm"),
        ("uwit.quantum", "born_stats"),
        ("uwit.quantum", "product_observable_stats"),
        ("uwit.quantum", "random_pure_state"),
        ("uwit.quantum", "random_mixed_state"),
    ],
    "probvec": [
        ("uwit.probvec", "ProbVec"),
        ("uwit.probvec", "tensor_all"),
        ("uwit.probvec", "majorization_excess"),
    ],
    "quantifier": [("uwit.quantifier", "Quantifier.__call__")],
    "bounds_exact": [
        ("uwit.bounds", "omega_two_dichotomic"),
        ("uwit.bounds", "fine_grained_bound"),
        ("uwit.bounds", "fingerprint_povms"),
    ],
    "bounds_ascent": [
        ("uwit.bounds", "omega_numeric"),
        ("uwit.bounds", "fine_grained_bound_product"),
    ],
    "assemblage": [
        ("uwit.assemblage", "steer"),
        ("uwit.assemblage", "lhs_assemblage"),
        ("uwit.assemblage", "conditional_stats"),
    ],
    "criteria": [
        ("uwit.criteria", "entanglement_universal"),
        ("uwit.criteria", "entanglement_fine_grained"),
        ("uwit.criteria", "steering_universal"),
        ("uwit.criteria", "steering_fine_grained"),
        ("uwit.criteria", "steering_fine_grained_tensor"),
    ],
    "oracle": [("uwit.oracle", "verify_majorization_bound")],
    "parallel": [("uwit.parallel", "parallel_map")],
}

TARGETS = [target for targets in LAYERS.values() for target in targets]
NAMES = [f"{module.split('.', 1)[1]}.{path}" for module, path in TARGETS]
CRITERIA = [f"criteria.{path}" for _, path in LAYERS["criteria"]]
VALIDATIONS = ["quantum.DensityState", "quantum.Povm", "probvec.ProbVec"]


def _uwit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uwit" or name.startswith("uwit."))]


def _bindings(module_name: str, path: str):
    """(owner, attribute, original) for every binding one target is reached through."""
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        return [(cls, attr, cls.__dict__[attr])]
    original = getattr(module, path)
    if isinstance(original, type):
        return [(original, "__init__", original.__dict__["__init__"])]
    return [(m, attr, original) for m in _uwit_modules()
            for attr, value in list(vars(m).items()) if value is original]


class Tracer:
    """Records spans of wrapped library calls, one op at a time."""

    def __init__(self):
        self.per_op: list[tuple[list[int], list[int]]] = []   # (calls, self_ns) per op
        self._spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans = self._spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append((self._op_id, parent, index, perf_counter_ns(), 0))
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                op_id, parent, index_, start, _ = spans[span]
                spans[span] = (op_id, parent, index_, start, perf_counter_ns())

        wrapper.perfbench_wrapper = True
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        bindings = [(i, b) for i, (module, path) in enumerate(TARGETS)
                    for b in _bindings(module, path)]
        wrappers: dict[int, object] = {}
        for index, (owner, attr, original) in bindings:
            wrapper = wrappers.setdefault(index, self._wrap(index, original))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, op_id: int):
        """Trace one op: wrap, run the block, unwrap, fold the op's spans."""
        self._op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self._fold()

    def _fold(self) -> None:
        calls = [0] * len(TARGETS)
        self_ns = [0] * len(TARGETS)
        child_ns = [0] * len(self._spans)
        for _, parent, index, start, end in self._spans:
            calls[index] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        for span, (_, _, index, start, end) in enumerate(self._spans):
            self_ns[index] += end - start - child_ns[span]
        self.per_op.append((calls, self_ns))
        self._spans.clear()
        self._stack.clear()

    def call_counts(self) -> dict[str, int]:
        """Total calls per function over every traced op."""
        totals = [sum(calls[i] for calls, _ in self.per_op) for i in range(len(TARGETS))]
        return dict(zip(NAMES, totals))


def original_bindings_restored() -> bool:
    """True when no ``uwit`` module or class holds a tracer wrapper."""
    for module in _uwit_modules():
        for value in list(vars(module).values()):
            owners = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            if any(getattr(v, "perfbench_wrapper", False) for v in owners):
                return False
    return True

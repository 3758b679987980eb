"""Serial map over optimizer restarts and census samples.

The per-layer tracer in ``perfbench`` charges the work of the mapped
closures to ``parallel_map``, so it stays a named call.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(x) for x in items]

"""A plain serial map with no caller in the library.

The bound ascents and the census work on batches and no longer map
closures.  The module stays only because the per-layer tracer in
``perfbench`` binds ``parallel_map``; it can go when that binding does.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(x) for x in items]

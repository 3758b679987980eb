"""Probability-vector calculus: normalization, ordering, tensor products and majorization.

The majorization partial order is decided entirely through the partial-sum
characterization: p is majorized by q when every prefix sum of the
descending rearrangement of p is dominated by the corresponding prefix sum
of q.  Vectors of unequal length are zero-padded to the common dimension,
so callers never pad manually.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .errors import NotADistribution

SUM_TOL = 1e-9          # distribution sums and majorization comparisons
CLAMP_SLACK = 1e-12     # numeric negativity tolerated on construction


class ProbVec:
    """A finite discrete probability distribution.

    Entries at least ``-CLAMP_SLACK`` are clamped to zero on construction and
    the vector renormalized; anything worse, or a sum further than ``SUM_TOL``
    from one, raises :class:`NotADistribution`.  Instances are immutable.
    """

    __slots__ = ("_values",)

    def __init__(self, raw: Sequence[float] | np.ndarray):
        try:
            values = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raise NotADistribution(f"probabilities must be numbers, got {raw!r}") from None
        if values.ndim != 1 or values.size == 0:
            raise NotADistribution("expected a nonempty 1-d sequence of probabilities")
        if not np.all(np.isfinite(values)):
            raise NotADistribution("probabilities must be finite")
        if np.any(values < -CLAMP_SLACK):
            raise NotADistribution(
                f"negative entry {values.min():.3e} below the {-CLAMP_SLACK:.0e} slack"
            )
        if abs(values.sum() - 1.0) > SUM_TOL:
            raise NotADistribution(f"entries sum to {values.sum():.12f}, not 1")
        values = np.clip(values, 0.0, None)
        values = values / values.sum()
        values.setflags(write=False)
        self._values = values

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, i: int) -> float:
        return float(self._values[i])

    def __iter__(self):
        return iter(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{x:.6g}" for x in self._values)
        return f"ProbVec({body})"


def make_probvec(raw: Sequence[float] | np.ndarray) -> ProbVec:
    """Validate and normalize ``raw`` into a :class:`ProbVec`."""
    return ProbVec(raw)


def uniform(dim: int) -> ProbVec:
    """The maximally uncertain distribution on ``dim`` outcomes."""
    if dim < 1:
        raise NotADistribution("dimension must be at least 1")
    return ProbVec(np.full(dim, 1.0 / dim))


def point_mass(dim: int, index: int = 0) -> ProbVec:
    """The fully certain distribution concentrated on one outcome."""
    if dim < 1:
        raise NotADistribution("dimension must be at least 1")
    v = np.zeros(dim)
    v[index] = 1.0
    return ProbVec(v)


def sort_desc(p: ProbVec) -> ProbVec:
    """Rearrange ``p`` into non-increasing order (the same multiset of entries)."""
    return ProbVec(np.sort(p.values)[::-1])


def tensor(p: ProbVec, q: ProbVec) -> ProbVec:
    """Tensor product distribution: entry (i, j) equals ``p[i] * q[j]``."""
    return ProbVec(np.outer(p.values, q.values).ravel())


def tensor_all(ps: Sequence[ProbVec]) -> ProbVec:
    """Tensor product of several distributions, left to right."""
    out = ps[0]
    for q in ps[1:]:
        out = tensor(out, q)
    return out


def majorized_by(p: ProbVec, q: ProbVec, tol: float = SUM_TOL) -> bool:
    """Decide the majorization partial order ``p <= q``.

    True iff every partial sum of the descending rearrangement of p is at
    most the corresponding partial sum of q, within ``tol``.  The shorter
    vector is zero-padded to the common dimension first.
    """
    d = max(p.dim, q.dim)
    ps = np.zeros(d)
    qs = np.zeros(d)
    ps[: p.dim] = np.sort(p.values)[::-1]
    qs[: q.dim] = np.sort(q.values)[::-1]
    return bool(np.all(np.cumsum(ps) <= np.cumsum(qs) + tol))


def majorization_excess(p: ProbVec, q: ProbVec) -> float:
    """Largest amount by which a partial sum of p exceeds the matching one of q.

    Positive values witness a failure of ``p <= q``; values below zero leave
    room to spare.  Useful for reporting how badly a bound is violated.
    """
    d = max(p.dim, q.dim)
    ps = np.zeros(d)
    qs = np.zeros(d)
    ps[: p.dim] = np.sort(p.values)[::-1]
    qs[: q.dim] = np.sort(q.values)[::-1]
    return float(np.max(np.cumsum(ps) - np.cumsum(qs)))


def random_relabel(p: ProbVec, weights: Mapping[tuple[int, ...], float]) -> ProbVec:
    """Convex combination of permuted copies of ``p``.

    ``weights`` maps permutations of ``range(p.dim)``, given as index tuples,
    to probabilities.  The mixture of permutation matrices is doubly
    stochastic, so the result is always majorized by ``p``.
    """
    if not weights:
        raise NotADistribution("empty permutation-weight map")
    total = 0.0
    out = np.zeros(p.dim)
    for perm, w in weights.items():
        if w < -CLAMP_SLACK:
            raise NotADistribution(f"negative permutation weight {w}")
        if len(perm) != p.dim or sorted(perm) != list(range(p.dim)):
            raise NotADistribution(f"{perm} is not a permutation of range({p.dim})")
        out[list(perm)] += max(w, 0.0) * p.values
        total += w
    if abs(total - 1.0) > SUM_TOL:
        raise NotADistribution(f"permutation weights sum to {total:.12f}, not 1")
    return ProbVec(out)

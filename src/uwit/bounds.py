"""State-independent uncertainty bounds.

Two bound families are computed here:

* Majorization bound vectors omega for a measurement set, such that the
  tensor product of the measurement statistics of every state is majorized
  by omega.  For two nondegenerate observables of one dimension d each top-k
  entry has the closed form ((1 + s_k)/2)^2 of Puchala, Rudnicki and
  Zyczkowski, with s_k the largest norm of a block of the eigenbasis
  overlaps, exact where the blocks can be enumerated within budget and
  capped by Frobenius norms elsewhere, so every entry is proven; a witness
  state attains it wherever a 1 x k or k x 1 block reaches s_k, which is
  every k when d <= 3 (``omega_two_bases``; ``omega_two_dichotomic`` is its
  d = 2 case).  For more measurements the top-1 entry is the m-th power of
  the uniform-prior fine-grained bound wherever a witness state attains it
  (``_top1_closed_form``), no ascent runs where it and the top-2 cap show
  none could change omega, and every other top-k entry is obtained by
  maximizing the sum of the k largest tensor statistics over pure states
  with multi-restart projected gradient ascent.  The restarts of every k
  advance together in one loop, as one (K R, d) stack of kets whose rows
  carry their own k and statistics: each iteration builds every row's
  gradient operator at once, takes the eigenvector jumps with one batched
  ``eigh`` and runs one batched line search over the rows whose jump did
  not improve, if any.  Each row stops once an iteration gains less than
  ``STEP_TOL``, or once it cannot reach the best value of any restart of
  its k so far even if it kept its last gain for every remaining
  iteration.  One batched kernel (``tensor_stats``, one Born product
  against the ``flat_effects`` matrix of every measurement, and
  ``topk_sums``) evaluates those statistics for the ascent and for the
  brute-force maximizers in ``oracle``.

* Fine-grained bounds B for one outcome per measurement under a prior over
  settings.  Over all states this is exactly the top eigenvalue of the
  prior-weighted effect sum; over product states it is the Hilbert-Schmidt
  bound where a witness attains it, else alternating eigenvector iterations
  with all restarts in one batch.  One kernel, ``_string_eigenpairs``,
  solves the effect sums of outcome strings, weighted by the priors or 1.

Closed-form entries are rounded outward by half of ``CLOSED_FORM_MARGIN``.
Numeric bounds are inflated by a small slack, ``NUMERIC_SLACK``, before
use; an ascent can still end below the true maximum, so that slack does
not prove them.

A bound depends on the measurement set alone, so the five seed-free spectral
kernels (``_string_eigenpairs``, ``_top1_closed_form``, ``_top2_cap``,
``_overlap_norms`` and ``_product_closed_form``) keep their results in one
least-recently-used memo, and a repeated request skips their eigensolves.
Its key is a SHA-256 digest of the kernel's name, ``_BLOCK_ENTRIES`` (the
one budget they read) and its arguments: the length-prefixed dtype, shape
and bytes of each array, and a measurement's ``fingerprint_bytes``.  It is
not a provenance fingerprint.  Cached arrays are read-only; the memo
holds at most ``_MEMO_ENTRIES`` results and ``_MEMO_BYTES`` bytes of their
arrays, and drops the least recently used first.  The seeded ascents
(``_max_topk``, ``_alternate``) are never memoized.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    Degenerate,
    DimensionMismatch,
    NoConvergence,
)
from .probvec import ProbVec, tensor_rows
from .quantum import Observable, Povm, _frozen, _outcome_index, _traces, random_ket

NUMERIC_SLACK = 1e-6     # added to optimized bounds before certification
STEP_TOL = 1e-10         # ascent terminates when an iteration gains less than this
ALTERNATE_MAXITER = 200  # iterations of the product-state alternation before NoConvergence
# A closed-form entry lies between its witness state's value and that value
# plus this margin (32 ulps of 1); the closed form and the witness value
# differ by at most 11 ulps in random pairs of bases up to d = 64.
CLOSED_FORM_MARGIN = 2.0**-47
ANALYTIC_TWO_DICHOTOMIC = "analytic_two_dichotomic"
ANALYTIC_TWO_BASES = "analytic_two_bases"
NUMERIC_TOPK = "numeric_topk"
ANALYTIC_TOP1 = "analytic_top1"
EIGEN_EXACT = "eigen_exact"
ALTERNATING_NUMERIC = "alternating_numeric"
ANALYTIC_PRODUCT = "analytic_product"


def _measurement_hash(povms: Sequence[Povm]):
    h = hashlib.sha256()
    for p in povms:
        h.update(p.fingerprint_bytes)
    return h


def _extended_digest(h, extra: str) -> str:
    h = h.copy()
    h.update(extra.encode())
    return h.hexdigest()


def fingerprint_povms(povms: Sequence[Povm], extra: str = "") -> str:
    """Stable hash identifying a measurement set (plus optional context)."""
    return _extended_digest(_measurement_hash(povms), extra)


def outcome_string_fingerprints(povms: Sequence[Povm], strings: Sequence[tuple[str, ...]],
                                priors: ProbVec) -> dict[tuple[str, ...], str]:
    """``fingerprint_povms(povms, priors_hex + repr(tuple(s)))`` for each outcome string ``s``.

    ``priors_hex`` is the exact prior values in hex, as a bound holds only
    under its own priors; the repr quotes each label, so no two strings
    share a key.  The measurements are hashed once, then extended.
    """
    base = _measurement_hash(povms)
    key = priors.values.tobytes().hex()
    return {labels: _extended_digest(base, key + repr(tuple(labels))) for labels in strings}


def _product_fingerprint(meas_a: Sequence[Povm], meas_b: Sequence[Povm], events,
                         priors: ProbVec) -> str:
    """The key of a product-state bound: Bob's side, then Alice's digest, the priors and events.

    Alice's side enters as its own fixed-length digest, so moving a
    measurement from one party to the other changes the key; the priors
    are their exact values in hex.
    """
    extra = _measurement_hash(meas_a).hexdigest() + priors.values.tobytes().hex() + repr(events)
    return fingerprint_povms(meas_b, extra)


PROVEN_METHODS = frozenset({ANALYTIC_TWO_DICHOTOMIC, ANALYTIC_TWO_BASES, ANALYTIC_TOP1,
                            EIGEN_EXACT, ANALYTIC_PRODUCT})


class _Certifiable:
    """The one certification rule: a proven method, or a numeric bound inflated by a slack."""

    @property
    def certified(self) -> bool:
        return self.method in PROVEN_METHODS or self.certified_slack > 0.0


@dataclass(frozen=True)
class BoundVector(_Certifiable):
    """Majorization bound omega for a measurement set."""

    omega: ProbVec
    method: str
    measurement_fingerprint: str
    certified_slack: float


@dataclass(frozen=True, eq=False)
class FineGrainedBound(_Certifiable):
    """Largest prior-weighted hit probability, keyed by measurements, outcomes and exact priors."""

    value: float
    operator_norm_witness: np.ndarray
    measurement_fingerprint: str
    method: str
    certified_slack: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0 + 1e-9:
            raise BadParameter(f"bound value {self.value} outside (0, 1]")


# the memo of the seed-free kernels holds at most this many results (a set
# takes one to three), with at most this many bytes of arrays among them: the
# 16 MiB of one _BLOCK_ENTRIES budget of complex entries
_MEMO_ENTRIES = 256
_MEMO_BYTES = 2**24


class _Memo(OrderedDict):
    """Kernel results by input digest, least recently used first, and the bytes of their arrays."""

    nbytes = 0

    def store(self, key: bytes, result, nbytes: int) -> None:
        """Keep ``result`` unless its arrays alone, ``nbytes`` of them, exceed the bound."""
        if nbytes > _MEMO_BYTES:
            return
        self[key] = result, nbytes
        self.nbytes += nbytes
        while len(self) > _MEMO_ENTRIES or self.nbytes > _MEMO_BYTES:
            self.nbytes -= self.popitem(last=False)[1][1]


_MEMO = _Memo()


def _digest(*args) -> bytes:
    """SHA-256 of kernel arguments, each part prefixed by its length.

    An array adds its dtype and shape, then its bytes; a measurement its
    ``fingerprint_bytes``; a list or tuple its length, then each item;
    anything else its repr.
    """
    parts = []

    def add(x) -> None:
        if isinstance(x, Povm):
            parts.append(x.fingerprint_bytes)
        elif isinstance(x, np.ndarray):
            parts.extend((f"{x.dtype.str}{x.shape}".encode(), x.tobytes()))
        elif isinstance(x, (list, tuple)):
            parts.append(f"[{len(x)}]".encode())
            for item in x:
                add(item)
        else:
            parts.append(repr(x).encode())

    add(args)
    return hashlib.sha256(b"".join(len(p).to_bytes(8, "little") + p for p in parts)).digest()


def _memoized(kernel):
    """Keep ``kernel``'s results in ``_MEMO``, keyed by its name, ``_BLOCK_ENTRIES`` and arguments.

    Only for kernels that read nothing else and draw no random numbers, so a
    hit returns what a miss computes.  Every array of a result, hit or miss,
    is read-only.
    """
    @functools.wraps(kernel)
    def memoized(*args):
        key = _digest(kernel.__name__, _BLOCK_ENTRIES, *args)
        if key in _MEMO:
            _MEMO.move_to_end(key)
            return _MEMO[key][0]
        result = kernel(*args)
        # a result is a scalar, None or a tuple of scalars and arrays that
        # the kernel has just made, so no one else can write to them
        parts = result if isinstance(result, tuple) else ()
        arrays = [x for x in parts if isinstance(x, np.ndarray)]
        for x in arrays:
            x.setflags(write=False)
        _MEMO.store(key, result, sum(x.nbytes for x in arrays))
        return result

    return memoized


def _max_overlap(x: Observable, y: Observable) -> float:
    """Largest squared eigenvector overlap max_kj tr(P_k Q_j), clipped at zero."""
    if not x.nondegenerate or not y.nondegenerate:
        raise Degenerate("observables must have nondegenerate spectra")
    return max(0.0, float(_traces(x.effects, y.effects).max()))


def flat_effects(effect_stacks: Sequence[np.ndarray]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The effects of (n_i, d, d) stacks as the rows of one (sum n_i, d^2) matrix, and each n_i."""
    d = effect_stacks[0].shape[1]
    return np.concatenate(effect_stacks).reshape(-1, d * d), tuple(len(e) for e in effect_stacks)


def tensor_stats(kets: np.ndarray, effects: np.ndarray,
                 sizes: Sequence[int]) -> tuple[list[np.ndarray], np.ndarray]:
    """Born statistics of a stack of pure states and their tensor product.

    ``kets`` is an (N, d) stack and (``effects``, ``sizes``) the measurements'
    :func:`flat_effects`.  Returns the (N, n_i) statistics of each measurement,
    clipped at zero, and their (N, prod n_i) tensor product in row-major order.
    """
    n, d = kets.shape
    # <psi|E|psi> = sum_ab conj(psi_a) psi_b E_ab: one matmul for every measurement
    outer = (kets.conj()[:, :, None] * kets[:, None, :]).reshape(n, d * d)
    flat = np.clip((outer @ effects.T).real, 0.0, None)
    probs = np.split(flat, np.cumsum(sizes)[:-1], axis=1)
    return probs, tensor_rows(probs)


def topk_sums(t: np.ndarray, k) -> np.ndarray:
    """Row-wise sums of the k >= 1 largest entries of an (N, m) array.

    ``k`` is one count for every row or an (N,) array of counts, one per row.
    """
    m = t.shape[1]
    top = np.arange(m) >= m - np.reshape(k, (-1, 1))
    return np.where(top, np.sort(t, axis=1), 0.0).sum(axis=1)


def _topk_gradient_ops(probs: Sequence[np.ndarray], t: np.ndarray, ks: np.ndarray,
                       effects: np.ndarray) -> np.ndarray:
    """Active-set gradient operators G with d f / d psi* = G psi, one per ket.

    ``probs`` and ``t`` are the kets' ``tensor_stats``, ``ks`` their (N,)
    counts and ``effects`` the measurements' :func:`flat_effects` matrix.
    With S the k largest tensor-statistic entries of a ket, G is the sum
    over measurements i and outcomes a of w_i[a] E_{i,a}, where w_i[a] adds
    up, over the entries of S whose index at position i is a, the product
    of the other measurements' statistics.  Returns an (N, d, d) stack.
    """
    n, m = t.shape
    d = math.isqrt(effects.shape[1])
    mask = np.empty(t.shape)
    np.put_along_axis(mask, np.argsort(t, axis=1), np.arange(m) >= m - ks[:, None], axis=1)
    mask = mask.reshape((n,) + tuple(p.shape[1] for p in probs))
    axes = list(range(len(probs) + 1))
    w = []
    for i in range(len(probs)):
        others = [x for j, p in enumerate(probs) if j != i for x in (p, [0, j + 1])]
        w.append(np.einsum(mask, axes, *others, [0, i + 1]))
    return (np.concatenate(w, axis=1) @ effects).reshape(n, d, d)


# line-search step lengths 1, 1/2, ... down to the last one above 1e-12
_STEPS = 0.5 ** np.arange(40)
# restarts are advanced in batches whose line-search stack of
# (rows, steps, tensor entries) stays below this many entries, or holds a
# single row when one row alone exceeds it
_BATCH_ENTRIES = 2**22


def _ascend_topk(kets: np.ndarray, ks: np.ndarray, effect_stacks: Sequence[np.ndarray],
                 maxiter: int, best: np.ndarray | None = None) -> np.ndarray:
    """Top-k ascent from every row of an (R, d) stack of start kets at once.

    Row r maximizes the top-``ks[r]`` sum and stops once an iteration gains
    less than ``STEP_TOL``.  A row is also dropped once it cannot reach the
    best value of its k seen so far: after iteration t, when
    f + (maxiter - t - 1) * gain falls below the largest value of any row of
    that k, stopped ones included, and of ``best[k]`` passed in.  The best
    row of each k gains at least zero and is never dropped.  Each row's
    statistics are carried between iterations.  Returns the (R,) array of
    final top-k sums.
    """
    effects, sizes = flat_effects(effect_stacks)

    def stats(stack: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
        # what each row carries: its top-k sum, tensor and measurement statistics
        probs, t = tensor_stats(stack, effects, sizes)
        return (topk_sums(t, k), t, *probs)

    def accept(rows: np.ndarray, new_kets: np.ndarray, new: tuple, sel: np.ndarray) -> None:
        psi[rows] = new_kets[sel]
        for old, arr in zip(carried, new):
            old[rows] = arr[sel]

    best = np.full(ks.max() + 1, -np.inf) if best is None else best.copy()
    psi = kets.copy()
    carried = stats(psi, ks)
    f, t, *probs = carried
    active = np.arange(len(psi))
    for it in range(maxiter):
        if active.size == 0:
            break
        cur, f_cur, k = psi[active], f[active], ks[active]
        ops = _topk_gradient_ops([p[active] for p in probs], t[active], k, effects)
        # eigenvector jump of the active-set operator; exact whenever the
        # active set stays put, and it sidesteps the slow crawl a plain
        # gradient step suffers near degenerate optima
        jumps = np.linalg.eigh(ops)[1][:, :, -1]
        new = stats(jumps, k)
        jumped = new[0] > f_cur + 1e-15
        accept(active[jumped], jumps, new, jumped)
        going = jumped & (new[0] - f_cur >= STEP_TOL)
        # rows whose jump did not improve take a projected gradient step
        rows = np.flatnonzero(~jumped)
        if rows.size:
            g = np.einsum("rij,rj->ri", ops[rows], cur[rows])
            r = g - np.sum(cur[rows].conj() * g, axis=1, keepdims=True) * cur[rows]
            moving = np.linalg.norm(r, axis=1) >= 1e-13
            rows, r = rows[moving], r[moving]
        if rows.size:
            # backtracking line search, all steps of all rows in one batch:
            # each row takes its longest step that improves
            cands = cur[rows, None, :] + _STEPS[None, :, None] * r[:, None, :]
            cands = (cands / np.linalg.norm(cands, axis=2, keepdims=True)).reshape(-1, cur.shape[1])
            new = stats(cands, np.repeat(k[rows], len(_STEPS)))
            better = new[0].reshape(len(rows), len(_STEPS)) > f_cur[rows, None] + 1e-15
            found = better.any(axis=1)
            rows, picked = rows[found], np.flatnonzero(found) * len(_STEPS)
            accept(active[rows], cands, new, picked + better[found].argmax(axis=1))
            going[rows] = f[active[rows]] - f_cur[rows] >= STEP_TOL
        # drop rows that stay below their k's best value even if they kept
        # this iteration's gain for every remaining iteration
        f_new = f[active]
        np.maximum.at(best, k, f_new)
        going &= f_new + (maxiter - it - 1) * (f_new - f_cur) >= best[k]
        active = active[going]
    return f


def _max_topk(povms: Sequence[Povm], seeds: dict[int, np.random.SeedSequence], restarts: int,
              maxiter: int = 400) -> dict[int, float]:
    """Maximize the top-k sum of the tensor statistics over pure states, for each k of ``seeds``.

    Each k draws its ``restarts`` start kets from ``seeds[k].spawn(restarts)``.
    The restarts of every k advance as one stack, in batches of at most
    ``_BATCH_ENTRIES`` line-search entries, and each batch starts from the
    best value of each k in the batches before it, so its rows are dropped
    once they cannot reach that value.
    """
    effect_stacks = [p.effects for p in povms]
    dim = povms[0].dim
    kets = np.array([random_ket(dim, np.random.default_rng(child))
                     for seq in seeds.values() for child in seq.spawn(restarts)])
    ks = np.repeat(list(seeds), restarts)
    entries = len(_STEPS) * int(np.prod([p.n_outcomes for p in povms]))
    rows = max(1, _BATCH_ENTRIES // entries)
    best = np.full(max(seeds, default=0) + 1, -np.inf)
    for s in range(0, len(kets), rows):
        np.maximum.at(best, ks[s:s + rows],
                      _ascend_topk(kets[s:s + rows], ks[s:s + rows], effect_stacks, maxiter, best))
    return {k: float(best[k]) for k in seeds}


def _concave_majorant_increments(cumulative: Sequence[float]) -> list[float]:
    """Increments of the least concave majorant of (k, cumulative[k-1]) with (0, 0) prepended.

    The majorant dominates every input partial sum, so replacing the raw
    cumulative maxima with it can only loosen the bound, never tighten it.
    """
    pts = [(0.0, 0.0)] + [(float(i + 1), float(c)) for i, c in enumerate(cumulative)]
    hull: list[tuple[float, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (pt[0] - x1) <= (pt[1] - y1) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    # a k between two hull vertices takes the value of the chord joining
    # them; the vertices keep their exact values
    levels = [0.0]
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slope = (y1 - y0) / (x1 - x0)
        levels += [slope * (x - x0) + y0 for x in range(int(x0) + 1, int(x1))] + [y1]
    return [b - a for a, b in zip(levels, levels[1:])]


def _omega_from_cumulative(cumulative: Sequence[float], tensor_size: int) -> ProbVec:
    """Bound vector of ``tensor_size`` entries from the top-k bounds for k = 1 .. n - 1.

    The top-n entry is pinned to 1, the entries are capped at 1 and made
    nondecreasing, and a least concave majorant repairs the increments.
    """
    levels = list(itertools.accumulate((min(float(c), 1.0) for c in cumulative), max))
    levels.append(1.0)
    omega = np.zeros(tensor_size)
    omega[: len(levels)] = _concave_majorant_increments(levels)
    return ProbVec(omega)


@_memoized
def _string_eigenpairs(stacks: Sequence[np.ndarray], weights: Sequence[float],
                       strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs of sum_i weights[i] E_{i, s_i}, one for each row s of ``strings``.

    ``stacks`` holds the (n_i, d, d) effects and ``strings`` is an (S, m)
    array of outcome indices; one batched ``eigh`` per ``_BLOCK_ENTRIES``
    operator entries.
    """
    d = stacks[0].shape[1]
    step = max(1, _BLOCK_ENTRIES // (d * d))
    values, vectors = [], []
    for s in range(0, len(strings), step):
        chunk = strings[s:s + step]
        ops = sum(weight * e[chunk[:, i]] for i, (weight, e) in enumerate(zip(weights, stacks)))
        w, v = np.linalg.eigh((ops + ops.conj().transpose(0, 2, 1)) / 2.0)
        values.append(w[:, -1])
        vectors.append(v[:, :, -1])
    return np.concatenate(values), np.concatenate(vectors)


@_memoized
def _top1_closed_form(effects: np.ndarray, sizes: Sequence[int]) -> tuple[float, bool] | None:
    """The top-1 cap from the uniform fine-grained bound, and whether a witness state attains it.

    For m measurements and every state, AM-GM bounds the entry of outcome
    string s by (lambda_max(O_s)/m)^m, O_s = sum_i E_{i,s_i}.  Returns the
    largest such value plus half of ``CLOSED_FORM_MARGIN``, a proven cap,
    and whether the top eigenvector of the best O_s reaches it within the
    margin; None where the strings times d^2 exceed ``_BLOCK_ENTRIES``.
    """
    m, d = len(sizes), math.isqrt(effects.shape[1])
    if math.prod(sizes) * d * d > _BLOCK_ENTRIES:
        return None
    stacks = np.split(effects.reshape(-1, d, d), np.cumsum(sizes)[:-1])
    strings = np.indices(sizes).reshape(m, -1).T
    # the undecorated kernel: this function's own memo entry covers it
    values, vectors = _string_eigenpairs.__wrapped__(stacks, np.ones(m), strings)
    best = int(values.argmax())
    entry = float((values[best] / m) ** m) + CLOSED_FORM_MARGIN / 2.0
    witness = tensor_stats(vectors[best][None], effects, sizes)[1].max()
    return entry, bool(witness >= entry - CLOSED_FORM_MARGIN)


@_memoized
def _top2_cap(effects: np.ndarray, sizes: Sequence[int]) -> float | None:
    """A proven cap on every state's top-2 sum, or None where it exceeds ``_BLOCK_ENTRIES``.

    The top two entries of a product tensor differ at one position j only,
    so by AM-GM their sum prod_{i != j} p_{i,s_i} (p_{j,s_j} + p_{j,a}) is at
    most (lambda_max(O_s + E_{j,a})/m)^m; one batched eigensolve finds it.
    """
    m, d = len(sizes), math.isqrt(effects.shape[1])
    if math.prod(sizes) * sum(n - 1 for n in sizes) // 2 * d * d > _BLOCK_ENTRIES:
        return None
    stacks = np.split(effects.reshape(-1, d, d), np.cumsum(sizes)[:-1])
    strings = np.indices(sizes).reshape(m, -1).T
    offsets, rows = np.cumsum((0, *sizes)), []
    for j, n in enumerate(sizes):
        # s with E_{j,a}, a > s_j, from an (m + 1)-th stack of every effect
        string, a = np.nonzero(strings[:, j, None] < np.arange(n))
        rows.append(np.column_stack((strings[string], offsets[j] + a)))
    values = _string_eigenpairs.__wrapped__(
        [*stacks, effects.reshape(-1, d, d)], np.ones(m + 1), np.concatenate(rows))[0]
    return float((values.max() / m) ** m) + CLOSED_FORM_MARGIN / 2.0


def omega_numeric(meas: Sequence[Povm], restarts: int = 64, seed: int = 0) -> BoundVector:
    """Majorization bound via the top-1 closed form, proven caps and top-k maximization.

    For k below the per-measurement outcome count, the cumulative entry is
    :func:`_top1_closed_form` at k = 1 where a witness attains it, else the
    maximized sum of the k largest tensor-statistic entries plus a small
    slack, each k with its own restart seeds; the final cumulative entry is
    pinned to 1.  A least concave majorant repairs numeric non-monotone
    increments.  No ascent runs where the top-1 and :func:`_top2_cap` caps
    show none could change omega; where no ascent decided it (e.g. x/y/z,
    mub:3:3, 3:4, 5:3, 5:4) omega is proven: ``ANALYTIC_TOP1``, slack 0.
    """
    if restarts < 1:
        raise BadParameter("at least one restart is required")
    if len(meas) == 0:
        raise BadParameter("at least one measurement is required")
    dim = meas[0].dim
    if any(p.dim != dim for p in meas):
        raise DimensionMismatch("all measurements must act on one common dimension")
    tensor_size = math.prod(p.n_outcomes for p in meas)
    if tensor_size > 10**6:
        raise BadParameter(f"tensor distribution with {tensor_size} entries is too large")
    d_out = max(p.n_outcomes for p in meas)
    ks = list(range(1, d_out))
    effects, sizes = flat_effects([p.effects for p in meas])
    top1 = _top1_closed_form(effects, sizes) if ks else None
    cumulative = {1: top1[0]} if top1 is not None and top1[1] else {}
    ascents = [k for k in ks if k not in cumulative]
    top2 = _top2_cap(effects, sizes) if top1 is not None and ascents else None
    omega = None
    if top2 is not None:
        # each ascent ends in [0, cap + slack] (each entry past the top two is at most
        # half their sum); where both ends give one omega, the monotone majorant does too
        caps = {k: top1[0] if k == 1 else min(1.0, k * top2 / 2.0) for k in ks}
        high, low = (_omega_from_cumulative([cumulative.get(k, end * (caps[k] + NUMERIC_SLACK))
                                             for k in ks], tensor_size) for end in (1.0, 0.0))
        omega = low if np.array_equal(high.values, low.values) else None
    proven = top1 is not None and (omega is not None or not ascents)
    if omega is None:
        if ascents:
            seeds = np.random.SeedSequence(seed).spawn(d_out - 1)
            maxima = _max_topk(meas, {k: seeds[k - 1] for k in ascents}, restarts)
            cumulative |= {k: value + NUMERIC_SLACK for k, value in maxima.items()}
        omega = _omega_from_cumulative(list(cumulative.values()), tensor_size)
    return BoundVector(
        omega=omega,
        method=ANALYTIC_TOP1 if proven else NUMERIC_TOPK,
        measurement_fingerprint=fingerprint_povms(meas),
        certified_slack=0.0 if proven else NUMERIC_SLACK,
    )


def _unit_kets(effects: np.ndarray) -> np.ndarray:
    """Unit kets spanning an (n, d, d) stack of rank-one projectors, as rows.

    Each is its projector's largest column, normalized.
    """
    diag = effects.diagonal(axis1=1, axis2=2).real
    rows = np.arange(len(effects))
    m = diag.argmax(axis=1)
    return effects[rows, :, m] / np.sqrt(diag[rows, m])[:, None]


# the blocks of one k are enumerated, and the top-1 closed form builds its
# outcome-string operators, only while they hold at most this many entries:
# 16 MiB of complex blocks, whose SVDs take about half a second
_BLOCK_ENTRIES = 2**20


def _top_sums(weight: np.ndarray) -> np.ndarray:
    """[r - 1, c - 1]: the sum of the c largest entries of a row, over the r best rows."""
    rows = np.sort(weight, axis=1)[:, ::-1].cumsum(axis=1)
    return np.sort(rows, axis=0)[::-1].cumsum(axis=0)


def _block_norms(u: np.ndarray, k: int) -> float:
    """Largest spectral norm of an r x c block of ``u`` with r + c = k + 1 and r, c >= 2.

    Returns -inf when no such block exists.  Where enumerating the blocks
    would exceed ``_BLOCK_ENTRIES`` entries it returns a proven cap: a
    block's norm is at most 1 (``u`` is unitary) and at most its Frobenius
    norm, whose square is at most the :func:`_top_sums` of |u|^2 and of its
    transpose.
    """
    d = len(u)
    shapes = [(r, k + 1 - r) for r in range(2, k) if k + 1 - r <= d and r <= d]
    if sum(math.comb(d, r) * math.comb(d, c) * r * c for r, c in shapes) > _BLOCK_ENTRIES:
        weight = np.abs(u) ** 2
        by_row, by_col = _top_sums(weight), _top_sums(weight.T)
        return math.sqrt(max(min(1.0, by_row[r - 1, c - 1], by_col[c - 1, r - 1])
                             for r, c in shapes))
    best = -np.inf
    for r, c in shapes:
        rows = np.array(list(itertools.combinations(range(d), r)))
        cols = np.array(list(itertools.combinations(range(d), c)))
        blocks = u[rows[:, None, :, None], cols[None, :, None, :]]
        if min(r, c) > 2:
            norm = np.linalg.svd(blocks, compute_uv=False)[..., 0].max()
        else:
            # a block with a side of 2 has the norm sqrt(lambda_max) of its
            # 2 x 2 Gram matrix [[a, z], [z*, b]] over that side
            two = blocks if r == 2 else blocks.swapaxes(-1, -2)
            a, b = (np.abs(two) ** 2).sum(axis=-1).transpose(2, 0, 1)
            z = np.abs((two[..., 0, :] * two[..., 1, :].conj()).sum(axis=-1))
            norm = np.sqrt((a + b) / 2.0 + np.hypot((a - b) / 2.0, z)).max()
        best = max(best, float(norm))
    return best


@_memoized
def _overlap_norms(x: Observable, y: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Largest norms of the blocks of the eigenbasis overlaps, for k = 1 .. d - 1.

    With U_ij = <a_i|b_j>, returns s_line, the largest norm of a 1 x k or
    k x 1 block, and s_rest, that of an r x c block with r + c = k + 1 and
    r, c >= 2, or a proven cap on it where those blocks are too many to
    enumerate (see :func:`_block_norms`).  Every state's top-k
    tensor-statistic sum is at most ((1 + max(s_line, s_rest))/2)^2
    (Puchala, Rudnicki and Zyczkowski, J. Phys. A 46, 272002 (2013)).  A
    line block is attained: for a row i of U and the k columns C of its
    largest entries, the block has norm s = ||P_C a_i||, and the bisector of
    a_i and P_C a_i / s has |<a_i|psi>|^2 = ||P_C psi||^2 = (1 + s)/2, so
    the k entries of its tensor statistics at (i, C) sum to ((1 + s)/2)^2.
    """
    d = x.dim
    kets = _unit_kets(np.concatenate([x.effects, y.effects]))
    u = kets[:d].conj() @ kets[d:].T
    weight = np.abs(u) ** 2
    # a line block's squared norm is the sum of its entries of |U|^2; the
    # best 1 x k (k x 1) block takes the k largest of a row (column)
    lines = np.sort(np.concatenate([weight, weight.T]), axis=1)[:, :0:-1]
    s_line = np.sqrt(lines.cumsum(axis=1).max(axis=0))
    return s_line, np.array([_block_norms(u, k) for k in range(1, d)])


def omega_two_bases(x: Observable, y: Observable) -> BoundVector:
    """Majorization bound for two nondegenerate observables of one dimension d.

    Each k < d takes the closed form of :func:`_overlap_norms` plus half of
    ``CLOSED_FORM_MARGIN``, a proven bound above every state's value.
    Where a line block reaches s_k, as it does for every k when d <= 3,
    that puts the entry between the value of its witness state and that
    value plus the margin.
    """
    if not all(isinstance(m, Observable) and m.nondegenerate for m in (x, y)):
        raise Degenerate("observables must have nondegenerate spectra")
    if x.dim != y.dim:
        raise DimensionMismatch("observables must share one dimension")
    d = x.dim
    s_line, s_rest = _overlap_norms(x, y)
    cumulative = (1.0 + np.maximum(s_line, s_rest)) ** 2 / 4.0 + CLOSED_FORM_MARGIN / 2.0
    return BoundVector(
        omega=_omega_from_cumulative(cumulative, d * d),
        method=ANALYTIC_TWO_DICHOTOMIC if d == 2 else ANALYTIC_TWO_BASES,
        measurement_fingerprint=fingerprint_povms([x, y]),
        certified_slack=0.0,
    )


def omega_two_dichotomic(x: Observable, y: Observable) -> BoundVector:
    """Closed-form majorization bound for two nondegenerate qubit observables.

    The d = 2 case of :func:`omega_two_bases`: with c the largest squared
    eigenvector overlap, omega is ((1 + sqrt c)^2 / 4, 1 - (1 + sqrt c)^2 / 4,
    0, 0), the first entry raised by half of ``CLOSED_FORM_MARGIN``.
    """
    if x.dim != 2 or y.dim != 2:
        raise DimensionMismatch("closed form applies to qubit observables only")
    return omega_two_bases(x, y)


def maassen_uffink(x: Observable, y: Observable) -> float:
    """Entropic bound -log2 of the largest squared eigenvector overlap, in bits."""
    if x.dim != y.dim:
        raise DimensionMismatch("observables must share one dimension")
    return float(-np.log2(_max_overlap(x, y)))


def _fine_grained_bounds(meas: Sequence[Povm], strings: Sequence[tuple[str, ...]],
                         priors: ProbVec) -> dict[tuple[str, ...], FineGrainedBound]:
    if any(len(labels) != len(meas) for labels in strings):
        raise DimensionMismatch("one outcome per measurement is required")
    if priors.dim != len(meas):
        raise DimensionMismatch("one prior per measurement is required")
    dim = meas[0].dim
    if any(p.dim != dim for p in meas):
        raise DimensionMismatch("all measurements must act on one common dimension")
    rows = np.array([[_outcome_index(p, label) for p, label in zip(meas, labels)]
                     for labels in strings])
    values, vectors = _string_eigenpairs([p.effects for p in meas], priors.values, rows)
    fingerprints = outcome_string_fingerprints(meas, strings, priors)
    return {
        labels: FineGrainedBound(
            value=float(value),
            operator_norm_witness=witness,
            measurement_fingerprint=fingerprints[labels],
            method=EIGEN_EXACT,
            certified_slack=0.0,
        )
        for labels, value, witness in zip(strings, values, vectors)
    }


def fine_grained_bound(meas: Sequence[Povm], outcome_string: Sequence[str],
                       priors: ProbVec) -> FineGrainedBound:
    """Exact fine-grained bound: top eigenvalue of the prior-weighted effect sum."""
    labels = tuple(str(s) for s in outcome_string)
    return _fine_grained_bounds(meas, [labels], priors)[labels]


def fine_grained_bound_map(meas: Sequence[Povm],
                           priors: ProbVec) -> dict[tuple[str, ...], FineGrainedBound]:
    """Exact fine-grained bounds for every outcome string of ``meas``."""
    return _fine_grained_bounds(
        meas, list(itertools.product(*(p.outcome_labels for p in meas))), priors
    )


def setting_pairs(n_a: int, n_b: int) -> list[tuple[int, int]]:
    """Row-major enumeration of measurement setting pairs (i, j)."""
    return [(i, j) for i in range(n_a) for j in range(n_b)]


def _pair_events(meas_a: Sequence[Povm], meas_b: Sequence[Povm],
                 outcomes) -> list[list[tuple[str, str]]]:
    """Normalize an outcome specification into one event per setting pair.

    ``outcomes`` is either a pair (a_string, b_string) assigning one outcome
    label per measurement on each side (each pair (i, j) then carries the
    singleton event {(a_i, b_j)}), or an explicit per-pair sequence of events,
    each event a collection of (a_label, b_label) pairs.
    """
    pairs = setting_pairs(len(meas_a), len(meas_b))
    if (
        isinstance(outcomes, tuple)
        and len(outcomes) == 2
        and len(outcomes[0]) == len(meas_a)
        and all(isinstance(s, str) for s in outcomes[0])
    ):
        a_string, b_string = outcomes
        if len(b_string) != len(meas_b):
            raise DimensionMismatch("one outcome per measurement is required on each side")
        return [[(str(a_string[i]), str(b_string[j]))] for i, j in pairs]
    events = [[tuple(str(label) for label in pair) for pair in event] for event in outcomes]
    if len(events) != len(pairs) or any(len(pair) != 2 for event in events for pair in event):
        raise DimensionMismatch(
            f"expected {len(pairs)} per-pair events (row-major) of (a, b) label pairs"
        )
    return events


def _fine_grained_terms(meas_a: Sequence[Povm], meas_b: Sequence[Povm], events,
                        priors: ProbVec):
    """(weight, i, j, k, l) per outcome pair (k, l) of the events of each setting pair (i, j).

    ``events`` come from :func:`_pair_events`.  Every pair's labels are
    resolved, so an unknown one raises even where the weight is zero; pairs
    of zero weight then add no term.
    """
    pairs = setting_pairs(len(meas_a), len(meas_b))
    terms = [(weight, i, j, _outcome_index(meas_a[i], a), _outcome_index(meas_b[j], b))
             for weight, (i, j), event in zip(priors.values, pairs, events) for a, b in event]
    return [term for term in terms if term[0] != 0.0]


def matched_outcome_events(povm_a: Povm, povm_b: Povm) -> list[tuple[str, str]]:
    """The equal-label correlation event for one setting pair."""
    if povm_a.n_outcomes != povm_b.n_outcomes:
        raise DimensionMismatch("correlation events need equal outcome counts")
    return [(a, b) for a, b in zip(povm_a.outcome_labels, povm_b.outcome_labels)]


def _expectations(kets: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """(R, T) expectations <psi|E_t|psi> of (R, d) kets in the (T, d^2) flat effects."""
    return tensor_stats(kets, effects, [len(effects)])[1]


def _top_eigenvectors(coeffs: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Top eigenvectors of sum_t coeffs[r, t] E_t for every row r of the (R, T) coefficients."""
    d = math.isqrt(effects.shape[1])
    ops = (coeffs @ effects).reshape(-1, d, d)
    return np.linalg.eigh((ops + ops.conj().transpose(0, 2, 1)) / 2.0)[1][:, :, -1]


def _alternate(u: np.ndarray, v: np.ndarray, weights: np.ndarray, effects_a: np.ndarray,
               effects_b: np.ndarray, maxiter: int = ALTERNATE_MAXITER,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating eigenvector ascent from every row of the (R, da) and (R, db) start kets.

    The objective is the sum over terms t of weights[t] <u|A_t|u> <v|B_t|v>
    for the (T, d, d) or flat term effects A and B.  Each half-step fixes one
    side and moves the other to the top eigenvector of its weighted sum.
    Rows do not interact; each stops once an iteration gains less than
    ``STEP_TOL``.  Returns the (R,) values and the final kets.
    """
    effects_a, effects_b = (e.reshape(len(e), -1) for e in (effects_a, effects_b))
    u, v = u.copy(), v.copy()
    exp_b = _expectations(v, effects_b)
    f = (weights * _expectations(u, effects_a) * exp_b).sum(axis=1)
    active = np.arange(len(u))
    for _ in range(maxiter):
        u[active] = _top_eigenvectors(weights * exp_b[active], effects_a)
        exp_a = _expectations(u[active], effects_a)
        v[active] = _top_eigenvectors(weights * exp_a, effects_b)
        exp_b[active] = _expectations(v[active], effects_b)
        f_new = (weights * exp_a * exp_b[active]).sum(axis=1)
        going = f_new - f[active] >= STEP_TOL
        f[active] = f_new
        active = active[going]
        if active.size == 0:
            return f, u, v
    raise NoConvergence(f"alternating ascent still improving after {maxiter} iterations")


@_memoized
def _product_closed_form(weights: np.ndarray, effects_a: np.ndarray,
                         effects_b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The Hilbert-Schmidt product bound and witness kets for (T, d^2) flat term effects.

    Cauchy-Schwarz gives sum_t w_t <A_t> <B_t> <= sqrt(L_A L_B), L_A the
    maximum of <rho|G|rho>, G = sum_t w_t |A_t><A_t|; rho = I/d + tau with
    ||tau||^2 <= r^2 = 1 - 1/d gives L_A <= c + 2 ||b|| r + lambda_max(QGQ) r^2,
    c = <I|G|I>/d^2, b = QG|I>/d, Q the projector onto traceless matrices.
    Witness: u from the Hermitian part of QGQ's top eigenvector, v Bob's best
    reply.  Rounded outward like ``_top1_closed_form``; None if unattained.
    """
    def cap(effects: np.ndarray) -> tuple[float, np.ndarray]:
        d = math.isqrt(effects.shape[1])
        traces = effects[:, :: d + 1].sum(axis=1).real
        traceless = effects - np.outer(traces / d, np.eye(d).ravel())
        # QGQ's top eigenpair from the SVD of its (T, d^2) factor
        s, vh = np.linalg.svd(np.sqrt(weights)[:, None] * traceless, full_matrices=False)[1:]
        b, r = np.linalg.norm((weights * traces) @ traceless) / d, math.sqrt(1.0 - 1.0 / d)
        return weights @ traces**2 / d**2 + 2.0 * b * r + (s[0] * r) ** 2, vh[0].reshape(d, d)

    (cap_a, top), (cap_b, _) = cap(effects_a), cap(effects_b)
    u = np.linalg.eigh(top + top.conj().T)[1][:, -1]
    value = math.sqrt(cap_a * cap_b) + CLOSED_FORM_MARGIN / 2.0
    exp_a = _expectations(u[None], effects_a)
    v = _top_eigenvectors(weights * exp_a, effects_b)[0]
    witness = float((weights * exp_a * _expectations(v[None], effects_b)).sum())
    return (value, u, v) if witness >= value - CLOSED_FORM_MARGIN else None


def fine_grained_bound_product(meas_a: Sequence[Povm], meas_b: Sequence[Povm],
                               outcomes, priors: ProbVec, restarts: int = 32,
                               seed: int = 0) -> FineGrainedBound:
    """Fine-grained bound over product states: a closed form where attained, else an ascent.

    ``priors`` runs over setting pairs in row-major order.  Where every
    event is a matching and a witness attains :func:`_product_closed_form`,
    that proven value is taken (``ANALYTIC_PRODUCT``; matched x/z: 3/4).
    Otherwise it is the best found maximum plus a certified slack, so a
    detection against it can only be weakened by the residual error.
    """
    if restarts < 1:
        raise BadParameter("at least one restart is required")
    da = meas_a[0].dim
    db = meas_b[0].dim
    if any(p.dim != da for p in meas_a) or any(p.dim != db for p in meas_b):
        raise DimensionMismatch("measurements must share one dimension per side")
    pairs = setting_pairs(len(meas_a), len(meas_b))
    if priors.dim != len(pairs):
        raise DimensionMismatch(f"priors must cover all {len(pairs)} setting pairs")
    events = _pair_events(meas_a, meas_b, outcomes)
    terms = _fine_grained_terms(meas_a, meas_b, events, priors)
    weights = np.array([float(weight) for weight, *_ in terms])
    effects_a = np.array([meas_a[i].effects[k] for _, i, _, k, _ in terms]).reshape(-1, da * da)
    effects_b = np.array([meas_b[j].effects[l] for _, _, j, _, l in terms]).reshape(-1, db * db)
    # every event a matching: no setting pair repeats an outcome on either side
    matching = len({t[1:4] for t in terms}) == len({t[1:3] + t[4:] for t in terms}) == len(terms)
    found = _product_closed_form(weights, effects_a, effects_b) if terms and matching else None
    method, slack = (ANALYTIC_PRODUCT, 0.0) if found else (ALTERNATING_NUMERIC, NUMERIC_SLACK)
    if found is None:
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(restarts)]
        u0, v0 = (np.array(kets) for kets in zip(*((random_ket(da, rng), random_ket(db, rng))
                                                    for rng in rngs)))
        f, u, v = _alternate(u0, v0, weights, effects_a, effects_b)
        best = int(np.argmax(f))
        found = float(f[best]) + NUMERIC_SLACK, u[best], v[best]
    value, u, v = found
    return FineGrainedBound(
        value=min(value, 1.0),
        operator_norm_witness=_frozen(np.kron(u, v)),
        measurement_fingerprint=_product_fingerprint(meas_a, meas_b, events, priors),
        method=method,
        certified_slack=slack,
    )

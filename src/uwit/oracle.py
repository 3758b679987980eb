"""Independent brute-force verification of bounds and criteria.

Everything here is deliberately redundant with the analytic and optimized
paths: random-state censuses quantify violations of majorization bounds,
dense grids re-derive eigenvalue bounds and top-k maxima from below, and
family scans locate detection thresholds by bisection.  The grid maximizers
share the tensor-statistics kernel ``bounds.tensor_stats`` with the top-k
ascent but search by another method.  The census recomputes the statistics
independently: it draws its random density matrices as one
:class:`~uwit.quantum.DensityStack` per chunk, validated as a batch, takes
tr(E rho) for the whole stack with one ``born_stats`` call per measurement,
and compares every row's tensor statistics with the bound vector by one
sort and one cumulative sum.  The pseudorandom generator is numpy's
default PCG64, seeded explicitly, so every census and scan is reproducible
across runs.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _BATCH_ENTRIES,
    BoundVector,
    fine_grained_bound,
    flat_effects,
    tensor_stats,
    topk_sums,
)
from .criteria import DetectionReport
from .errors import BadParameter, NonMonotoneScan
from .probvec import SUM_TOL, ProbVec, majorization_excess_rows, tensor_rows
from .quantum import DensityStack, Povm, born_stats, random_mixed_state

# Largest qutrit sample count; the initial samples are evaluated as one
# batch, whose memory grows with this count times the tensor size.
MAX_QUTRIT_GRID = 200_000


@dataclass(frozen=True)
class ViolationCensus:
    """Tally of majorization-bound violations over random states."""

    samples: int
    violations: int
    worst_margin: float
    seed: int


@dataclass(frozen=True)
class ScanResult:
    """Criterion values along a one-parameter state family."""

    family: str
    parameter_grid: tuple[float, ...]
    lhs_values: tuple[float, ...]
    bound: float
    verdicts: tuple[str, ...]
    threshold_estimate: float | None
    bisection_tolerance: float


def verify_majorization_bound(bound: BoundVector, meas: Sequence[Povm],
                              samples: int, seed: int) -> ViolationCensus:
    """Count random states whose tensor statistics escape the bound vector.

    The first ceil(samples / 2) draws are pure states and the rest mixed,
    each kind from its own child of ``SeedSequence(seed)``; a valid bound
    yields zero violations.  ``worst_margin`` is the largest partial-sum
    excess seen (negative values mean the bound held with room to spare).
    The draws are processed in chunks whose tensor statistics, density
    matrices and mixed-state factors together stay under
    ``bounds._BATCH_ENTRIES`` entries; each generator is consumed in order,
    so the chunking does not change the states.
    """
    if samples < 1:
        raise BadParameter("at least one sample is required")
    dim = meas[0].dim
    pure_rng, mixed_rng = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2))
    n_pure, n_mixed = (samples + 1) // 2, samples // 2
    # states of each kind per chunk, so that the chunk fits the budget: per
    # pure-mixed pair, two tensor rows, two d x d density matrices and the
    # mixed draw's d x d factor M
    rows = max(1, _BATCH_ENTRIES // (2 * int(np.prod([p.n_outcomes for p in meas]))
                                     + 3 * dim * dim))
    violations, worst = 0, -np.inf
    for start in range(0, n_pure, rows):
        kets = _random_kets(pure_rng, min(rows, n_pure - start), dim)
        # a mixed state M M^dagger is the reduced state of a random pure state on d x d
        m = _random_kets(mixed_rng, min(rows, n_mixed - start), dim * dim).reshape(-1, dim, dim)
        states = DensityStack(np.concatenate([
            kets[:, :, None] * kets.conj()[:, None, :],
            m @ m.conj().transpose(0, 2, 1),
        ]))
        stats = tensor_rows([born_stats(states, p) for p in meas])
        excess = majorization_excess_rows(stats, bound.omega)
        violations += int(np.count_nonzero(excess > SUM_TOL))
        worst = max(worst, float(excess.max()))
    return ViolationCensus(samples=samples, violations=violations, worst_margin=worst, seed=seed)


def _complex_normals(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Complex Gaussian rows from the stream ``rows`` ``random_ket`` calls would draw.

    Each call draws its real parts, then its imaginary parts.
    """
    z = rng.normal(size=(rows, 2, dim))
    return z[:, 0] + 1j * z[:, 1]


def _random_kets(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Haar-random kets as the rows of a (rows, dim) array."""
    kets = _complex_normals(rng, rows, dim)
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def _topk_over_bloch(effects: np.ndarray, sizes: Sequence[int], k: int, zs: np.ndarray,
                     phis: np.ndarray) -> tuple[float, float, float]:
    """Best top-k tensor-statistic sum over the given Bloch grid points."""
    z, phi = np.meshgrid(zs, phis, indexing="ij")
    z = z.ravel()
    phi = phi.ravel()
    half = np.arccos(np.clip(z, -1.0, 1.0)) / 2.0
    kets = np.stack([np.cos(half), np.exp(1j * phi) * np.sin(half)], axis=1)
    values = topk_sums(tensor_stats(kets, effects, sizes)[1], k)
    best = int(np.argmax(values))
    return float(values[best]), float(z[best]), float(phi[best])


def _bloch_maximize(effects: np.ndarray, sizes: Sequence[int], k: int,
                    grid_density: int) -> float:
    """Stratified Bloch grid followed by local zoom refinements."""
    n = max(int(np.sqrt(grid_density)), 8)
    zs = 1.0 - 2.0 * (np.arange(n) + 0.5) / n
    phis = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    best, z0, phi0 = _topk_over_bloch(effects, sizes, k, zs, phis)
    dz = 2.0 / n
    dphi = 2.0 * np.pi / n
    for _ in range(3):
        zs = np.clip(np.linspace(z0 - 2 * dz, z0 + 2 * dz, 41), -1.0, 1.0)
        phis = np.linspace(phi0 - 2 * dphi, phi0 + 2 * dphi, 41)
        value, z0, phi0 = _topk_over_bloch(effects, sizes, k, zs, phis)
        best = max(best, value)
        dz /= 10.0
        dphi /= 10.0
    return best


def _qutrit_maximize(effects: np.ndarray, sizes: Sequence[int], k: int,
                     grid_density: int) -> float:
    """Seeded unit-vector sampling with shrinking local perturbations."""
    rng = np.random.default_rng(grid_density)
    dim = math.isqrt(effects.shape[1])

    def values(kets: np.ndarray) -> np.ndarray:
        return topk_sums(tensor_stats(kets, effects, sizes)[1], k)

    kets = _random_kets(rng, grid_density, dim)
    samples = values(kets)
    best = int(np.argmax(samples))
    best_val, best_psi = float(samples[best]), kets[best]
    scale = 0.3
    for _ in range(6):
        for noise in _complex_normals(rng, 200, dim):
            cand = best_psi + scale * noise
            cand = cand / np.linalg.norm(cand)
            v = float(values(cand[None])[0])
            if v > best_val:
                best_val, best_psi = v, cand
        scale /= 4.0
    return best_val


def brute_force_topk(meas: Sequence[Povm], k: int, grid_density: int) -> float:
    """Grid re-derivation of the maximal top-k tensor-statistic sum.

    Always evaluates actual states, so the result is a valid lower witness
    for the optimized cumulative bound entries.  Qubits use a stratified
    Bloch-angle grid with zoom refinement; qutrits use seeded unit-vector
    sampling of at most ``MAX_QUTRIT_GRID`` points.  Larger dimensions are
    out of scope.
    """
    if k < 1 or grid_density < 1:
        raise BadParameter("k and the grid density must be at least 1")
    dim = meas[0].dim
    effects, sizes = flat_effects([p.effects for p in meas])
    if dim == 2:
        return _bloch_maximize(effects, sizes, k, grid_density)
    if dim == 3:
        if grid_density > MAX_QUTRIT_GRID:
            raise BadParameter(
                f"qutrit grid density {grid_density} exceeds the limit of {MAX_QUTRIT_GRID}"
            )
        return _qutrit_maximize(effects, sizes, k, grid_density)
    raise BadParameter(f"brute force supports dimension 2 or 3, got {dim}")


def cross_check_fine_grained(meas: Sequence[Povm], outcomes: Sequence[str],
                             priors: ProbVec, grid_density: int) -> tuple[float, float]:
    """Eigenvalue bound versus dense Bloch-grid maximization of the same functional."""
    if meas[0].dim != 2:
        raise BadParameter("grid cross-check supports qubit measurements only")
    eigen_value = fine_grained_bound(meas, outcomes, priors).value
    effects = [p.effect_for(label) for p, label in zip(meas, outcomes)]
    combined = sum(w * e for w, e in zip(priors.values, effects))
    grid_value = _bloch_maximize(*flat_effects([combined[None]]), 1, grid_density)
    return eigen_value, grid_value


def threshold_scan(family: str, criterion: Callable[[float], DetectionReport],
                   grid: Sequence[float], bisect_tol: float = 1e-4) -> ScanResult:
    """Evaluate a criterion along a parameter grid and bisect the verdict flip.

    The verdict is required to flip at most once along the grid; a second
    flip aborts, since the families used here are monotone and a double flip
    signals a bug upstream.
    """
    if not bisect_tol > 0:
        raise BadParameter(f"bisection tolerance must be positive, got {bisect_tol}")
    params = [float(x) for x in grid]
    if not params:
        raise BadParameter("grid must contain at least one point")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise BadParameter("grid must be strictly ascending")
    reports = [criterion(x) for x in params]
    lhs = tuple(r.lhs_value for r in reports)
    verdicts = tuple(r.verdict for r in reports)
    flips = [i for i in range(len(params) - 1) if verdicts[i] != verdicts[i + 1]]
    if len(flips) > 1:
        raise NonMonotoneScan(
            f"verdict flipped {len(flips)} times along the {family} family at "
            f"parameters {[params[i + 1] for i in flips]}"
        )
    threshold = None
    if flips:
        lo, hi = params[flips[0]], params[flips[0] + 1]
        v_lo = verdicts[flips[0]]
        while hi - lo > bisect_tol:
            mid = (lo + hi) / 2.0
            if criterion(mid).verdict == v_lo:
                lo = mid
            else:
                hi = mid
        threshold = (lo + hi) / 2.0
    return ScanResult(
        family=family,
        parameter_grid=tuple(params),
        lhs_values=lhs,
        bound=float(reports[0].bound_value),
        verdicts=verdicts,
        threshold_estimate=threshold,
        bisection_tolerance=bisect_tol,
    )


def scan_to_csv(scan: ScanResult, path: str) -> None:
    """Write a scan as CSV with parameter, lhs, bound and verdict columns."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["parameter", "lhs", "bound", "verdict"])
        for x, lhs, verdict in zip(scan.parameter_grid, scan.lhs_values, scan.verdicts):
            writer.writerow([f"{x:.10g}", f"{lhs:.12g}", f"{scan.bound:.12g}", verdict])


def random_lhs_fixture(rng: np.random.Generator, bob_dim: int = 2,
                       n_settings: int = 2, n_outcomes: int = 2,
                       max_hidden: int = 4):
    """Random local-hidden-state model inputs for unsteerable fixtures."""
    n_hidden = int(rng.integers(1, max_hidden + 1))
    weights = rng.exponential(size=n_hidden)
    weights = weights / weights.sum()
    hidden = [(float(w), random_mixed_state(bob_dim, rng)) for w in weights]
    response = []
    for _ in range(n_hidden):
        rows = []
        for _ in range(n_settings):
            probs = rng.exponential(size=n_outcomes)
            rows.append(list(probs / probs.sum()))
        response.append(rows)
    return hidden, response

"""Independent brute-force verification of bounds and criteria.

Everything here is deliberately redundant with the analytic and optimized
paths: random-state censuses quantify violations of majorization bounds,
dense grids re-derive eigenvalue bounds and top-k maxima from below, and
family scans locate detection thresholds by bisection.  The pseudorandom
generator is numpy's default PCG64, seeded explicitly, so every census and
scan is reproducible across runs.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .bounds import BoundVector, fine_grained_bound
from .criteria import DetectionReport
from .errors import BadParameter, NonMonotoneScan
from .parallel import parallel_map
from .probvec import SUM_TOL, ProbVec, majorization_excess, tensor_all
from .quantum import (
    Povm,
    born_stats,
    random_ket,
    random_mixed_state,
    random_pure_state,
)


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

    Half the draws are pure states, half mixed; a valid bound yields zero
    violations.  ``worst_margin`` is the largest partial-sum excess seen
    (negative values mean the bound held with room to spare).
    """
    if samples < 1:
        raise BadParameter("at least one sample is required")
    dim = meas[0].dim
    children = np.random.SeedSequence(seed).spawn(samples)

    def excess(args) -> float:
        index, child = args
        rng = np.random.default_rng(child)
        if index % 2 == 0:
            state = random_pure_state(dim, rng)
        else:
            state = random_mixed_state(dim, rng)
        stats = tensor_all([born_stats(state, p) for p in meas])
        return majorization_excess(stats, bound.omega)

    margins = parallel_map(excess, list(enumerate(children)))
    violations = sum(1 for m in margins if m > SUM_TOL)
    return ViolationCensus(
        samples=samples,
        violations=violations,
        worst_margin=float(max(margins)),
        seed=seed,
    )


def _qubit_probs(effects: Sequence[np.ndarray], cos_half: np.ndarray, sin_half: np.ndarray,
                 phase_cos: np.ndarray, phase_sin: np.ndarray) -> list[np.ndarray]:
    """Expectation of each effect over a batch of Bloch angles."""
    out = []
    for e in effects:
        cross = 2.0 * (e[0, 1].real * phase_cos - e[0, 1].imag * phase_sin)
        out.append(
            e[0, 0].real * cos_half**2
            + e[1, 1].real * sin_half**2
            + cross * cos_half * sin_half
        )
    return out


def _topk_over_bloch(effect_sets: Sequence[Sequence[np.ndarray]], k: int, zs: np.ndarray,
                     phis: np.ndarray) -> tuple[float, float, float]:
    """Best top-k tensor-statistic sum over the given Bloch grid points."""
    z, phi = np.meshgrid(zs, phis, indexing="ij")
    z = z.ravel()
    phi = phi.ravel()
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    cos_half = np.cos(theta / 2.0)
    sin_half = np.sin(theta / 2.0)
    probs = [
        _qubit_probs(effects, cos_half, sin_half, np.cos(phi), np.sin(phi))
        for effects in effect_sets
    ]
    t = np.stack(probs[0], axis=1)
    for batch in probs[1:]:
        nxt = np.stack(batch, axis=1)
        t = (t[:, :, None] * nxt[:, None, :]).reshape(t.shape[0], -1)
    if k >= t.shape[1]:
        values = t.sum(axis=1)
    else:
        values = np.sort(t, axis=1)[:, -k:].sum(axis=1)
    best = int(np.argmax(values))
    return float(values[best]), float(z[best]), float(phi[best])


def _bloch_maximize(effect_sets: Sequence[Sequence[np.ndarray]], k: int,
                    grid_density: int) -> float:
    """Stratified Bloch grid followed by local zoom refinements."""
    n = max(int(np.sqrt(grid_density)), 8)
    zs = 1.0 - 2.0 * (np.arange(n) + 0.5) / n
    phis = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    best, z0, phi0 = _topk_over_bloch(effect_sets, k, zs, phis)
    dz = 2.0 / n
    dphi = 2.0 * np.pi / n
    for _ in range(3):
        zs = np.clip(np.linspace(z0 - 2 * dz, z0 + 2 * dz, 41), -1.0, 1.0)
        phis = np.linspace(phi0 - 2 * dphi, phi0 + 2 * dphi, 41)
        value, z0, phi0 = _topk_over_bloch(effect_sets, k, zs, phis)
        best = max(best, value)
        dz /= 10.0
        dphi /= 10.0
    return best


def _qutrit_maximize(effect_sets: Sequence[Sequence[np.ndarray]], k: int,
                     grid_density: int) -> float:
    """Seeded unit-vector sampling with shrinking local perturbations."""
    rng = np.random.default_rng(grid_density)
    dim = effect_sets[0][0].shape[0]

    def topk(psi: np.ndarray) -> float:
        stats = [
            np.clip([float(np.real(psi.conj() @ (e @ psi))) for e in effects], 0.0, None)
            for effects in effect_sets
        ]
        t = stats[0]
        for s in stats[1:]:
            t = np.multiply.outer(t, s)
        flat = np.sort(t.ravel())
        return float(flat[-k:].sum()) if k < flat.size else float(flat.sum())

    best_val = -np.inf
    best_psi = None
    for _ in range(grid_density):
        psi = random_ket(dim, rng)
        v = topk(psi)
        if v > best_val:
            best_val, best_psi = v, psi
    scale = 0.3
    for _ in range(6):
        for _ in range(200):
            cand = best_psi + scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
            cand = cand / np.linalg.norm(cand)
            v = topk(cand)
            if v > best_val:
                best_val, best_psi = v, cand
        scale /= 4.0
    return best_val


def brute_force_topk(meas: Sequence[Povm], k: int, grid_density: int) -> float:
    """Grid re-derivation of the maximal top-k tensor-statistic sum.

    Always evaluates actual states, so the result is a valid lower witness
    for the optimized cumulative bound entries.  Qubits use a stratified
    Bloch-angle grid with zoom refinement; qutrits use seeded unit-vector
    sampling.  Larger dimensions are out of scope.
    """
    if k < 1:
        raise BadParameter("k must be at least 1")
    dim = meas[0].dim
    effect_sets = [list(p.effects) for p in meas]
    if dim == 2:
        return _bloch_maximize(effect_sets, k, grid_density)
    if dim == 3:
        return _qutrit_maximize(effect_sets, k, min(grid_density, 200_000))
    raise BadParameter(f"brute force supports dimension 2 or 3, got {dim}")


def cross_check_fine_grained(meas: Sequence[Povm], outcomes: Sequence[str],
                             priors: ProbVec, grid_density: int) -> tuple[float, float]:
    """Eigenvalue bound versus dense Bloch-grid maximization of the same functional."""
    if meas[0].dim != 2:
        raise BadParameter("grid cross-check supports qubit measurements only")
    eigen_value = fine_grained_bound(meas, outcomes, priors).value
    effects = [p.effect_for(label) for p, label in zip(meas, outcomes)]
    combined = sum(w * e for w, e in zip(priors.values, effects))
    grid_value = _bloch_maximize([[combined]], 1, grid_density)
    return eigen_value, grid_value


def threshold_scan(family: str, criterion: Callable[[float], DetectionReport],
                   grid: Sequence[float], bisect_tol: float = 1e-4) -> ScanResult:
    """Evaluate a criterion along a parameter grid and bisect the verdict flip.

    The verdict is required to flip at most once along the grid; a second
    flip aborts, since the families used here are monotone and a double flip
    signals a bug upstream.
    """
    params = [float(x) for x in grid]
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

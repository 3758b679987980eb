"""State-independent uncertainty bounds.

Two bound families are computed here:

* Majorization bound vectors omega for a measurement set, such that the
  tensor product of the measurement statistics of every state is majorized
  by omega.  The two-dichotomic-measurement case has a closed form; the
  general case is obtained by maximizing top-k sums of the tensor statistics
  over pure states with multi-restart projected gradient ascent.

* Fine-grained bounds B for one outcome per measurement under a prior over
  settings.  Over all states this is exactly the top eigenvalue of the
  prior-weighted effect sum; over product states on a bipartite split it is
  estimated with alternating eigenvector iterations.

Numeric bounds are inflated by a small certified slack before use, so
numerical error can only weaken a detection, never fabricate one.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    Degenerate,
    DimensionMismatch,
    NoConvergence,
)
from .parallel import parallel_map
from .probvec import ProbVec
from .quantum import DensityState, Observable, Povm, random_ket, von_neumann_entropy

NUMERIC_SLACK = 1e-6     # added to optimized bounds before certification
STEP_TOL = 1e-10         # ascent terminates when an iteration gains less than this
ANALYTIC_TWO_DICHOTOMIC = "analytic_two_dichotomic"
NUMERIC_TOPK = "numeric_topk"
EIGEN_EXACT = "eigen_exact"
ALTERNATING_NUMERIC = "alternating_numeric"


def fingerprint_povms(povms: Sequence[Povm], extra: str = "") -> str:
    """Stable hash identifying a measurement set (plus optional context)."""
    h = hashlib.sha256()
    for p in povms:
        h.update(str(p.dim).encode())
        for label, effect in zip(p.outcome_labels, p.effects):
            h.update(label.encode())
            h.update(np.ascontiguousarray(effect, dtype=complex).tobytes())
    h.update(extra.encode())
    return h.hexdigest()


def observable_fingerprint(observables: Sequence[Observable]) -> str:
    return fingerprint_povms([o.povm() for o in observables])


@dataclass(frozen=True)
class BoundVector:
    """Majorization bound omega for a measurement set."""

    omega: ProbVec
    method: str
    measurement_fingerprint: str
    certified_slack: float

    @property
    def certified(self) -> bool:
        return self.method == ANALYTIC_TWO_DICHOTOMIC or self.certified_slack > 0.0


@dataclass(frozen=True, eq=False)
class FineGrainedBound:
    """Largest achievable prior-weighted hit probability for one outcome string."""

    value: float
    outcome_string: tuple[str, ...]
    priors: ProbVec
    operator_norm_witness: np.ndarray
    measurement_fingerprint: str
    method: str
    certified_slack: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0 + 1e-9:
            raise BadParameter(f"bound value {self.value} outside (0, 1]")

    @property
    def certified(self) -> bool:
        return self.method == EIGEN_EXACT or self.certified_slack > 0.0


def omega_two_dichotomic(x: Observable, y: Observable) -> BoundVector:
    """Closed-form majorization bound for two nondegenerate qubit observables.

    With c the largest eigenvector overlap and c' the largest root-sum-square
    overlap over eigenvector pairs sharing exactly one index, the bound is
    ((1 + c)^2 / 4, (1 + c')^2 / 4 - (1 + c)^2 / 4, 0, 0).
    """
    if x.dim != 2 or y.dim != 2:
        raise DimensionMismatch("closed form applies to qubit observables only")
    if not x.nondegenerate or not y.nondegenerate:
        raise Degenerate("observables must have nondegenerate spectra")
    overlap = np.empty((2, 2))
    for k, pk in enumerate(x.projectors):
        for j, qj in enumerate(y.projectors):
            overlap[k, j] = np.sqrt(max(float(np.trace(pk @ qj).real), 0.0))
    c = float(np.max(overlap))
    c_prime = 0.0
    for k in range(2):
        for kp in range(2):
            for j in range(2):
                for jp in range(2):
                    if (k == kp) != (j == jp):
                        c_prime = max(
                            c_prime,
                            float(np.sqrt(overlap[k, j] ** 2 + overlap[kp, jp] ** 2)),
                        )
    c_prime = min(c_prime, 1.0)
    gamma1 = (1.0 + c) ** 2 / 4.0
    gamma2 = min((1.0 + c_prime) ** 2 / 4.0, 1.0)
    omega = ProbVec([gamma1, gamma2 - gamma1, 0.0, 0.0])
    return BoundVector(
        omega=omega,
        method=ANALYTIC_TWO_DICHOTOMIC,
        measurement_fingerprint=observable_fingerprint([x, y]),
        certified_slack=0.0,
    )


def _tensor_stats(psi: np.ndarray, effect_sets: list[list[np.ndarray]]) -> tuple[list[np.ndarray], np.ndarray]:
    probs = []
    for effects in effect_sets:
        p = np.array([float(np.real(psi.conj() @ (e @ psi))) for e in effects])
        probs.append(np.clip(p, 0.0, None))
    t = probs[0]
    for p in probs[1:]:
        t = np.multiply.outer(t, p)
    return probs, t.ravel()


def _topk_sum(psi: np.ndarray, effect_sets: list[list[np.ndarray]], k: int) -> float:
    _, t = _tensor_stats(psi, effect_sets)
    if k >= t.size:
        return float(t.sum())
    return float(np.sort(t)[-k:].sum())


def _topk_gradient_op(psi: np.ndarray, effect_sets: list[list[np.ndarray]], k: int) -> np.ndarray:
    """Active-set gradient operator G with d f / d psi* = G psi."""
    probs, t = _tensor_stats(psi, effect_sets)
    shape = tuple(len(e) for e in effect_sets)
    if k >= t.size:
        sel = np.arange(t.size)
    else:
        sel = np.argpartition(t, -k)[-k:]
    dim = effect_sets[0][0].shape[0]
    g = np.zeros((dim, dim), dtype=complex)
    for flat in sel:
        multi = np.unravel_index(flat, shape)
        for i, a in enumerate(multi):
            w = 1.0
            for ip, ap in enumerate(multi):
                if ip != i:
                    w *= probs[ip][ap]
            g += w * effect_sets[i][a]
    return g


def _max_topk(povms: Sequence[Povm], k: int, restarts: int,
              seed_seq: np.random.SeedSequence, maxiter: int = 400) -> float:
    """Maximize the top-k sum of the tensor statistics over pure states."""
    effect_sets = [list(p.effects) for p in povms]
    dim = povms[0].dim
    children = seed_seq.spawn(restarts)

    def run(child) -> float:
        rng = np.random.default_rng(child)
        psi = random_ket(dim, rng)
        f = _topk_sum(psi, effect_sets, k)
        for _ in range(maxiter):
            op = _topk_gradient_op(psi, effect_sets, k)
            # eigenvector jump of the active-set operator; exact whenever the
            # active set stays put, and it sidesteps the slow crawl a plain
            # gradient step suffers near degenerate optima
            jump = np.linalg.eigh(op)[1][:, -1]
            f_jump = _topk_sum(jump, effect_sets, k)
            if f_jump > f + 1e-15:
                gain = f_jump - f
                psi, f = jump, f_jump
                if gain < STEP_TOL:
                    break
                continue
            g = op @ psi
            r = g - (psi.conj() @ g) * psi
            if np.linalg.norm(r) < 1e-13:
                break
            eta = 1.0
            f_new = None
            while eta > 1e-12:
                cand = psi + eta * r
                cand = cand / np.linalg.norm(cand)
                fc = _topk_sum(cand, effect_sets, k)
                if fc > f + 1e-15:
                    psi, f_new = cand, fc
                    break
                eta *= 0.5
            if f_new is None:
                break
            gain = f_new - f
            f = f_new
            if gain < STEP_TOL:
                break
        return f

    return max(parallel_map(run, children))


def _concave_majorant_increments(cumulative: np.ndarray) -> np.ndarray:
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
    xs = np.array([p[0] for p in hull])
    ys = np.array([p[1] for p in hull])
    levels = np.interp(np.arange(len(pts), dtype=float), xs, ys)
    return np.diff(levels)


def omega_numeric(meas: Sequence[Povm], restarts: int = 64, seed: int = 0) -> BoundVector:
    """Majorization bound via top-k maximization over pure states.

    For k below the per-measurement outcome count, the cumulative entry is
    the maximized sum of the k largest tensor-statistic entries plus a small
    certified slack; the final cumulative entry is pinned to 1.  A least
    concave majorant repairs any numeric non-monotonicity in the increments.
    """
    if restarts < 1:
        raise BadParameter("at least one restart is required")
    if len(meas) == 0:
        raise BadParameter("at least one measurement is required")
    dim = meas[0].dim
    if any(p.dim != dim for p in meas):
        raise DimensionMismatch("all measurements must act on one common dimension")
    tensor_size = 1
    for p in meas:
        tensor_size *= p.n_outcomes
    if tensor_size > 10**6:
        raise BadParameter(f"tensor distribution with {tensor_size} entries is too large")
    d_out = max(p.n_outcomes for p in meas)
    seeds = np.random.SeedSequence(seed).spawn(max(d_out - 1, 1))
    cumulative = []
    for k in range(1, d_out):
        gamma = _max_topk(meas, k, restarts, seeds[k - 1])
        cumulative.append(min(gamma + NUMERIC_SLACK, 1.0))
    cumulative.append(1.0)
    cumulative = np.maximum.accumulate(np.array(cumulative))
    increments = _concave_majorant_increments(cumulative)
    omega = np.zeros(tensor_size)
    omega[: d_out] = increments
    return BoundVector(
        omega=ProbVec(omega),
        method=NUMERIC_TOPK,
        measurement_fingerprint=fingerprint_povms(meas),
        certified_slack=NUMERIC_SLACK,
    )


def maassen_uffink(x: Observable, y: Observable, state: DensityState | None = None) -> float:
    """Entropic bound -log2 of the largest squared eigenvector overlap, in bits.

    When ``state`` is supplied its spectral entropy is added, giving the
    state-dependent strengthening of the bound.
    """
    if x.dim != y.dim:
        raise DimensionMismatch("observables must share one dimension")
    if not x.nondegenerate or not y.nondegenerate:
        raise Degenerate("observables must have nondegenerate spectra")
    c2 = 0.0
    for pk in x.projectors:
        for qj in y.projectors:
            c2 = max(c2, float(np.trace(pk @ qj).real))
    bound = float(-np.log2(c2))
    if state is not None:
        bound += von_neumann_entropy(state)
    return bound


def fine_grained_bound(meas: Sequence[Povm], outcome_string: Sequence[str],
                       priors: ProbVec) -> FineGrainedBound:
    """Exact fine-grained bound: top eigenvalue of the prior-weighted effect sum."""
    if len(outcome_string) != len(meas):
        raise DimensionMismatch("one outcome per measurement is required")
    if priors.dim != len(meas):
        raise DimensionMismatch("one prior per measurement is required")
    dim = meas[0].dim
    if any(p.dim != dim for p in meas):
        raise DimensionMismatch("all measurements must act on one common dimension")
    op = np.zeros((dim, dim), dtype=complex)
    for w, povm, label in zip(priors.values, meas, outcome_string):
        op += w * povm.effect_for(label)
    w_all, v_all = np.linalg.eigh((op + op.conj().T) / 2.0)
    value = float(w_all[-1])
    witness = v_all[:, -1].copy()
    labels = tuple(str(s) for s in outcome_string)
    return FineGrainedBound(
        value=value,
        outcome_string=labels,
        priors=priors,
        operator_norm_witness=witness,
        measurement_fingerprint=fingerprint_povms(meas, extra="|".join(labels)),
        method=EIGEN_EXACT,
        certified_slack=0.0,
    )


def fine_grained_bound_map(meas: Sequence[Povm],
                           priors: ProbVec) -> dict[tuple[str, ...], FineGrainedBound]:
    """Exact fine-grained bounds for every outcome string of ``meas``."""
    return {
        labels: fine_grained_bound(meas, labels, priors)
        for labels in itertools.product(*(p.outcome_labels for p in meas))
    }


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
    events = [[(str(a), str(b)) for a, b in event] for event in outcomes]
    if len(events) != len(pairs):
        raise DimensionMismatch(
            f"expected {len(pairs)} per-pair events (row-major), got {len(events)}"
        )
    return events


def matched_outcome_events(povm_a: Povm, povm_b: Povm) -> list[tuple[str, str]]:
    """The equal-label correlation event for one setting pair."""
    if povm_a.n_outcomes != povm_b.n_outcomes:
        raise DimensionMismatch("correlation events need equal outcome counts")
    return [(a, b) for a, b in zip(povm_a.outcome_labels, povm_b.outcome_labels)]


def fine_grained_bound_product(meas_a: Sequence[Povm], meas_b: Sequence[Povm],
                               outcomes, priors: ProbVec, restarts: int = 32,
                               seed: int = 0, maxiter: int = 200) -> FineGrainedBound:
    """Fine-grained bound over product states via alternating eigenvector ascent.

    ``priors`` runs over setting pairs in row-major order.  The returned value
    is the best found maximum plus a certified slack, so a detection against
    it can only be weakened by the residual optimization error.
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
    terms: list[tuple[float, np.ndarray, np.ndarray]] = []
    for weight, (i, j), event in zip(priors.values, pairs, events):
        if weight == 0.0:
            continue
        for a_label, b_label in event:
            terms.append((float(weight), meas_a[i].effect_for(a_label),
                          meas_b[j].effect_for(b_label)))

    def expect(op: np.ndarray, vec: np.ndarray) -> float:
        return float(np.real(vec.conj() @ (op @ vec)))

    def objective(u: np.ndarray, v: np.ndarray) -> float:
        return sum(w * expect(fa, u) * expect(gb, v) for w, fa, gb in terms)

    children = np.random.SeedSequence(seed).spawn(restarts)

    def run(child):
        rng = np.random.default_rng(child)
        u = random_ket(da, rng)
        v = random_ket(db, rng)
        f = objective(u, v)
        for _ in range(maxiter):
            op_a = np.zeros((da, da), dtype=complex)
            for w, fa, gb in terms:
                op_a += w * expect(gb, v) * fa
            u = np.linalg.eigh((op_a + op_a.conj().T) / 2.0)[1][:, -1]
            op_b = np.zeros((db, db), dtype=complex)
            for w, fa, gb in terms:
                op_b += w * expect(fa, u) * gb
            v = np.linalg.eigh((op_b + op_b.conj().T) / 2.0)[1][:, -1]
            f_new = objective(u, v)
            if f_new - f < STEP_TOL:
                return f_new, u, v
            f = f_new
        raise NoConvergence(f"alternating ascent still improving after {maxiter} iterations")

    results = parallel_map(run, children)
    best, u_best, v_best = max(results, key=lambda r: r[0])
    a_labels = tuple(lab for event in events for lab, _ in event)
    b_labels = tuple(lab for event in events for _, lab in event)
    return FineGrainedBound(
        value=min(best + NUMERIC_SLACK, 1.0),
        outcome_string=a_labels + b_labels,
        priors=priors,
        operator_norm_witness=np.kron(u_best, v_best),
        measurement_fingerprint=fingerprint_povms(
            list(meas_a) + list(meas_b),
            extra=repr(events),
        ),
        method=ALTERNATING_NUMERIC,
        certified_slack=NUMERIC_SLACK,
    )


def mub_fine_grained_bound(d: int, m: int) -> float:
    """Fine-grained bound (1/d)(1 + (d - 1)/sqrt(m)) for m mutually unbiased bases."""
    if d < 2 or m < 2:
        raise BadParameter("need dimension >= 2 and at least two bases")
    return (1.0 / d) * (1.0 + (d - 1) / np.sqrt(m))

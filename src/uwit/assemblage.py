"""Steering assemblages: Bob's subnormalized steered states and their statistics.

An assemblage maps (Alice setting, Alice outcome) to a positive subnormalized
operator on Bob's space.  Summed over outcomes, every setting must reproduce
the same reduced state; that no-signaling consistency is validated on
construction.  Assemblages can also be built from an explicit local hidden
state model, which yields guaranteed-unsteerable fixtures for the criteria.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, NotADistribution, NotHermitian
from .probvec import ProbVec
from .quantum import HERM_TOL, PSD_TOL, DensityState, Povm, _as_square_complex

CONSISTENCY_TOL = 1e-8
EPS_COND = 1e-10    # outcomes with smaller weight are omitted, not renormalized


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized steered states indexed by Alice's setting and outcome."""

    elements: Mapping[tuple[int, str], np.ndarray]
    settings: tuple[int, ...]
    outcomes: Mapping[int, tuple[str, ...]]
    bob_dim: int

    def __post_init__(self):
        if not self.settings or self.bob_dim < 1:
            raise BadParameter("an assemblage needs at least one setting and bob_dim >= 1")
        sums = {}
        for setting in self.settings:
            total = np.zeros((self.bob_dim, self.bob_dim), dtype=complex)
            for outcome in self.outcomes[setting]:
                op = _as_square_complex(self.elements[(setting, outcome)])
                if op.shape[0] != self.bob_dim:
                    raise DimensionMismatch("element dimension differs from bob_dim")
                if np.max(np.abs(op - op.conj().T)) > HERM_TOL:
                    raise NotHermitian(
                        f"assemblage element ({setting}, {outcome}) is not Hermitian"
                    )
                wmin = float(np.linalg.eigvalsh((op + op.conj().T) / 2.0)[0])
                if wmin < -PSD_TOL:
                    raise BadParameter(
                        f"assemblage element ({setting}, {outcome}) has eigenvalue {wmin:.3e}"
                    )
                tr = float(np.trace(op).real)
                if tr < -PSD_TOL or tr > 1.0 + PSD_TOL:
                    raise BadParameter(f"element trace {tr:.6f} outside [0, 1]")
                total += op
            sums[setting] = total
        first = sums[self.settings[0]]
        if abs(float(np.trace(first).real) - 1.0) > CONSISTENCY_TOL:
            raise BadParameter("assemblage does not sum to a unit-trace reduced state")
        for setting in self.settings[1:]:
            if np.max(np.abs(sums[setting] - first)) > CONSISTENCY_TOL:
                raise BadParameter(
                    f"no-signaling violation: setting {setting} sums to a different reduced state"
                )

    def element(self, setting: int, outcome: str) -> np.ndarray:
        return self.elements[(setting, outcome)]

    def reduced_state(self) -> DensityState:
        total = sum(self.elements[(self.settings[0], o)] for o in self.outcomes[self.settings[0]])
        return DensityState(total)


def steer(state: DensityState, alice_meas: Sequence[Povm]) -> Assemblage:
    """Assemblage Alice induces on Bob by measuring her half of ``state``."""
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    da, db = state.dims
    elements: dict[tuple[int, str], np.ndarray] = {}
    outcomes: dict[int, tuple[str, ...]] = {}
    for setting, povm in enumerate(alice_meas):
        if povm.dim != da:
            raise DimensionMismatch(
                f"Alice measurement dimension {povm.dim} does not match factor {da}"
            )
        for label, effect in zip(povm.outcome_labels, povm.effects):
            big = np.kron(effect, np.eye(db)) @ state.matrix
            elements[(setting, label)] = np.einsum("ijil->jl", big.reshape(da, db, da, db))
        outcomes[setting] = povm.outcome_labels
    return Assemblage(elements, tuple(range(len(alice_meas))), outcomes, db)


@dataclass(frozen=True)
class ConditionalStats:
    """Bob's conditional statistics for one Alice setting under one POVM."""

    setting: int
    entries: Mapping[str, tuple[float, ProbVec]]
    omitted: tuple[str, ...]


def conditional_stats(asm: Assemblage, setting: int, bob_meas: Povm) -> ConditionalStats:
    """Normalized conditional distributions per Alice outcome, with weights.

    Outcomes whose weight does not exceed ``EPS_COND`` are listed as omitted
    rather than renormalized from numerical noise.
    """
    if setting not in asm.settings:
        raise BadParameter(f"unknown setting {setting!r}")
    if bob_meas.dim != asm.bob_dim:
        raise DimensionMismatch("Bob measurement dimension differs from assemblage")
    entries: dict[str, tuple[float, ProbVec]] = {}
    omitted: list[str] = []
    for outcome in asm.outcomes[setting]:
        op = asm.elements[(setting, outcome)]
        weight = float(np.trace(op).real)
        if weight <= EPS_COND:
            omitted.append(outcome)
            continue
        probs = np.array([float(np.trace(e @ op).real) for e in bob_meas.effects])
        probs = np.clip(probs, 0.0, None) / weight
        entries[outcome] = (weight, ProbVec(probs / probs.sum()))
    return ConditionalStats(setting, entries, tuple(omitted))


def lhs_assemblage(hidden: Sequence[tuple[float, DensityState]],
                   response: Sequence[Sequence[Sequence[float]]]) -> Assemblage:
    """Assemblage assembled from an explicit local hidden state model.

    ``hidden`` lists (probability, state) pairs; ``response[lam][setting]``
    is Alice's outcome distribution given hidden variable ``lam``.  The
    result satisfies the local-hidden-state decomposition by construction,
    so every steering criterion must leave it undetected.
    """
    if not hidden:
        raise NotADistribution("at least one hidden state is required")
    weights = ProbVec([w for w, _ in hidden])
    if len(response) != len(hidden):
        raise NotADistribution("one response row per hidden variable is required")
    n_settings = len(response[0])
    n_outcomes = len(response[0][0])
    bob_dim = hidden[0][1].dim
    rows: list[list[ProbVec]] = []
    for lam, row in enumerate(response):
        if len(row) != n_settings:
            raise NotADistribution("inconsistent number of settings in response")
        dists = []
        for dist in row:
            pv = dist if isinstance(dist, ProbVec) else ProbVec(dist)
            if pv.dim != n_outcomes:
                raise NotADistribution("inconsistent number of outcomes in response")
            dists.append(pv)
        if hidden[lam][1].dim != bob_dim:
            raise DimensionMismatch("hidden states must share Bob's dimension")
        rows.append(dists)
    labels = tuple(str(a) for a in range(n_outcomes))
    elements: dict[tuple[int, str], np.ndarray] = {}
    for setting in range(n_settings):
        for a, label in enumerate(labels):
            op = np.zeros((bob_dim, bob_dim), dtype=complex)
            for lam, (w, sigma) in enumerate(zip(weights.values, (s for _, s in hidden))):
                op += w * rows[lam][setting][a] * sigma.matrix
            elements[(setting, label)] = op
    outcomes = {s: labels for s in range(n_settings)}
    return Assemblage(elements, tuple(range(n_settings)), outcomes, bob_dim)


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major nested encoding with complex entries as [re, im] pairs."""
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = [[complex(cell[0], cell[1]) for cell in row] for row in data]
        return np.array(rows, dtype=complex)
    except (TypeError, IndexError, ValueError):
        raise BadParameter("a matrix must be equal-length rows of [re, im] pairs") from None


def assemblage_to_config(asm: Assemblage) -> dict:
    """JSON-ready encoding, so externally measured assemblages can round-trip."""
    return {
        "bob_dim": asm.bob_dim,
        "settings": list(asm.settings),
        "elements": [
            {
                "setting": setting,
                "outcome": outcome,
                "operator": matrix_to_json(asm.elements[(setting, outcome)]),
            }
            for setting in asm.settings
            for outcome in asm.outcomes[setting]
        ],
    }


def assemblage_from_config(data: dict) -> Assemblage:
    try:
        bob_dim = int(data["bob_dim"])
        settings = tuple(int(s) for s in data["settings"])
        entries = [(int(e["setting"]), str(e["outcome"]), e["operator"]) for e in data["elements"]]
    except (KeyError, TypeError, ValueError):
        raise BadParameter(
            "assemblage config needs bob_dim, settings and elements, "
            "each with setting, outcome and operator"
        ) from None
    elements: dict[tuple[int, str], np.ndarray] = {}
    outcomes: dict[int, list[str]] = {s: [] for s in settings}
    for setting, outcome, operator in entries:
        if setting not in outcomes:
            raise BadParameter(f"element setting {setting} is not listed in settings")
        elements[(setting, outcome)] = matrix_from_json(operator)
        outcomes[setting].append(outcome)
    return Assemblage(
        elements, settings, {s: tuple(o) for s, o in outcomes.items()}, bob_dim
    )

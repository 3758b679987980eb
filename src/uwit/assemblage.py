"""Steering assemblages: Bob's subnormalized steered states and their statistics.

An assemblage maps (Alice setting, Alice outcome) to a positive subnormalized
operator on Bob's space.  It is stored as one read-only (n, d, d) stack per
setting, the form the quantum module's Born-rule contractions read, with the
setting's distinct outcome labels in stack order.  Summed over its outcomes
every setting must reproduce the same reduced state; those checks, and the
quantum module's Hermitian/PSD check of each setting's stack, run on
construction.  Assemblages can also be built from an explicit local hidden
state model, which yields guaranteed-unsteerable fixtures for the criteria.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParameter, DimensionMismatch, NotADistribution
from .probvec import ProbVec
from .quantum import PSD_TOL, DensityState, Povm, _as_square_stack, _check_hermitian_psd
from .quantum import _frozen, _steered, _traces

CONSISTENCY_TOL = 1e-8
EPS_COND = 1e-10    # outcomes with smaller weight are omitted, not renormalized


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized steered states indexed by Alice's setting and outcome.

    ``outcomes`` maps each setting to its distinct outcome labels and
    ``stacks`` to the read-only (n, d, d) stack of Bob's operators in label
    order; the settings and Bob's dimension are derived once, on first use.
    """

    outcomes: Mapping[int, tuple[str, ...]]
    stacks: Mapping[int, np.ndarray]

    def __post_init__(self):
        if not self.outcomes:
            raise BadParameter("an assemblage needs at least one setting and bob_dim >= 1")
        if self.outcomes.keys() != self.stacks.keys():
            raise BadParameter("assemblage outcomes and stacks must list the same settings")
        outcomes, stacks = {}, {}
        for setting, labels in self.outcomes.items():
            labels = tuple(labels)
            if not labels or len(set(labels)) != len(labels):
                raise BadParameter(f"setting {setting} needs distinct outcomes, got {labels}")
            ops = _as_square_stack(self.stacks[setting])
            if len(ops) != len(labels):
                raise DimensionMismatch(f"setting {setting} needs one element per outcome")
            _check_hermitian_psd(ops, f"assemblage element of setting {setting}")
            traces = ops.trace(axis1=1, axis2=2).real
            bad = (traces < -PSD_TOL) | (traces > 1.0 + PSD_TOL)
            if bad.any():
                raise BadParameter(f"element trace {traces[bad][0]:.6f} outside [0, 1]")
            outcomes[setting], stacks[setting] = labels, _frozen(ops)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "stacks", stacks)
        if len({ops.shape[-1] for ops in stacks.values()}) > 1:
            raise DimensionMismatch("element dimension differs from bob_dim")
        first, *rest = (ops.sum(axis=0) for ops in stacks.values())
        if abs(float(first.trace().real) - 1.0) > CONSISTENCY_TOL:
            raise BadParameter("assemblage does not sum to a unit-trace reduced state")
        for setting, total in zip(self.settings[1:], rest):
            if np.max(np.abs(total - first)) > CONSISTENCY_TOL:
                raise BadParameter(
                    f"no-signaling violation: setting {setting} sums to a different reduced state"
                )

    @cached_property
    def settings(self) -> tuple[int, ...]:
        return tuple(self.outcomes)

    @cached_property
    def bob_dim(self) -> int:
        return self.stacks[self.settings[0]].shape[-1]

    def element(self, setting: int, outcome: str) -> np.ndarray:
        return self.stacks[setting][self.outcomes[setting].index(outcome)]

    def reduced_state(self) -> DensityState:
        return DensityState(self.stacks[self.settings[0]].sum(axis=0))


def steer(state: DensityState, alice_meas: Sequence[Povm]) -> Assemblage:
    """Assemblage Alice induces on Bob by measuring her half of ``state``."""
    if state.dims is None:
        raise DimensionMismatch("state needs a bipartite factorization")
    outcomes, stacks = {}, {}
    for setting, povm in enumerate(alice_meas):
        if povm.dim != state.dims[0]:
            raise DimensionMismatch(
                f"Alice measurement dimension {povm.dim} does not match factor {state.dims[0]}"
            )
        outcomes[setting], stacks[setting] = povm.outcome_labels, _steered(povm.effects, state)
    return Assemblage(outcomes, stacks)


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
    outcomes, ops = asm.outcomes[setting], asm.stacks[setting]
    weights = ops.trace(axis1=1, axis2=2).real
    table = np.clip(_traces(bob_meas.effects, ops), 0.0, None)
    entries: dict[str, tuple[float, ProbVec]] = {}
    omitted: list[str] = []
    for outcome, weight, probs in zip(outcomes, weights, table):
        if weight <= EPS_COND:
            omitted.append(outcome)
            continue
        probs = probs / weight
        entries[outcome] = (float(weight), ProbVec(probs / probs.sum()))
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
    rows = [[d if isinstance(d, ProbVec) else ProbVec(d) for d in row] for row in response]
    if len({len(row) for row in rows}) != 1 or len({pv.dim for row in rows for pv in row}) != 1:
        raise NotADistribution("every response row needs the same settings and outcome counts")
    if len({sigma.dim for _, sigma in hidden}) != 1:
        raise DimensionMismatch("hidden states must share Bob's dimension")
    labels = tuple(str(a) for a in range(rows[0][0].dim))
    responses = np.array([[pv.values for pv in row] for row in rows])
    sigmas = np.array([sigma.matrix for _, sigma in hidden])
    # element (s, a) = sum_lam p(lam) p(a | s, lam) sigma_lam
    ops = np.einsum("l,lsa,lij->saij", weights.values, responses, sigmas)
    return Assemblage(dict.fromkeys(range(len(ops)), labels), dict(enumerate(ops)))


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
                "operator": matrix_to_json(op),
            }
            for setting in asm.settings
            for outcome, op in zip(asm.outcomes[setting], asm.stacks[setting])
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
    outcomes: dict[int, list[str]] = {s: [] for s in settings}
    elements: dict[int, list[np.ndarray]] = {s: [] for s in settings}
    for setting, outcome, operator in entries:
        if setting not in outcomes:
            raise BadParameter(f"element setting {setting} is not listed in settings")
        element = matrix_from_json(operator)
        if element.shape != (bob_dim, bob_dim):
            raise DimensionMismatch("element dimension differs from bob_dim")
        outcomes[setting].append(outcome)
        elements[setting].append(element)
    return Assemblage(outcomes, {s: np.array(ops) for s, ops in elements.items()})

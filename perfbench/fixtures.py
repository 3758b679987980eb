"""Seeded inputs for the benchmark workloads, built with numpy alone.

Every generator here fixes the structure of what it returns (term counts,
hidden-state counts, matrix shapes) and draws only the values from the
seed, so every op of a workload does the same unit of work on every seed.
Inputs for op ``i`` of a run with seed ``s`` come from the generator seeded
with ``[s, i]``, which makes each op's inputs independent of which ops ran
before it (a traced op and an untraced op with one id see the same inputs).

This module must not import ``uwit``: the cold-start sampler imports it
before it starts the clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SEPARABLE_TERMS = 8     # product terms in each separable fixture state
HIDDEN_STATES = 3       # hidden states in each local-hidden-state fixture
CENSUS_STATES = 64      # states per measurement set in one census op

SETUP_STREAM = 2**32 - 1   # op ids stay below it

QUTRIT_STRINGS = tuple((a, b) for a in "012" for b in "012")


def op_rng(seed: int, op_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, op_id])


def setup_rng(seed: int) -> np.random.Generator:
    """Stream for the inputs a workload's set-up builds once per run."""
    return np.random.default_rng([seed, SETUP_STREAM])


def program_seed(rng: np.random.Generator) -> int:
    """A seed argument handed to the program itself."""
    return int(rng.integers(0, 2**31 - 1))


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random qubit density matrix, G G^dagger / tr."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def probability_rows(rng: np.random.Generator, rows: int, cols: int) -> list[list[float]]:
    p = rng.exponential(size=(rows, cols))
    return (p / p.sum(axis=1, keepdims=True)).tolist()


@dataclass(frozen=True)
class SoundnessFixture:
    """One separable two-qubit state plus one local-hidden-state model."""

    separable_matrix: np.ndarray                     # 4 x 4, SEPARABLE_TERMS product terms
    directions: tuple[np.ndarray, ...]               # four Bloch directions a1, a2, b1, b2
    hidden_weights: tuple[float, ...]                # HIDDEN_STATES weights summing to 1
    hidden_matrices: tuple[np.ndarray, ...]          # HIDDEN_STATES qubit density matrices
    response: list[list[list[float]]]                # [hidden][setting][outcome], 2 x 2 per row


def soundness_fixture(seed: int, op_id: int) -> SoundnessFixture:
    rng = op_rng(seed, op_id)
    weights = rng.exponential(size=SEPARABLE_TERMS)
    weights /= weights.sum()
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        m += w * np.kron(random_qubit_density(rng), random_qubit_density(rng))
    directions = tuple(unit_vector(rng) for _ in range(4))
    hidden_w = rng.exponential(size=HIDDEN_STATES)
    hidden_w /= hidden_w.sum()
    hidden = tuple(random_qubit_density(rng) for _ in range(HIDDEN_STATES))
    response = [probability_rows(rng, 2, 2) for _ in range(HIDDEN_STATES)]
    return SoundnessFixture(m, directions, tuple(float(w) for w in hidden_w), hidden, response)


def census_seeds(seed: int, op_id: int) -> tuple[int, int]:
    """Program seeds for the qubit and the qutrit census of one op."""
    rng = op_rng(seed, op_id)
    return program_seed(rng), program_seed(rng)


def qutrit_steering_config(seed: int) -> dict:
    """Fine-grained qutrit steering scenario: isotropic:3 state, mub:3:2 on both sides.

    Two measurements with three outcomes give 9 Bob outcome strings, so the
    CLI checks every column against its reachable-string bound map.
    """
    rng = setup_rng(seed)
    fidelity = float(rng.uniform(0.0, 1.0))
    outcomes = QUTRIT_STRINGS[int(rng.integers(len(QUTRIT_STRINGS)))]
    return {
        "scenario_kind": "steering",
        "flavor": "fine_grained",
        "state": f"isotropic:3:{fidelity!r}",
        "measurements": {"alice": "mub:3:2", "bob": "mub:3:2"},
        "outcomes": list(outcomes),
    }


BOUND_CONFIGS = {
    "xyz": {"scenario_kind": "bound_only",
            "measurements": {"meas": ["pauli_x", "pauli_y", "pauli_z"]}},
    "mub32": {"scenario_kind": "bound_only", "measurements": {"meas": "mub:3:2"}},
    "mub33": {"scenario_kind": "bound_only", "measurements": {"meas": "mub:3:3"}},
    "fg_entanglement": {
        "scenario_kind": "entanglement",
        "flavor": "fine_grained",
        "state": "bell_phi_plus",
        "measurements": {"x": ["pauli_x", "pauli_z"], "y": ["pauli_x", "pauli_z"]},
        "outcomes": "matched",
    },
}

"""The four benchmark workloads: one fixed round of library calls per op.

Each workload builds what its ops share in ``setup``; ``inputs`` draws one
op's inputs from the seed (benchmark code, untimed); ``run`` is the timed
call into the library; ``check`` is the correctness gate and raises
:class:`GateFailure` on a wrong result.  ``check`` returns a signature of
the op's outcome (exit codes, verdicts, counts) so that two runs of one op
can be compared exactly.

Library functions are looked up through their modules at call time
(``criteria.entanglement_universal``, not a local alias), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import fixtures
from uwit import assemblage, bounds, cli, criteria, oracle, probvec, quantifier, quantum

# Restarts for every numeric bound the benchmark asks for.  A single ascent
# restart on mub:3:3 lands in a local optimum about 29% of the time, so 10
# restarts miss the global optimum (and fail the op's check) with
# probability ~0.29^10 = 4e-6 per op; 8 restarts (5e-5) would fail an op in
# every few hundred runs, and more restarts leave too few ops in a run.
RESTARTS = 10
OMEGA_ATOL = 1e-5
LANDAU_POLLAK_MUB3 = ((1.0 + 1.0 / np.sqrt(3.0)) / 2.0) ** 2

PRESET_VERDICTS = {
    "paper-example-1": (2, ("Detected",)),
    "paper-example-2": (2, ("Detected",)),
    "paper-eq12": (2, ("Detected",) + (("NotDetected",) * 4 + ("Detected",)) * 3),
}
QUTRIT_STEERING_VERDICTS = (0, ("NotDetected",) * 9)

OMEGA_REFERENCES = {
    "xyz": [0.5, 0.5] + [0.0] * 6,
    "mub32": [0.6220094678657075, 0.20290648926454946, 0.175084042869743] + [0.0] * 6,
    "mub33": [0.3615325090745248, 0.3192337454627376, 0.31923374546273764] + [0.0] * 24,
}
FG_ENTANGLEMENT_BOUND = 0.750001
FG_ENTANGLEMENT_VERDICTS = (2, ("Detected",))


class GateFailure(Exception):
    """An op produced a wrong result."""


def _gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def _check_omega(name: str, omega) -> None:
    ref = OMEGA_REFERENCES[name]
    _gate(len(omega) == len(ref), f"{name}: omega has {len(omega)} entries, expected {len(ref)}")
    gap = float(np.max(np.abs(np.asarray(omega) - np.asarray(ref))))
    _gate(gap <= OMEGA_ATOL, f"{name}: omega differs from its reference by {gap:.3e}")


def _take_report(path: Path) -> dict:
    """Read a report the op wrote, then delete it.

    The next op then creates its report afresh.  On ext4, truncating and
    rewriting one file starts writeback when it is closed (auto_da_alloc),
    and that disk latency, not the program, dominated the op-time tail.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    path.unlink()
    return payload


def _verdicts(payload: dict) -> tuple[str, ...]:
    return tuple(r["verdict"] for r in payload.get("reports", []))


class Workload:
    name = ""
    items_per_op = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        pass

    def inputs(self, op_id: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> tuple:
        raise NotImplementedError


class Scenarios(Workload):
    """In-process ``cli.run`` over the three presets and a qutrit steering config."""

    name = "scenarios"
    items_per_op = 4

    def setup(self) -> None:
        config = self.workdir / "qutrit_steering.json"
        config.write_text(json.dumps(fixtures.qutrit_steering_config(self.seed)))
        self.scenarios = [f"preset:{p}" for p in PRESET_VERDICTS] + [str(config)]
        self.expected = list(PRESET_VERDICTS.values()) + [QUTRIT_STEERING_VERDICTS]
        self.reports = [self.workdir / f"scenario_{k}.json" for k in range(len(self.scenarios))]

    def inputs(self, op_id: int):
        return None

    def run(self, inputs):
        return [cli.run(s, json_path=str(out), quiet=True)
                for s, out in zip(self.scenarios, self.reports)]

    def check(self, inputs, result) -> tuple:
        payloads = [_take_report(out) for out in self.reports]
        outcome = []
        for scenario, code, payload, (want_code, want_verdicts) in zip(
            self.scenarios, result, payloads, self.expected
        ):
            verdicts = _verdicts(payload)
            _gate(code == want_code, f"{scenario}: exit code {code}, expected {want_code}")
            _gate(verdicts == want_verdicts, f"{scenario}: verdicts {verdicts}")
            outcome.append((code, verdicts))
        return tuple(outcome)


class Census(Workload):
    """One ``verify_majorization_bound`` round on a qubit and a qutrit measurement set."""

    name = "census"
    items_per_op = 2 * fixtures.CENSUS_STATES

    def setup(self) -> None:
        sx, sy = quantum.pauli_observable("x"), quantum.pauli_observable("y")
        self.qubit_povms = [sx.povm(), sy.povm()]
        self.qubit_bound = bounds.omega_two_dichotomic(sx, sy)
        self.qutrit_povms = [o.povm() for o in quantum.mub_bases(3, 3)]
        setup_seed = fixtures.program_seed(fixtures.setup_rng(self.seed))
        self.qutrit_bound = bounds.omega_numeric(
            self.qutrit_povms, restarts=RESTARTS, seed=setup_seed
        )
        _check_omega("mub33", self.qutrit_bound.omega.values)

    def inputs(self, op_id: int):
        return fixtures.census_seeds(self.seed, op_id)

    def run(self, inputs):
        qubit_seed, qutrit_seed = inputs
        return (
            oracle.verify_majorization_bound(
                self.qubit_bound, self.qubit_povms, fixtures.CENSUS_STATES, qubit_seed),
            oracle.verify_majorization_bound(
                self.qutrit_bound, self.qutrit_povms, fixtures.CENSUS_STATES, qutrit_seed),
        )

    def check(self, inputs, result) -> tuple:
        for census in result:
            _gate(census.samples == fixtures.CENSUS_STATES, f"census ran {census.samples} samples")
            _gate(census.violations == 0, f"{census.violations} majorization violations")
        return tuple((c.samples, c.violations, c.worst_margin) for c in result)


class Soundness(Workload):
    """Every criterion on one separable state and one LHS assemblage; none may detect."""

    name = "soundness"
    items_per_op = 8    # criterion calls per op

    def setup(self) -> None:
        self.sx = quantum.pauli_observable("x")
        self.sy = quantum.pauli_observable("y")
        sz = quantum.pauli_observable("z")
        self.xy_povms = [self.sx.povm(), self.sy.povm()]
        self.xz_povms = [self.sx.povm(), sz.povm()]
        self.bound_xy = bounds.omega_two_dichotomic(self.sx, self.sy)
        self.half = probvec.ProbVec([0.5, 0.5])
        self.fg_outcomes = (("+", "0"), ("+", "0"))
        self.fg_priors = probvec.ProbVec([0.5, 0.0, 0.0, 0.5])
        self.fg_product_bound = bounds.fine_grained_bound_product(
            self.xz_povms, self.xz_povms, self.fg_outcomes, self.fg_priors,
            restarts=RESTARTS, seed=fixtures.program_seed(fixtures.setup_rng(self.seed)),
        )
        self.fg_bound_map = {
            labels: bounds.fine_grained_bound(self.xz_povms, labels, self.half)
            for labels in (("+", "0"), ("+", "1"), ("-", "0"), ("-", "1"))
        }

    def inputs(self, op_id: int):
        return fixtures.soundness_fixture(self.seed, op_id)

    def run(self, fx: fixtures.SoundnessFixture):
        state = quantum.DensityState(fx.separable_matrix, dims=(2, 2))
        a1, a2, b1, b2 = (quantum.bloch_observable(n) for n in fx.directions)
        bound_a = bounds.omega_two_dichotomic(a1, a2)
        bound_b = bounds.omega_two_dichotomic(b1, b2)
        xy = (self.sx, self.sy)
        reports = []
        for q in (quantifier.SHANNON, quantifier.MIN_ENTROPY):
            reports.append(criteria.entanglement_universal(
                state, xy, xy, q, self.bound_xy, self.bound_xy))
            reports.append(criteria.entanglement_universal(
                state, (a1, a2), (b1, b2), q, bound_a, bound_b))
        reports.append(criteria.entanglement_fine_grained(
            state, self.xz_povms, self.xz_povms, self.fg_outcomes, self.fg_priors,
            self.fg_product_bound))
        hidden = [(w, quantum.DensityState(m)) for w, m in zip(fx.hidden_weights, fx.hidden_matrices)]
        asm = assemblage.lhs_assemblage(hidden, fx.response)
        for q in (quantifier.SHANNON, quantifier.MIN_ENTROPY):
            reports.append(criteria.steering_universal(asm, self.xy_povms, None, q, self.bound_xy))
        reports.extend(criteria.steering_fine_grained(
            asm, self.xz_povms, ("+", "0"), self.half, self.fg_bound_map))
        return reports

    def check(self, inputs, result) -> tuple:
        detected = [r.criterion for r in result if r.detected]
        _gate(not detected, f"false positives on separable/LHS fixtures: {detected}")
        return tuple((r.criterion, r.verdict, r.lhs_value) for r in result)


class Bounds(Workload):
    """A ``cli.run`` round over four bound requests at a fixed restart count."""

    name = "bounds"
    items_per_op = 4

    def setup(self) -> None:
        self.requests = []
        for name, config in fixtures.BOUND_CONFIGS.items():
            path = self.workdir / f"bound_{name}.json"
            path.write_text(json.dumps(config))
            self.requests.append((name, path, self.workdir / f"bound_{name}.out.json"))

    def inputs(self, op_id: int):
        return fixtures.program_seed(fixtures.op_rng(self.seed, op_id))

    def run(self, seed: int):
        return [cli.run(str(path), json_path=str(out), quiet=True, seed=seed, restarts=RESTARTS)
                for _, path, out in self.requests]

    def check(self, inputs, result) -> tuple:
        payloads = [_take_report(out) for _, _, out in self.requests]
        outcome = []
        for (name, _, _), code, payload in zip(self.requests, result, payloads):
            if name in OMEGA_REFERENCES:
                _gate(code == 0, f"{name}: exit code {code}, expected 0")
                omega = payload["bound_vector"]["omega"]
                _check_omega(name, omega)
                if name == "mub32":
                    _gate(omega[0] >= LANDAU_POLLAK_MUB3,
                          f"mub32: omega_1 {omega[0]!r} below the Landau-Pollak value")
                outcome.append((code, tuple(omega)))
            else:
                verdicts = _verdicts(payload)
                bound = payload["reports"][0]["bound_value"]
                _gate((code, verdicts) == FG_ENTANGLEMENT_VERDICTS,
                      f"{name}: exit code {code}, verdicts {verdicts}")
                _gate(abs(bound - FG_ENTANGLEMENT_BOUND) <= OMEGA_ATOL,
                      f"{name}: product-state bound {bound!r}")
                outcome.append((code, verdicts, bound))
        return tuple(outcome)


WORKLOADS = {w.name: w for w in (Scenarios, Census, Soundness, Bounds)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)

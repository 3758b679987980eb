"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints one ACCEPTANCE <name>: PASS/FAIL line (visible under
``pytest -s`` or in captured output on failure).  Tolerances are pinned here
and nowhere else.  Runtime of the full module is a few minutes, dominated by
the seeded soundness censuses.
"""

import itertools
import json
from contextlib import contextmanager

import numpy as np
import pytest

from uwit import (
    MIN_ENTROPY,
    SHANNON,
    bell_phi_plus,
    brute_force_topk,
    born_stats,
    cross_check_fine_grained,
    default_quantifiers,
    entanglement_fine_grained,
    entanglement_universal,
    fine_grained_bound,
    fine_grained_bound_product,
    kron_state,
    lhs_assemblage,
    majorized_by,
    make_probvec,
    maximally_mixed,
    mub_bases,
    maassen_uffink,
    omega_numeric,
    omega_two_dichotomic,
    pauli_observable,
    point_mass,
    random_relabel,
    shannon,
    steer,
    steering_fine_grained,
    steering_fine_grained_tensor,
    steering_universal,
    tensor,
    threshold_scan,
    uniform,
    verify_majorization_bound,
    werner,
)
from uwit.cli import run as cli_run
from uwit.probvec import ProbVec
from uwit.quantum import (
    correlation_tensor,
    random_mixed_state,
    random_qubit_observable,
    random_separable_state,
)

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")
GAMMA1 = (3 + 2 * np.sqrt(2)) / 8
OMEGA_XY_EXPECTED = np.array([GAMMA1, (5 - 2 * np.sqrt(2)) / 8, 0.0, 0.0])
HALF = make_probvec((0.5, 0.5))
XY_POVMS = [SX.povm(), SY.povm()]
XZ_POVMS = [SX.povm(), SZ.povm()]


@contextmanager
def criterion(name: str):
    try:
        yield
    except AssertionError as exc:
        print(f"\nACCEPTANCE {name}: FAIL ({exc})")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def random_dist(rng, d):
    v = rng.exponential(size=d)
    return ProbVec(v / v.sum())


def test_bound_vector_regression():
    with criterion("bound-vector-regression"):
        omega = omega_two_dichotomic(SX, SY).omega
        assert np.max(np.abs(omega.values - OMEGA_XY_EXPECTED)) <= 1e-12
        assert abs(shannon(omega) - 0.8435) <= 5e-4


def test_numeric_analytic_agreement():
    with criterion("numeric-analytic-agreement"):
        analytic = omega_two_dichotomic(SX, SY).omega.values
        numeric = omega_numeric(XY_POVMS, restarts=64, seed=0).omega.values
        assert np.max(np.abs(numeric - analytic)) <= 1e-5
        witness = brute_force_topk(XY_POVMS, 1, 1_000_000)
        assert abs(witness - GAMMA1) <= 1e-4


def test_fine_grained_bound_exactness():
    with criterion("fine-grained-bound-exactness"):
        block = fine_grained_bound(XZ_POVMS, ("+", "0"), HALF)
        assert abs(block.value - (0.5 + 1 / (2 * np.sqrt(2)))) <= 1e-9
        eigen, grid = cross_check_fine_grained(XZ_POVMS, ("+", "0"), HALF, 1_000_000)
        assert abs(eigen - grid) <= 1e-6
        mub_povms = [o.povm() for o in mub_bases(2, 3)]
        triple = fine_grained_bound(mub_povms, ("0", "0", "0"), uniform(3))
        # (1/d)(1 + (d - 1)/sqrt(m)) for m = 3 qubit MUBs
        assert abs(triple.value - (1 + 1 / np.sqrt(3)) / 2) <= 1e-9
        assert abs(triple.value - 0.788675) <= 1e-6


def test_maassen_uffink_regression():
    with criterion("maassen-uffink-regression"):
        assert maassen_uffink(SX, SY) == 1.0


def test_worked_example_presets(tmp_path):
    with criterion("worked-example-presets"):
        path1 = tmp_path / "ex1.json"
        code = cli_run("preset:paper-example-1", json_path=str(path1), quiet=True)
        payload = json.loads(path1.read_text())
        assert code == 2
        assert payload["reports"][0]["lhs_value"] == pytest.approx(0.0, abs=1e-9)
        assert payload["reports"][0]["verdict"] == "Detected"

        path2 = tmp_path / "ex2.json"
        code = cli_run("preset:paper-example-2", json_path=str(path2), quiet=True)
        payload = json.loads(path2.read_text())
        assert code == 2
        assert payload["reports"][0]["lhs_value"] == pytest.approx(0.0, abs=1e-9)
        assert payload["reports"][0]["verdict"] == "Detected"

        for preset in ("paper-example-1", "paper-example-2"):
            code = cli_run(
                f"preset:{preset}", state_override="maximally_mixed:4", quiet=True
            )
            assert code == 0


def test_soundness_suite():
    with criterion("soundness-suite"):
        rng = np.random.default_rng(2024)
        bound_xy = omega_two_dichotomic(SX, SY)
        fg_singleton = fine_grained_bound_product(
            XZ_POVMS, XZ_POVMS, (("+", "0"), ("+", "0")),
            make_probvec((0.5, 0.0, 0.0, 0.5)), restarts=32, seed=1,
        )
        fg_bound_map = {
            labels: fine_grained_bound(XZ_POVMS, labels, HALF)
            for labels in itertools.product(("+", "-"), ("0", "1"))
        }
        false_positives = 0

        for _ in range(1000):
            state = random_separable_state(2, 2, rng, max_terms=16)
            a1, a2 = random_qubit_observable(rng), random_qubit_observable(rng)
            b1, b2 = random_qubit_observable(rng), random_qubit_observable(rng)
            bound_a = omega_two_dichotomic(a1, a2)
            bound_b = omega_two_dichotomic(b1, b2)
            for q in (SHANNON, MIN_ENTROPY):
                if entanglement_universal(state, (SX, SY), (SX, SY), q,
                                          bound_xy, bound_xy).detected:
                    false_positives += 1
                if entanglement_universal(state, (a1, a2), (b1, b2), q,
                                          bound_a, bound_b).detected:
                    false_positives += 1
            if entanglement_fine_grained(
                state, XZ_POVMS, XZ_POVMS, (("+", "0"), ("+", "0")),
                make_probvec((0.5, 0.0, 0.0, 0.5)), fg_singleton,
            ).detected:
                false_positives += 1

        from uwit.oracle import random_lhs_fixture

        for _ in range(1000):
            hidden, response = random_lhs_fixture(rng)
            asm = lhs_assemblage(hidden, response)
            for q in (SHANNON, MIN_ENTROPY):
                if steering_universal(asm, XY_POVMS, None, q, bound_xy).detected:
                    false_positives += 1
            reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, fg_bound_map)
            false_positives += sum(1 for r in reports if r.detected)

        assert false_positives == 0, f"{false_positives} false positives"

        bound_zx = omega_two_dichotomic(SZ, SX)
        bound_numeric = omega_numeric(XY_POVMS, restarts=64, seed=0)
        checks = [
            (bound_xy, XY_POVMS, 101),
            (bound_zx, [SZ.povm(), SX.povm()], 102),
            (bound_numeric, XY_POVMS, 103),
        ]
        for bound, meas, seed in checks:
            census = verify_majorization_bound(bound, meas, 10_000, seed=seed)
            assert census.violations == 0, (
                f"{census.violations} majorization violations for {bound.method}"
            )


def test_quantifier_property_suite():
    with criterion("quantifier-property-suite"):
        rng = np.random.default_rng(31337)
        quantifiers = default_quantifiers()
        for q in quantifiers:
            assert abs(q(point_mass(4))) <= 1e-12

        for _ in range(10_000):
            d = int(rng.integers(2, 6))
            p = random_dist(rng, d)
            # Schur concavity under a random relabeling
            perms = [tuple(int(i) for i in rng.permutation(d)) for _ in range(2)]
            w = float(rng.uniform())
            weights = {}
            for perm, x in zip(perms, (w, 1.0 - w)):
                weights[perm] = weights.get(perm, 0.0) + x
            mixed = random_relabel(p, weights)
            # permutation invariance
            shuffled = ProbVec(rng.permutation(p.values))
            # tensor additivity and mixing monotonicity ingredients
            q2 = random_dist(rng, int(rng.integers(2, 5)))
            lam = float(rng.uniform())
            same_dim = random_dist(rng, d)
            blend = ProbVec(lam * p.values + (1 - lam) * same_dim.values)
            for quant in quantifiers:
                assert quant(mixed) >= quant(p) - 1e-9
                assert abs(quant(shuffled) - quant(p)) <= 1e-9
                if quant.tensor_additive:
                    assert abs(quant(tensor(p, q2)) - quant(p) - quant(q2)) <= 1e-9
                if quant.mixing_monotone:
                    assert quant(blend) >= lam * quant(p) + (1 - lam) * quant(same_dim) - 1e-9


def test_werner_threshold_scan():
    with criterion("werner-threshold-scan"):
        grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10).tolist()
        bound_xy = omega_two_dichotomic(SX, SY)
        fg_bounds = {
            labels: fine_grained_bound(XZ_POVMS, labels, HALF)
            for labels in itertools.product(("+", "-"), ("0", "1"))
        }

        def ent(quantifier):
            def criterion_fn(w):
                return entanglement_universal(
                    werner(w), (SX, SY), (SX, SY), quantifier, bound_xy, bound_xy
                )
            return criterion_fn

        def steer_shannon(w):
            asm = steer(werner(w), XY_POVMS)
            return steering_universal(asm, XY_POVMS, None, SHANNON, bound_xy)

        def steer_fg(w):
            asm = steer(werner(w), XZ_POVMS)
            reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, fg_bounds)
            return max(reports, key=lambda r: r.margin)

        scans = {
            "entanglement shannon": threshold_scan("werner", ent(SHANNON), grid, 1e-4),
            "entanglement min_entropy": threshold_scan("werner", ent(MIN_ENTROPY), grid, 1e-4),
            "steering shannon": threshold_scan("werner", steer_shannon, grid, 1e-4),
            "steering fine_grained": threshold_scan("werner", steer_fg, grid, 1e-4),
        }
        for name, scan in scans.items():
            flips = sum(1 for a, b in zip(scan.verdicts, scan.verdicts[1:]) if a != b)
            assert flips == 1, f"{name}: {flips} flips"
            assert scan.threshold_estimate is not None, name
        w_shannon = scans["entanglement shannon"].threshold_estimate
        w_min = scans["entanglement min_entropy"].threshold_estimate
        assert w_min <= w_shannon, f"min-entropy {w_min} vs shannon {w_shannon}"
        # derived thresholds, recorded in the repo documentation
        assert w_min == pytest.approx(1 / np.sqrt(2), abs=2e-4)
        assert w_shannon == pytest.approx(0.8287, abs=2e-3)
        assert scans["steering fine_grained"].threshold_estimate == pytest.approx(
            1 / np.sqrt(2), abs=2e-4
        )


def test_tensor_path_equivalence():
    with criterion("tensor-path-equivalence"):
        rng = np.random.default_rng(99)
        directions = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
        fg_bounds = {
            labels: fine_grained_bound(XZ_POVMS, labels, HALF)
            for labels in itertools.product(("+", "-"), ("0", "1"))
        }
        worst = 0.0
        for _ in range(1000):
            state = random_mixed_state(4, rng, dims=(2, 2))
            tensor_reports = steering_fine_grained_tensor(
                correlation_tensor(state), directions
            )
            asm = steer(state, XZ_POVMS)
            by_column = {r.column: r.lhs_value for r in tensor_reports}
            compared = 0
            for labels in itertools.product(("+", "-"), ("0", "1")):
                state_reports = steering_fine_grained(
                    asm, XZ_POVMS, labels, HALF, fg_bounds
                )
                for report in state_reports:
                    # the tensor path labels both Bloch observables +/-, and
                    # z's "0"/"1" are its "+"/"-"
                    key = report.column.translate(str.maketrans("01", "+-"))
                    worst = max(worst, abs(by_column[key] - report.lhs_value))
                    compared += 1
            assert compared == len(tensor_reports) == 16
        assert worst <= 1e-8, f"worst lhs gap {worst:.3e}"

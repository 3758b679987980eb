import itertools

import numpy as np
import pytest

from uwit import (
    BadParameter,
    DensityState,
    FingerprintMismatch,
    UnsoundQuantifier,
    MIN_ENTROPY,
    SHANNON,
    bell_phi_plus,
    correlation_tensor,
    entanglement_fine_grained,
    entanglement_universal,
    fine_grained_bound_map,
    fine_grained_bound_product,
    get_quantifier,
    kron_state,
    lhs_assemblage,
    make_probvec,
    matched_outcome_events,
    maximally_mixed,
    omega_two_dichotomic,
    pauli_observable,
    Povm,
    bloch_observable,
    steer,
    steering_fine_grained,
    steering_fine_grained_tensor,
    steering_universal,
    uniform,
    werner,
)
from uwit.criteria import DETECTION_MARGIN
from uwit.oracle import random_lhs_fixture, threshold_scan
from uwit.quantum import projector, random_mixed_state

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")
KET0 = np.array([1.0, 0.0], dtype=complex)
OMEGA_XY = omega_two_dichotomic(SX, SY)
XY_POVMS = [SX.povm(), SY.povm()]
XZ_POVMS = [SX.povm(), SZ.povm()]
HALF = make_probvec((0.5, 0.5))


def xz_bound_map():
    return fine_grained_bound_map(XZ_POVMS, HALF)


def qubit_z_and_120_povms():
    """Bob's sigma_z and the xz-plane axis at 120 degrees from it: not mutually unbiased."""
    angle = 2 * np.pi / 3
    return [SZ.povm(), bloch_observable((np.sin(angle), 0.0, np.cos(angle))).povm()]


def random_qutrit_basis_povms(seed):
    rng = np.random.default_rng(seed)
    povms = []
    for _ in range(2):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(z)
        povms.append(Povm(tuple(projector(q[:, k]) for k in range(3)), ("0", "1", "2")))
    return povms


def binary_entropy(p):
    terms = [x * np.log2(x) for x in (p, 1 - p) if x > 0]
    return -sum(terms)


class TestEntanglementUniversal:
    def test_bell_detected(self):
        report = entanglement_universal(
            bell_phi_plus(), (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY
        )
        assert report.detected
        assert report.lhs_value == pytest.approx(0.0, abs=1e-12)
        assert report.bound_value == pytest.approx(0.8435, abs=5e-4)
        assert report.certified

    def test_product_zero_state_not_detected(self):
        ket00 = kron_state(DensityState(projector(KET0)), DensityState(projector(KET0)))
        report = entanglement_universal(ket00, (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY)
        assert not report.detected
        assert report.lhs_value == pytest.approx(2.0, abs=1e-9)

    def test_maximally_mixed_not_detected(self):
        report = entanglement_universal(
            maximally_mixed(4, dims=(2, 2)), (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY
        )
        assert not report.detected
        assert report.lhs_value == pytest.approx(2.0, abs=1e-9)

    def test_unsound_quantifier_rejected(self):
        with pytest.raises(UnsoundQuantifier):
            entanglement_universal(
                bell_phi_plus(), (SX, SY), (SX, SY), get_quantifier("renyi:2"),
                OMEGA_XY, OMEGA_XY,
            )

    def test_fingerprint_mismatch(self):
        other = omega_two_dichotomic(SZ, SX)
        with pytest.raises(FingerprintMismatch):
            entanglement_universal(bell_phi_plus(), (SX, SY), (SX, SY), SHANNON, other, OMEGA_XY)

    def test_verdict_margin_consistency(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = random_mixed_state(4, rng, dims=(2, 2))
            r = entanglement_universal(state, (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY)
            assert r.detected == (r.margin > DETECTION_MARGIN)
            assert r.margin == pytest.approx(r.bound_value - r.lhs_value, abs=1e-12)


class TestSteeringUniversal:
    def test_bell_detected(self):
        asm = steer(bell_phi_plus(), XY_POVMS)
        report = steering_universal(asm, XY_POVMS, None, SHANNON, OMEGA_XY)
        assert report.detected and report.lhs_value == pytest.approx(0.0, abs=1e-12)

    def test_lhs_fixture_not_detected(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            hidden, response = random_lhs_fixture(rng)
            asm = lhs_assemblage(hidden, response)
            report = steering_universal(asm, XY_POVMS, None, SHANNON, OMEGA_XY)
            assert not report.detected

    def test_werner_closed_form(self):
        for w in (0.3, 0.6, 0.9):
            asm = steer(werner(w), XY_POVMS)
            report = steering_universal(asm, XY_POVMS, None, SHANNON, OMEGA_XY)
            assert report.lhs_value == pytest.approx(2 * binary_entropy((1 + w) / 2), abs=1e-9)

    def test_min_entropy_admitted(self):
        asm = steer(bell_phi_plus(), XY_POVMS)
        report = steering_universal(asm, XY_POVMS, None, MIN_ENTROPY, OMEGA_XY)
        assert report.detected and report.quantifier_name == "min_entropy"

    def test_fingerprint_mismatch(self):
        asm = steer(bell_phi_plus(), XY_POVMS)
        with pytest.raises(FingerprintMismatch):
            steering_universal(asm, XZ_POVMS, None, SHANNON, OMEGA_XY)


class TestEntanglementFineGrained:
    def test_bell_correlated_events_detected(self):
        meas = XZ_POVMS
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        events = [
            matched_outcome_events(meas[i], meas[j])
            for i, j in itertools.product(range(2), repeat=2)
        ]
        bound = fine_grained_bound_product(meas, meas, events, priors, restarts=16, seed=4)
        report = entanglement_fine_grained(bell_phi_plus(), meas, meas, events, priors, bound)
        assert report.lhs_value == pytest.approx(1.0, abs=1e-9)
        assert bound.value == pytest.approx(0.75, abs=1e-5)
        assert report.detected

    def test_product_state_never_detected(self):
        rng = np.random.default_rng(63)
        meas = XZ_POVMS
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        bound = fine_grained_bound_product(
            meas, meas, (("+", "0"), ("+", "0")), priors, restarts=16, seed=5
        )
        for _ in range(50):
            state = kron_state(random_mixed_state(2, rng), random_mixed_state(2, rng))
            report = entanglement_fine_grained(
                state, meas, meas, (("+", "0"), ("+", "0")), priors, bound
            )
            assert not report.detected

    def test_single_pair_never_detected(self):
        # a lone setting pair is maximized by a product eigenstate
        meas_a = [SX.povm()]
        meas_b = [SX.povm()]
        bound = fine_grained_bound_product(
            meas_a, meas_b, (("+",), ("+",)), make_probvec((1.0,)), restarts=8, seed=6
        )
        report = entanglement_fine_grained(
            bell_phi_plus(), meas_a, meas_b, (("+",), ("+",)), make_probvec((1.0,)), bound
        )
        assert not report.detected

    def test_fingerprint_mismatch(self):
        meas = XZ_POVMS
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        bound = fine_grained_bound_product(
            meas, meas, (("+", "0"), ("+", "0")), priors, restarts=4, seed=7
        )
        with pytest.raises(FingerprintMismatch):
            entanglement_fine_grained(
                bell_phi_plus(), meas, meas, (("+", "1"), ("+", "1")), priors, bound
            )


class TestSteeringFineGrained:
    def test_bell_detected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, xz_bound_map())
        by_column = {r.column: r for r in reports}
        top = by_column["a'=('+', '0')"]
        assert top.lhs_value == pytest.approx(1.0, abs=1e-9)
        assert top.bound_value == pytest.approx(0.5 + 1 / (2 * np.sqrt(2)), abs=1e-12)
        assert top.detected

    def test_maximally_mixed_all_half(self):
        asm = steer(maximally_mixed(4, dims=(2, 2)), XZ_POVMS)
        reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, xz_bound_map())
        for r in reports:
            assert r.lhs_value == pytest.approx(0.5, abs=1e-12)
            assert not r.detected

    def test_lhs_fixtures_never_detected(self):
        rng = np.random.default_rng(64)
        bounds = xz_bound_map()
        for _ in range(30):
            hidden, response = random_lhs_fixture(rng)
            asm = lhs_assemblage(hidden, response)
            reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, bounds)
            assert not any(r.detected for r in reports)

    def test_adversarial_lhs_model_stays_sound(self):
        # hidden states aligned with Bob's measurement eigenstates and
        # announcements correlated per setting: the matching-game score stays
        # at 3/4, inside the bound
        plus = DensityState(projector((KET0 + np.array([0, 1])) / np.sqrt(2)))
        zero = DensityState(projector(KET0))
        hidden = [(0.5, plus), (0.5, zero)]
        response = [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0]],
        ]
        asm = lhs_assemblage(hidden, response)
        reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, xz_bound_map())
        assert max(r.lhs_value for r in reports) == pytest.approx(0.75, abs=1e-9)
        assert not any(r.detected for r in reports)
        # one hidden state at the witness of any outcome string reaches that
        # string's bound in some column, so only the maximum over all strings
        # is sound; Bob's x/z cannot show it, as all its strings share one bound
        for bob in (qubit_z_and_120_povms(), random_qutrit_basis_povms(66)):
            priors = uniform(len(bob))
            bounds = fine_grained_bound_map(bob, priors)
            configured = tuple(p.outcome_labels[0] for p in bob)
            announce_first = [[1.0] + [0.0] * (bob[0].n_outcomes - 1)] * len(bob)
            for bound in bounds.values():
                hidden = DensityState(projector(bound.operator_norm_witness))
                asm = lhs_assemblage([(1.0, hidden)], [announce_first])
                reports = steering_fine_grained(asm, bob, configured, priors, bounds)
                assert not any(r.detected for r in reports)
                assert max(r.lhs_value for r in reports) == pytest.approx(bound.value, abs=1e-9)

    def test_missing_outcome_string_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        bounds = xz_bound_map()
        del bounds[("-", "1")]
        with pytest.raises(BadParameter, match=r"\('-', '1'\)"):
            steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, bounds)

    def test_unknown_outcome_label_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        with pytest.raises(BadParameter, match="unknown outcome"):
            steering_fine_grained(asm, XZ_POVMS, ("+", "2"), HALF, xz_bound_map())


class TestSteeringTensorPath:
    def test_maximally_mixed(self):
        t = correlation_tensor(maximally_mixed(4, dims=(2, 2)))
        reports = steering_fine_grained_tensor(t, [(1, 0, 0), (0, 0, 1)])
        for r in reports:
            assert r.lhs_value == pytest.approx(0.5, abs=1e-12)
            assert not r.detected

    def test_bell_violates(self):
        t = correlation_tensor(bell_phi_plus())
        reports = steering_fine_grained_tensor(t, [(1, 0, 0), (0, 0, 1)])
        assert any(r.detected for r in reports)
        assert max(r.lhs_value for r in reports) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_state_path(self):
        rng = np.random.default_rng(65)
        directions = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
        for _ in range(100):
            state = random_mixed_state(4, rng, dims=(2, 2))
            t = correlation_tensor(state)
            tensor_reports = steering_fine_grained_tensor(t, directions)
            asm = steer(state, XZ_POVMS)
            bounds = xz_bound_map()
            for bob_string in itertools.product((0, 1), repeat=2):
                labels = (
                    XZ_POVMS[0].outcome_labels[bob_string[0]],
                    XZ_POVMS[1].outcome_labels[bob_string[1]],
                )
                state_reports = steering_fine_grained(asm, XZ_POVMS, labels, HALF, bounds)
                matching = [
                    r for r in tensor_reports if r.column.startswith(f"a={bob_string}")
                ]
                for sr, tr in zip(state_reports, matching):
                    assert sr.lhs_value == pytest.approx(tr.lhs_value, abs=1e-8)

    def test_product_states_never_detected(self):
        rng = np.random.default_rng(67)

        def unit():
            v = rng.normal(size=3)
            return v / np.linalg.norm(v)

        for _ in range(200):
            a, b = unit(), unit()
            # pure product state with Bloch vectors a and b
            state = kron_state(
                DensityState(bloch_observable(a).projectors[0]),
                DensityState(bloch_observable(b).projectors[0]),
            )
            reports = steering_fine_grained_tensor(
                correlation_tensor(state), [unit(), unit()], [unit(), unit()]
            )
            assert not any(r.detected for r in reports)

    def test_direction_validation(self):
        from uwit import BadParameter

        t = correlation_tensor(maximally_mixed(4, dims=(2, 2)))
        with pytest.raises(BadParameter):
            steering_fine_grained_tensor(t, [(2.0, 0.0, 0.0), (0.0, 0.0, 1.0)])


class TestWernerMonotonicity:
    def test_shannon_lhs_single_crossing(self):
        def criterion(w):
            return entanglement_universal(
                werner(w), (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY
            )

        grid = np.linspace(0.0, 1.0, 21)
        scan = threshold_scan("werner", criterion, grid.tolist(), 1e-3)
        assert all(a >= b - 1e-12 for a, b in zip(scan.lhs_values, scan.lhs_values[1:]))
        assert scan.threshold_estimate is not None
        assert 0.80 < scan.threshold_estimate < 0.85

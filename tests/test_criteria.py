import dataclasses
import itertools

import numpy as np
import pytest

from uwit import (
    BadParameter,
    DensityState,
    DimensionMismatch,
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
    isotropic,
    kron_state,
    lhs_assemblage,
    make_probvec,
    matched_outcome_events,
    maximally_mixed,
    mub_bases,
    observable_from_matrix,
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
from uwit import criteria
from uwit.bounds import (
    ALTERNATING_NUMERIC,
    ANALYTIC_PRODUCT,
    NUMERIC_SLACK,
    _pair_events,
    _product_fingerprint,
)
from uwit.criteria import DETECTION_MARGIN
from uwit.oracle import random_lhs_fixture, threshold_scan
from uwit.quantum import PAULI_X, PAULI_Z, projector, random_mixed_state

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

    def test_zero_eigenvalue_product_state_not_detected(self):
        # (I + sigma_z)/2 and (I + sigma_x)/2 have eigenvalues 1 and 0, so
        # binning by the eigenvalue product put three joint outcomes in one bin
        a = observable_from_matrix((np.eye(2) + PAULI_Z) / 2)
        b = observable_from_matrix((np.eye(2) + PAULI_X) / 2)
        bound = omega_two_dichotomic(a, b)
        state = kron_state(DensityState(projector([0.0, 1.0])),
                           DensityState(projector([1.0, -1.0])))
        for q in (SHANNON, MIN_ENTROPY):
            report = entanglement_universal(state, (a, b), (a, b), q, bound, bound)
            assert report.verdict == "NotDetected"

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

    def test_prebuilt_observables_are_not_revalidated(self, monkeypatch):
        validations = []
        original = Povm.__post_init__

        def counting(self):
            validations.append(self)
            original(self)

        monkeypatch.setattr(Povm, "__post_init__", counting)
        state = bell_phi_plus()
        for _ in range(10):
            entanglement_universal(state, (SX, SY), (SX, SY), SHANNON, OMEGA_XY, OMEGA_XY)
        assert validations == []

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
        assert bound.method == ANALYTIC_PRODUCT
        assert report.detected and report.certified

    def test_product_states_never_reach_the_matched_closed_form(self):
        rng = np.random.default_rng(64)
        meas = XZ_POVMS
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        events = [matched_outcome_events(meas[i], meas[j])
                  for i, j in itertools.product(range(2), repeat=2)]
        bound = fine_grained_bound_product(meas, meas, events, priors, restarts=16, seed=4)
        assert bound.method == ANALYTIC_PRODUCT
        for _ in range(50):
            state = kron_state(random_mixed_state(2, rng), random_mixed_state(2, rng))
            report = entanglement_fine_grained(state, meas, meas, events, priors, bound)
            assert not report.detected

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

    def test_lhs_and_product_bound_sum_the_same_terms(self):
        # a qubit and a qutrit side, a zero-weight pair and events of two terms
        meas_a, meas_b = XZ_POVMS, random_qutrit_basis_povms(71)
        priors = make_probvec((0.4, 0.0, 0.1, 0.5))
        events = [[("+", "0"), ("-", "2")], [("+", "1")], [("0", "2"), ("1", "1")], [("1", "0")]]
        pairs = itertools.product(range(2), repeat=2)
        terms = [(w, meas_a[i].effect_for(a), meas_b[j].effect_for(b))
                 for w, (i, j), event in zip(priors.values, pairs, events) for a, b in event]
        state = random_mixed_state(6, np.random.default_rng(70), dims=(2, 3))
        bound = fine_grained_bound_product(meas_a, meas_b, events, priors, restarts=8, seed=8)
        # every event is a matching, but no witness attains the closed form
        assert bound.method == ALTERNATING_NUMERIC
        report = entanglement_fine_grained(state, meas_a, meas_b, events, priors, bound)
        lhs = sum(w * np.trace(np.kron(e, f) @ state.matrix).real for w, e, f in terms)
        assert report.lhs_value == pytest.approx(lhs, abs=1e-12)
        psi = bound.operator_norm_witness
        value = sum(w * (psi.conj() @ np.kron(e, f) @ psi).real for w, e, f in terms)
        assert bound.value == pytest.approx(value + NUMERIC_SLACK, abs=1e-12)

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


    def test_bound_of_other_priors_rejected(self):
        # under (1, 0, 0, 0) |+>|+> scores 1, above the x/z singleton bound
        # for (1/2, 0, 0, 1/2): that pairing would certify a product state
        plus = DensityState(projector(np.array([1.0, 1.0]) / np.sqrt(2)))
        state = kron_state(plus, plus)
        outcomes = (("+", "0"), ("+", "0"))
        bound = fine_grained_bound_product(
            XZ_POVMS, XZ_POVMS, outcomes, make_probvec((0.5, 0.0, 0.0, 0.5)), restarts=8, seed=3)
        assert bound.value < 0.73
        priors = make_probvec((1.0, 0.0, 0.0, 0.0))
        with pytest.raises(FingerprintMismatch):
            entanglement_fine_grained(state, XZ_POVMS, XZ_POVMS, outcomes, priors, bound)
        own = fine_grained_bound_product(XZ_POVMS, XZ_POVMS, outcomes, priors, restarts=8, seed=3)
        report = entanglement_fine_grained(state, XZ_POVMS, XZ_POVMS, outcomes, priors, own)
        assert report.lhs_value == pytest.approx(1.0, abs=1e-12) and not report.detected

    def test_bound_of_another_split_rejected(self):
        # Alice [Z, Z] with Bob [X], and Alice [Z] with Bob [Z, X], measure
        # the same three bases; the second split's bound sits below what the
        # product state |0>|+> scores under the first
        z, x = (o.povm() for o in mub_bases(2, 2))
        priors = make_probvec((0.5, 0.5))
        events = [matched_outcome_events(z, x)] * 2
        other = fine_grained_bound_product(
            [z], [z, x], [matched_outcome_events(z, z), matched_outcome_events(z, x)], priors,
            restarts=8, seed=0)
        assert other.method == ALTERNATING_NUMERIC and other.value < 0.86
        plus = DensityState(projector(np.array([1.0, 1.0]) / np.sqrt(2)))
        state = kron_state(DensityState(projector(np.array([1.0, 0.0]))), plus)
        with pytest.raises(FingerprintMismatch):
            entanglement_fine_grained(state, [z, z], [x], events, priors, other)
        own = fine_grained_bound_product([z, z], [x], events, priors, restarts=8, seed=0)
        report = entanglement_fine_grained(state, [z, z], [x], events, priors, own)
        assert report.lhs_value == pytest.approx(1.0, abs=1e-12) and not report.detected

    def test_unknown_label_on_a_zero_weight_pair(self):
        meas = XZ_POVMS
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        events = [matched_outcome_events(meas[i], meas[j])
                  for i, j in itertools.product(range(2), repeat=2)]
        good = fine_grained_bound_product(meas, meas, events, priors, restarts=4, seed=7)
        events[1] = [("nonsense", "?")]
        with pytest.raises(BadParameter):
            fine_grained_bound_product(meas, meas, events, priors, restarts=4, seed=7)
        # a bound whose fingerprint matches these events reaches the lhs sum
        bound = dataclasses.replace(good, measurement_fingerprint=_product_fingerprint(
            meas, meas, _pair_events(meas, meas, events), priors))
        with pytest.raises(BadParameter):
            entanglement_fine_grained(bell_phi_plus(), meas, meas, events, priors, bound)


class TestSteeringFineGrained:
    def test_bell_detected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        reports = steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, xz_bound_map())
        by_column = {r.column: r for r in reports}
        top = by_column["a=('+', '0'), a'=('+', '0')"]
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

    def test_column_scores_match_trace_by_trace_reference(self):
        # each column's lhs recomputed as the prior-weighted sum of matching
        # traces tr(E_{i, b+t} sigma_{i, a+t}), one trace at a time
        rng = np.random.default_rng(69)
        state = DensityState(random_mixed_state(9, rng).matrix, dims=(3, 3))
        asm = steer(state, random_qutrit_basis_povms(70))
        bob = random_qutrit_basis_povms(71)
        priors = make_probvec((0.3, 0.7))
        configured = ("1", "2")
        reports = steering_fine_grained(
            asm, bob, configured, priors, fine_grained_bound_map(bob, priors)
        )
        bob_idx = [p.outcome_labels.index(label) for p, label in zip(bob, configured)]
        columns = list(itertools.product(range(3), repeat=2))
        assert len(reports) == len(columns)
        for report, column in zip(reports, columns):
            lhs = 0.0
            for i, a in enumerate(column):
                labels = asm.outcomes[asm.settings[i]]
                for t in range(3):
                    sigma = asm.element(asm.settings[i], labels[(a + t) % 3])
                    effect = bob[i].effects[(bob_idx[i] + t) % 3]
                    lhs += priors.values[i] * float(np.trace(effect @ sigma).real)
            assert report.lhs_value == pytest.approx(lhs, abs=1e-12)
            assert report.detected == (lhs - report.bound_value > DETECTION_MARGIN)

    def test_missing_outcome_string_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        bounds = xz_bound_map()
        del bounds[("-", "1")]
        with pytest.raises(BadParameter, match=r"\('-', '1'\)"):
            steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, bounds)

    def test_bounds_of_other_priors_or_measurements_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        # the priors are keyed exactly: a 1e-6 shift in any one string's bound
        # raises as a 1e-4 shift does
        assert len(steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, xz_bound_map())) == 4
        for shift in (1e-6, 1e-4):
            other = fine_grained_bound_map(XZ_POVMS, make_probvec((0.5 + shift, 0.5 - shift)))
            for bounds in (other, xz_bound_map() | {("-", "1"): other[("-", "1")]}):
                with pytest.raises(FingerprintMismatch, match="these priors"):
                    steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, bounds)
        bounds = xz_bound_map()
        bounds[("-", "1")] = dataclasses.replace(bounds[("-", "1")], measurement_fingerprint="0")
        with pytest.raises(FingerprintMismatch, match=r"\('-', '1'\)"):
            steering_fine_grained(asm, XZ_POVMS, ("+", "0"), HALF, bounds)

    def test_bound_map_of_nearby_priors_rejected(self):
        # a map built 2.9e-6 off the priors sits below the true bound, and an
        # LHS assemblage at the best string's witness would clear it
        priors = make_probvec((0.3, 0.7))
        own = fine_grained_bound_map(XZ_POVMS, priors)
        near = fine_grained_bound_map(XZ_POVMS, make_probvec((0.3 + 2.9e-6, 0.7 - 2.9e-6)))
        best = max(own.values(), key=lambda b: b.value)
        assert max(b.value for b in near.values()) < best.value - DETECTION_MARGIN
        hidden = DensityState(projector(best.operator_norm_witness))
        asm = lhs_assemblage([(1.0, hidden)], [[[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(FingerprintMismatch):
            steering_fine_grained(asm, XZ_POVMS, None, priors, near)
        reports = steering_fine_grained(asm, XZ_POVMS, None, priors, own)
        assert max(r.lhs_value for r in reports) == pytest.approx(best.value, abs=1e-9)
        assert not any(r.detected for r in reports)

    def test_unknown_outcome_label_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        with pytest.raises(BadParameter, match="unknown outcome"):
            steering_fine_grained(asm, XZ_POVMS, ("+", "2"), HALF, xz_bound_map())

    @staticmethod
    def every_string_cases():
        rng = np.random.default_rng(72)
        mub32 = list(mub_bases(3, 2))
        hidden, response = random_lhs_fixture(rng, bob_dim=3, n_outcomes=3)
        return {
            "x/z on bell_phi_plus": (steer(bell_phi_plus(), XZ_POVMS), XZ_POVMS, HALF),
            "mub:3:2 on isotropic:3:0.7": (steer(isotropic(3, 0.7), mub32), mub32,
                                           make_probvec((0.3, 0.7))),
            "lhs assemblage": (lhs_assemblage(hidden, response), mub32, uniform(2)),
        }

    def test_every_string_is_the_one_string_calls_concatenated(self):
        def bits(r):
            return (r.lhs_value.hex(), r.bound_value.hex(), r.margin.hex(), r.verdict,
                    r.certified, r.column)

        for name, (asm, bob, priors) in self.every_string_cases().items():
            bounds = fine_grained_bound_map(bob, priors)
            every = steering_fine_grained(asm, bob, None, priors, bounds)
            one_by_one = [r for labels in itertools.product(*(p.outcome_labels for p in bob))
                          for r in steering_fine_grained(asm, bob, labels, priors, bounds)]
            assert len(every) == len(bounds) ** 2, name
            assert [bits(r) for r in every] == [bits(r) for r in one_by_one], name

    def test_bound_map_fingerprinted_once_per_call(self, monkeypatch):
        calls = []
        fingerprints = criteria.outcome_string_fingerprints
        monkeypatch.setattr(criteria, "outcome_string_fingerprints",
                            lambda *args: (calls.append(args), fingerprints(*args))[1])
        for asm, bob, priors in self.every_string_cases().values():
            calls.clear()
            steering_fine_grained(asm, bob, None, priors, fine_grained_bound_map(bob, priors))
            assert len(calls) == 1

    def test_outcome_string_of_another_length_rejected(self):
        asm = steer(bell_phi_plus(), XZ_POVMS)
        with pytest.raises(DimensionMismatch):
            steering_fine_grained(asm, XZ_POVMS, ("+",), HALF, xz_bound_map())


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
            for labels in itertools.product(("+", "-"), ("0", "1")):
                state_reports = steering_fine_grained(asm, XZ_POVMS, labels, HALF, bounds)
                # the tensor path labels both Bloch observables +/-, and z's
                # "0"/"1" are its "+"/"-"
                tensor_labels = (labels[0], "+-"[int(labels[1])])
                matching = [
                    r for r in tensor_reports if r.column.startswith(f"a={tensor_labels},")
                ]
                assert len(state_reports) == len(matching) == 4
                for sr, tr in zip(state_reports, matching):
                    assert tr.column == sr.column.translate(str.maketrans("01", "+-"))
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
                DensityState(bloch_observable(a).effects[0]),
                DensityState(bloch_observable(b).effects[0]),
            )
            reports = steering_fine_grained_tensor(
                correlation_tensor(state), [unit(), unit()], [unit(), unit()]
            )
            assert not any(r.detected for r in reports)

    def test_non_state_tensor_rejected(self):
        # diag(1, 1, 1, 1) has T[0,0] = 1 but encodes a matrix with
        # eigenvalue -0.5; it used to come out a certified Detected
        from uwit import BadParameter
        from uwit.quantum import state_from_correlation_tensor

        with pytest.raises(BadParameter, match="negative eigenvalue"):
            state_from_correlation_tensor(np.eye(4))
        with pytest.raises(BadParameter, match="negative eigenvalue"):
            steering_fine_grained_tensor(np.eye(4), [(1, 0, 0), (0, 0, 1)])
        t = correlation_tensor(maximally_mixed(4, dims=(2, 2)))
        t[0, 0] = 2.0
        with pytest.raises(BadParameter, match="trace"):
            steering_fine_grained_tensor(t, [(1, 0, 0), (0, 0, 1)])

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

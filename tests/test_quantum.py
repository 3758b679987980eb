import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from uwit import (
    BadParameter,
    Observable,
    Degenerate,
    DensityStack,
    DensityState,
    DimensionMismatch,
    NotHermitian,
    Povm,
    bell_phi_plus,
    bloch_observable,
    born_stats,
    conditional_stats,
    correlation_tensor,
    eig_hermitian,
    fingerprint_povms,
    isotropic,
    kron_state,
    majorized_by,
    maximally_mixed,
    mub_bases,
    observable_from_matrix,
    partial_trace,
    pauli_observable,
    product_observable_stats,
    schmidt_observables,
    state_from_correlation_tensor,
    steer,
    von_neumann_entropy,
    werner,
)
from uwit import quantum
from uwit.quantum import (
    MAX_DIM,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    projector,
    random_ket,
    random_mixed_state,
    random_product_state,
    random_separable_state,
)

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")


def joint_product_oracle(state, a, b):
    """Independent route: eigendecompose kron(a, b) and bin by eigenvalue."""
    joint = np.kron(a.matrix, b.matrix)
    obs = observable_from_matrix(joint)
    return [
        (ev, float(np.trace(p @ state.matrix).real))
        for ev, p in zip(obs.eigenvalues, obs.effects)
    ]


class TestEig:
    def test_pauli_z(self):
        w, v = eig_hermitian(PAULI_Z)
        assert np.allclose(w, [1.0, -1.0])
        assert abs(v[0, 0]) == pytest.approx(1.0)

    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_pauli_x(self):
        w, v = eig_hermitian(PAULI_X)
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(np.abs(v[:, 0]), [1 / np.sqrt(2)] * 2)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 2
            w, v = eig_hermitian(h)
            assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) < 1e-8

    def test_observable_merges_degenerate(self):
        obs = observable_from_matrix(np.eye(3))
        assert obs.eigenvalues == (1.0,)
        assert np.allclose(obs.effects[0], np.eye(3))
        assert not obs.nondegenerate

    def test_observable_reconstruction(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 2
            obs = observable_from_matrix(h)
            rebuilt = sum(ev * p for ev, p in zip(obs.eigenvalues, obs.effects))
            assert np.max(np.abs(rebuilt - h)) < 1e-8
            total = sum(obs.effects)
            assert np.max(np.abs(total - np.eye(d))) < 1e-9


def random_povm(d, n, rng):
    """n full-rank effects S^(-1/2) G_k S^(-1/2) with S = sum_k G_k: a non-projective POVM."""
    gs = [a @ a.conj().T for a in rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))]
    w, v = np.linalg.eigh(sum(gs))
    root = v @ np.diag(w ** -0.5) @ v.conj().T
    effects = [root @ g @ root for g in gs]
    return Povm(tuple((e + e.conj().T) / 2 for e in effects), tuple(str(k) for k in range(n)))


def random_observable(d, rng):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return observable_from_matrix(q @ np.diag(rng.normal(size=d)) @ q.conj().T)


def kron_joint_reference(state, povm_a, povm_b):
    """tr((E (x) F) rho), one effect pair at a time."""
    return np.array([[np.trace(np.kron(e, f) @ state.matrix).real for f in povm_b.effects]
                     for e in povm_a.effects])


FACTORS = [(2, 2), (3, 3), (2, 3)]


class TestBornRuleKernel:
    """The einsum contractions against the np.kron / np.trace formulas they replaced."""

    @pytest.mark.parametrize("da, db", FACTORS)
    def test_joint_statistics(self, da, db):
        rng = np.random.default_rng(90 + da * db)
        for _ in range(10):
            state = random_mixed_state(da * db, rng, dims=(da, db))
            a, b = random_povm(da, 3, rng), random_povm(db, 4, rng)
            steered = quantum._steered(np.array(a.effects), state)
            joint = quantum._traces(np.array(b.effects), steered)
            assert np.max(np.abs(joint - kron_joint_reference(state, a, b))) < 1e-12

    @pytest.mark.parametrize("da, db", FACTORS + [(3, 2)])
    def test_binned_product_stats(self, da, db):
        rng = np.random.default_rng(100 + da * db)
        for _ in range(10):
            state = random_mixed_state(da * db, rng, dims=(da, db))
            a, b = random_observable(da, rng), random_observable(db, rng)
            joint = np.clip(kron_joint_reference(state, a, b), 0.0, None)
            if da == db:
                want = [0.0] * da
                for i, row in enumerate(joint):
                    for j, prob in enumerate(row):
                        want[(i - j) % da] += prob
            else:
                want = joint.ravel()
            stats = product_observable_stats(state, a, b).values
            assert np.max(np.abs(stats - np.asarray(want) / np.sum(want))) < 1e-12

    @pytest.mark.parametrize("da, db", FACTORS)
    def test_steered_elements(self, da, db):
        rng = np.random.default_rng(110 + da * db)
        for _ in range(10):
            state = random_mixed_state(da * db, rng, dims=(da, db))
            alice = [random_povm(da, n, rng) for n in (2, 3)]
            asm = steer(state, alice)
            for setting, povm in enumerate(alice):
                for label, effect in zip(povm.outcome_labels, povm.effects):
                    big = np.kron(effect, np.eye(db)) @ state.matrix
                    want = np.einsum("ijil->jl", big.reshape(da, db, da, db))
                    assert np.max(np.abs(asm.element(setting, label) - want)) < 1e-12

    @pytest.mark.parametrize("da, db", FACTORS)
    def test_conditional_statistics(self, da, db):
        rng = np.random.default_rng(120 + da * db)
        for _ in range(10):
            state = random_mixed_state(da * db, rng, dims=(da, db))
            asm = steer(state, [random_povm(da, 3, rng)])
            bob = random_povm(db, 4, rng)
            cond = conditional_stats(asm, 0, bob)
            assert not cond.omitted
            for outcome, (weight, dist) in cond.entries.items():
                op = asm.element(0, outcome)
                probs = np.array([np.trace(e @ op).real for e in bob.effects])
                assert weight == pytest.approx(np.trace(op).real, abs=1e-12)
                want = np.clip(probs, 0.0, None) / np.clip(probs, 0.0, None).sum()
                assert np.max(np.abs(dist.values - want)) < 1e-12


class TestBornRule:
    def test_eigenstate(self):
        ket0 = DensityState(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(born_stats(ket0, SZ.povm()).values, [1.0, 0.0])
        assert np.allclose(born_stats(ket0, SX.povm()).values, [0.5, 0.5])

    def test_maximally_mixed(self):
        rng = np.random.default_rng(32)
        state = maximally_mixed(2)
        for _ in range(20):
            direction = rng.normal(size=3)
            from uwit import bloch_observable

            meas = bloch_observable(direction / np.linalg.norm(direction))
            assert np.allclose(born_stats(state, meas.povm()).values, [0.5, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_stats(maximally_mixed(3), SZ.povm())
        with pytest.raises(DimensionMismatch):
            born_stats(DensityStack(np.eye(3)[None] / 3), SZ.povm())


NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
WRONG_TRACE = np.diag([0.6, 0.6]).astype(complex)
NEGATIVE = np.diag([1.5, -0.5]).astype(complex)


class TestDensityStack:
    @pytest.mark.parametrize("bad", [NON_HERMITIAN, WRONG_TRACE, NEGATIVE],
                             ids=["non-hermitian", "trace", "negative-eigenvalue"])
    def test_rejects_what_density_state_rejects(self, bad):
        with pytest.raises((NotHermitian, BadParameter)) as single:
            DensityState(bad)
        good = maximally_mixed(2).matrix
        with pytest.raises(single.type):
            DensityStack(np.array([good, bad, good]))

    def test_shape_and_entries(self):
        with pytest.raises(DimensionMismatch):
            DensityStack(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch):
            DensityStack(np.zeros((0, 2, 2)))
        with pytest.raises(BadParameter):
            DensityStack(np.array([np.eye(2) / 2, [[np.nan, 0], [0, 0.5]]]))
        with pytest.raises(BadParameter):
            DensityStack(np.eye(MAX_DIM + 1)[None] / (MAX_DIM + 1))

    @pytest.mark.parametrize("bad", [NON_HERMITIAN, WRONG_TRACE, NEGATIVE],
                             ids=["non-hermitian", "trace", "negative-eigenvalue"])
    def test_rejects_a_bad_matrix_in_any_chunk(self, bad, monkeypatch):
        # chunks of two qubit matrices; the bad one is alone in the last
        monkeypatch.setattr(quantum, "_CHECK_ENTRIES", 8)
        with pytest.raises((NotHermitian, BadParameter)) as single:
            DensityState(bad)
        good = maximally_mixed(2).matrix
        with pytest.raises(single.type):
            DensityStack(np.array([good] * 4 + [bad]))

    def test_hermiticity_is_checked_before_positivity(self, monkeypatch):
        monkeypatch.setattr(quantum, "_CHECK_ENTRIES", 8)
        good = maximally_mixed(2).matrix
        with pytest.raises(NotHermitian):
            DensityStack(np.array([NEGATIVE, good, good, NON_HERMITIAN]))

    def test_validation_temporaries_stay_below_the_stack_size(self):
        # 2^18 qubit matrices, four chunks: besides the stored copy, checking
        # them holds chunk-sized temporaries only (whole-stack temporaries
        # for the adjoint, the difference and its modulus took 2.5 stacks)
        stack = np.broadcast_to(maximally_mixed(2).matrix, (2**18, 2, 2)).copy()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            DensityStack(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.5 * stack.nbytes

    def test_read_only_copy(self):
        raw = np.array([np.eye(2) / 2], dtype=complex)
        stack = DensityStack(raw)
        raw[0, 0, 0] = 5.0
        assert stack.matrices[0, 0, 0] == 0.5 and stack.dim == 2
        with pytest.raises(ValueError):
            stack.matrices[0, 0, 0] = 5.0


class TestProductStats:
    def test_phi_plus_xx(self):
        stats = product_observable_stats(bell_phi_plus(), SX, SX)
        assert np.allclose(stats.values, [1.0, 0.0], atol=1e-12)
        oracle = joint_product_oracle(bell_phi_plus(), SX, SX)
        assert oracle[0][0] == pytest.approx(1.0) and oracle[0][1] == pytest.approx(1.0)

    def test_phi_plus_yy(self):
        stats = product_observable_stats(bell_phi_plus(), SY, SY)
        assert np.allclose(stats.values, [0.0, 1.0], atol=1e-12)
        oracle = dict(joint_product_oracle(bell_phi_plus(), SY, SY))
        assert oracle[-1.0] == pytest.approx(1.0)

    def test_product_zero_state(self):
        ket0 = DensityState(np.diag([1.0, 0.0]).astype(complex))
        stats = product_observable_stats(kron_state(ket0, ket0), SX, SX)
        assert np.allclose(stats.values, [0.5, 0.5])

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            state = random_mixed_state(4, rng, dims=(2, 2))
            stats = product_observable_stats(state, SX, SY)
            oracle = joint_product_oracle(state, SX, SY)
            assert np.allclose(stats.values, [p for _, p in oracle], atol=1e-9)

    def test_local_majorization_for_products(self):
        # joint product statistics of a product state are majorized by both
        # local statistics, over binned Pauli pairs and generic observables
        rng = np.random.default_rng(34)
        from uwit.quantum import random_qubit_observable

        for i in range(1000):
            eta = random_mixed_state(2, rng)
            sigma = random_mixed_state(2, rng)
            state = kron_state(eta, sigma)
            if i % 2 == 0:
                a, b = SX, SY
            else:
                a, b = random_qubit_observable(rng), random_qubit_observable(rng)
            joint = product_observable_stats(state, a, b)
            assert majorized_by(joint, born_stats(eta, a.povm()))
            assert majorized_by(joint, born_stats(sigma, b.povm()))

    def test_local_majorization_for_any_spectrum(self):
        # zero and shared eigenvalues make eigenvalue products collide; binned
        # by outcome index, product-state statistics stay majorized by both
        # local ones, also for qutrits and for unequal outcome counts
        rng = np.random.default_rng(37)

        def observable(d):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            spectrum = rng.choice((0.0, 1.0, 2.0, -1.0, 0.5, 0.5 + 2e-8), size=d, replace=False)
            return observable_from_matrix(q @ np.diag(spectrum) @ q.conj().T)

        for da, db in ((2, 2), (3, 3), (2, 3), (3, 2)):
            for _ in range(100):
                eta, sigma = random_mixed_state(da, rng), random_mixed_state(db, rng)
                a, b = observable(da), observable(db)
                joint = product_observable_stats(kron_state(eta, sigma), a, b)
                assert majorized_by(joint, born_stats(eta, a.povm()))
                assert majorized_by(joint, born_stats(sigma, b.povm()))

    def test_bins_follow_outcome_index(self):
        rng = np.random.default_rng(38)
        for da, db in ((2, 2), (3, 3), (2, 3)):
            state = random_mixed_state(da * db, rng, dims=(da, db))
            a = observable_from_matrix(np.diag(np.arange(da, 0, -1.0) - 1.0))
            b = observable_from_matrix(np.diag(np.arange(db, 0, -1.0) - 1.0))
            joint = np.real(np.diag(state.matrix)).reshape(da, db)
            stats = product_observable_stats(state, a, b).values
            if da == db:
                want = [sum(joint[i, (i - c) % da] for i in range(da)) for c in range(da)]
            else:
                want = joint.ravel()
            assert np.allclose(stats, want, atol=1e-12)


class TestPartialTrace:
    def test_bell(self):
        assert np.allclose(partial_trace(bell_phi_plus(), "B").matrix, np.eye(2) / 2)
        assert np.allclose(partial_trace(bell_phi_plus(), "A").matrix, np.eye(2) / 2)

    def test_product(self):
        rng = np.random.default_rng(35)
        eta = random_mixed_state(2, rng)
        sigma = random_mixed_state(3, rng)
        state = kron_state(eta, sigma)
        assert np.allclose(partial_trace(state, "A").matrix, eta.matrix, atol=1e-12)
        assert np.allclose(partial_trace(state, "B").matrix, sigma.matrix, atol=1e-12)

    def test_werner_reduction(self):
        assert np.allclose(partial_trace(werner(0.7), "B").matrix, np.eye(2) / 2)

    def test_preserves_positivity_and_trace(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            state = random_mixed_state(6, rng, dims=(2, 3))
            reduced = partial_trace(state, "B")
            assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(reduced.matrix)[0] > -1e-10


class TestFamilies:
    def test_werner_limits(self):
        assert np.allclose(werner(0.0).matrix, np.eye(4) / 4)
        assert np.allclose(werner(1.0).matrix, bell_phi_plus().matrix)
        with pytest.raises(BadParameter):
            werner(1.5)

    def test_werner_correlator(self):
        value = np.trace(np.kron(PAULI_X, PAULI_X) @ werner(0.5).matrix).real
        assert value == pytest.approx(0.5)

    def test_isotropic(self):
        assert np.allclose(isotropic(2, 1.0).matrix, bell_phi_plus().matrix)
        assert np.allclose(isotropic(2, 0.25).matrix, np.eye(4) / 4)
        assert np.allclose(isotropic(3, 1.0 / 9.0).matrix, np.eye(9) / 9)
        with pytest.raises(BadParameter):
            isotropic(1, 0.5)

    def test_density_state_validation(self):
        with pytest.raises(NotHermitian):
            DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(BadParameter):
            DensityState(np.eye(2))
        with pytest.raises(BadParameter):
            DensityState(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(DimensionMismatch):
            DensityState(np.zeros((0, 0)))
        with pytest.raises(DimensionMismatch):
            DensityState(np.eye(4) / 4, dims=(-2, -2))
        with pytest.raises(BadParameter):
            DensityState(np.eye(MAX_DIM + 1) / (MAX_DIM + 1))

    @pytest.mark.parametrize("d", [0, -4])
    def test_maximally_mixed_needs_positive_dimension(self, d):
        with pytest.raises(BadParameter):
            maximally_mixed(d)

    def test_povm_validation(self):
        with pytest.raises(BadParameter):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])), ("a", "b"))
        # labels are compared after str(); a repeated one hid the second effect
        for labels in (("a", "a"), (1, "1")):
            with pytest.raises(BadParameter, match="distinct"):
                Povm((np.diag([0.9, 0.0]), np.diag([0.1, 1.0])), labels)
        with pytest.raises(BadParameter):
            Povm((np.eye(MAX_DIM + 1),), ("1",))

    @pytest.mark.parametrize("build", [
        lambda: isotropic(9, 0.5),
        lambda: isotropic(1000, 0.5),
        lambda: maximally_mixed(MAX_DIM + 1),
        lambda: mub_bases(67, 2),
        lambda: mub_bases(1009, 2),
    ])
    def test_named_builders_check_dimension_first(self, build):
        with pytest.raises(BadParameter, match="exceeds the supported maximum"):
            build()


OBSERVABLES = {
    "pauli_x": lambda: pauli_observable("x"),
    "bloch": lambda: bloch_observable((0.6, 0.0, 0.8)),
    "mub:3:2": lambda: mub_bases(3, 2)[1],
    "from_matrix": lambda: observable_from_matrix(np.diag([2.0, 1.0, 1.0, -3.0])),
}


class TestObservableIsPovm:
    @pytest.mark.parametrize("name", OBSERVABLES)
    def test_povm_is_the_observable(self, name):
        obs = OBSERVABLES[name]()
        assert isinstance(obs, Povm)
        assert obs.povm() is obs

    @pytest.mark.parametrize("name", OBSERVABLES)
    def test_fingerprint_matches_explicit_povm(self, name):
        obs = OBSERVABLES[name]()
        explicit = Povm(obs.effects, obs.outcome_labels)
        assert fingerprint_povms([obs]) == fingerprint_povms([explicit])

    def test_projectors_not_summing_to_identity_rejected(self):
        with pytest.raises(BadParameter):
            Observable((1.0, -1.0), (np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))


# default and fixed labels with the fingerprint of each measurement set
LABELLED = {
    "pauli_x": (lambda: [pauli_observable("x")], [("+", "-")]),
    "pauli_y": (lambda: [pauli_observable("y")], [("+i", "-i")]),
    "pauli_z": (lambda: [pauli_observable("z")], [("0", "1")]),
    "bloch": (lambda: [bloch_observable((0.6, 0.0, 0.8))], [("+", "-")]),
    "mub:3:2": (lambda: mub_bases(3, 2), [("0", "1", "2")] * 2),
    "mub:5:3": (lambda: mub_bases(5, 3), [tuple("01234")] * 3),
    "from_x": (lambda: [observable_from_matrix(PAULI_X)], [("1", "-1")]),
    "from_z": (lambda: [observable_from_matrix(PAULI_Z)], [("1", "-1")]),
    "from_diag": (lambda: [observable_from_matrix(np.diag([1.0, -1.0, 1.0]))], [("1", "-1")]),
}
# the Pauli projectors (I +/- sigma) / 2 are exact, and so are these digests
PAULI_DIGESTS = {
    "pauli_x": "64022e48b2760df0a46a87bcf94d0703a69d8d077de93a458079a33e56be10dd",
    "pauli_y": "156507bb272dc7b0cb9863d5ccd2096e98c7e88bd49abb81b7beaee13eb8de15",
    "pauli_z": "2b4a6d2a4d87014a9f88455235d1075cd067e5337c24184e773a54fde7b94a0e",
}


class TestOutcomeLabels:
    def test_eigenvalues_equal_to_twelve_digits_get_distinct_labels(self):
        # 2e-8 apart, beyond EIG_MERGE_TOL, but both "10000" to 12 digits
        obs = observable_from_matrix(np.diag([10000.0, 10000.00000002]))
        assert obs.outcome_labels == ("10000.00000002", "10000.0")

    @pytest.mark.parametrize("name", LABELLED)
    def test_labels_and_fingerprints_unchanged(self, name):
        build, labels = LABELLED[name]
        observables = build()
        assert [obs.outcome_labels for obs in observables] == labels
        explicit = [Povm(obs.effects, lab) for obs, lab in zip(observables, labels)]
        assert fingerprint_povms(observables) == fingerprint_povms(explicit)
        if name in PAULI_DIGESTS:
            assert fingerprint_povms(observables) == PAULI_DIGESTS[name]


def spectral_sum(obs):
    """Sum of (d - 1 - j) P_j over the effects, in the order the basis builders sum it."""
    d = len(obs.effects)
    return sum(float(d - 1 - j) * p for j, p in enumerate(obs.effects))


class TestBasisObservables:
    @pytest.mark.parametrize("d, m", [(3, 2), (3, 4), (5, 3)])
    def test_mub_bases_match_their_construction(self, d, m):
        ls = np.arange(d)
        omega = np.exp(2j * np.pi / d)
        vectors = [np.eye(d)[:, j] for j in range(d)]
        vectors += [omega ** ((k * ls * ls + j * ls) % d) / np.sqrt(d)
                    for k in range(m - 1) for j in range(d)]
        bases = mub_bases(d, m)
        effects = [e for obs in bases for e in obs.effects]
        assert len(effects) == len(vectors)
        assert all(np.array_equal(e, projector(v)) for e, v in zip(effects, vectors))
        for obs in bases:
            assert obs.outcome_labels == tuple(str(j) for j in range(d))
            assert obs.eigenvalues == tuple(float(j) for j in range(d - 1, -1, -1))
            assert np.array_equal(obs.matrix, spectral_sum(obs))

    def test_schmidt_observables_match_their_construction(self):
        rng = np.random.default_rng(39)
        for dims in ((2, 2), (3, 3)):
            d = dims[0]
            for _ in range(5):
                x, y = schmidt_observables(random_ket(d * d, rng), dims)
                for obs in x + y:
                    assert obs.outcome_labels == tuple(str(j) for j in range(d))
                    assert obs.eigenvalues == tuple(float(j) for j in range(d - 1, -1, -1))
                    assert np.array_equal(obs.matrix, spectral_sum(obs))


class TestObservableMatrix:
    def test_matrix_is_a_read_only_copy(self):
        obs = pauli_observable("x")
        assert obs.matrix is not PAULI_X
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 5.0
        for pauli in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
            with pytest.raises(ValueError):
                pauli[0, 0] = 5.0
        m = np.diag([2.0, -1.0]).astype(complex)
        built = observable_from_matrix(m)
        m[0, 0] = 7.0
        assert built.matrix[0, 0] == 2.0
        assert np.array_equal(pauli_observable("x").matrix, [[0, 1], [1, 0]])

    def test_effects_must_be_projectors_one_per_eigenvalue(self):
        # PSD effects summing to I that are not projectors: paired with
        # pauli_x they would get a proven closed-form bound that states exceed
        with pytest.raises(BadParameter, match="projectors"):
            Observable((1.0, -1.0), (0.7 * np.eye(2), 0.3 * np.eye(2)))
        with pytest.raises(DimensionMismatch):
            Observable((1, 0, -1), SZ.effects)

    def test_merged_and_large_scale_decompositions_accepted(self):
        obs = observable_from_matrix(np.diag([1.0, 1.0 + 1e-9, -1.0]))
        assert len(obs.eigenvalues) == 2
        obs = observable_from_matrix(np.diag([5e6, 5e6 + 9e-9, -1.0]))
        assert len(obs.eigenvalues) == 2
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            observable_from_matrix(1e8 * (a + a.conj().T))


class TestMub:
    def test_qubit_triple_is_pauli(self):
        bases = mub_bases(2, 3)
        assert np.allclose(bases[0].matrix, PAULI_Z)
        assert np.allclose(bases[1].matrix, PAULI_X)
        assert np.allclose(bases[2].matrix, PAULI_Y)

    def test_qubit_pair_overlaps(self):
        bases = mub_bases(2, 2)
        for p in bases[0].effects:
            for q in bases[1].effects:
                assert np.trace(p @ q).real == pytest.approx(0.5, abs=1e-9)

    def test_qutrit_overlaps(self):
        bases = mub_bases(3, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                for p in bases[i].effects:
                    for q in bases[j].effects:
                        assert np.trace(p @ q).real == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 3])
    def test_qubit_bases_validated_once_each(self, m, monkeypatch):
        reference = [o.effects for o in (SZ, SX, SY)[:m]]
        validations = []
        original = Povm.__post_init__

        def counting(self):
            validations.append(self)
            original(self)

        monkeypatch.setattr(Povm, "__post_init__", counting)
        quantum._interned_mub_bases.cache_clear()
        bases = mub_bases(2, m)
        assert len(validations) == m
        assert mub_bases(2, m) is bases
        assert len(validations) == m
        for obs, effects in zip(bases, reference):
            assert obs.outcome_labels == ("0", "1")
            assert all(np.array_equal(a, b) for a, b in zip(obs.effects, effects))

    def test_rejects_composite_dimension(self):
        with pytest.raises(BadParameter):
            mub_bases(4, 2)
        with pytest.raises(BadParameter):
            mub_bases(3, 5)


INTERNED = {
    "pauli_x": lambda: pauli_observable("x"),
    "mub:2:3": lambda: mub_bases(2, 3),
    "mub:3:4": lambda: mub_bases(3, 4),
    "mub:17:13": lambda: mub_bases(17, 13),
    "bell_phi_plus": bell_phi_plus,
}


class TestInterning:
    """Named measurement sets and bell_phi_plus: one immutable instance per process."""

    @pytest.mark.parametrize("name", INTERNED)
    def test_repeat_returns_the_same_read_only_instance(self, name):
        first = INTERNED[name]()
        assert INTERNED[name]() is first
        for item in first if isinstance(first, tuple) else (first,):
            arrays = [item.matrix]
            if isinstance(item, Povm):
                # the effects are one (n, d, d) stack, read-only whole and row by row
                assert item.effects.shape == (item.n_outcomes, item.dim, item.dim)
                arrays += [item.effects, *item.effects]
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                item.matrix = np.eye(item.dim)

    @pytest.mark.parametrize("name, check, builds", [
        ("pauli_x", Povm, 1), ("mub:3:4", Povm, 4), ("bell_phi_plus", DensityState, 1),
    ])
    def test_first_request_runs_every_check(self, name, check, builds, monkeypatch):
        validations = []
        original = check.__post_init__
        monkeypatch.setattr(check, "__post_init__",
                            lambda self: (validations.append(self), original(self))[1])
        for cached in (pauli_observable, quantum._interned_mub_bases, bell_phi_plus):
            cached.cache_clear()
        first = INTERNED[name]()
        assert len(validations) == builds
        assert INTERNED[name]() is first
        assert len(validations) == builds

    def test_qubit_and_qutrit_sets_are_built_at_import(self):
        # so the first request of a fresh process validates nothing either
        script = (
            "from uwit import quantum as q\n"
            "built = [f.cache_info().currsize for f in"
            " (q.pauli_observable, q._interned_mub_bases, q.bell_phi_plus)]\n"
            "assert built == [3, 5, 1], built\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(quantum.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)

    @pytest.mark.parametrize("d, m", [(2, 3), (3, 4), (17, 13)])
    def test_shared_sets_equal_a_fresh_build(self, d, m):
        for shared, fresh in zip(mub_bases(d, m), quantum._build_mub_bases(d, m), strict=True):
            assert shared.outcome_labels == fresh.outcome_labels
            assert shared.fingerprint_bytes == fresh.fingerprint_bytes
            assert np.array_equal(shared.matrix, fresh.matrix)

    def test_sets_over_the_budget_are_not_retained(self):
        # mub:17:13's effects hold 13 * 17^3 = 63869 entries, mub:17:14's 68782
        assert mub_bases(17, 13) is mub_bases(17, 13)
        bases = mub_bases(17, 14)
        assert mub_bases(17, 14) is not bases
        ref = weakref.ref(bases[0])
        del bases
        gc.collect()
        assert ref() is None

    def test_budget_counts_effect_entries(self, monkeypatch):
        # mub:2:2's effects hold 2 * 2^3 = 16 entries
        monkeypatch.setattr(quantum, "_INTERN_ENTRIES", 15)
        assert mub_bases(2, 2) is not mub_bases(2, 2)
        monkeypatch.setattr(quantum, "_INTERN_ENTRIES", 16)
        assert mub_bases(2, 2) is mub_bases(2, 2)


class TestCorrelationTensor:
    def test_bell(self):
        t = correlation_tensor(bell_phi_plus())
        assert np.allclose(np.diag(t), [1.0, 1.0, -1.0, 1.0], atol=1e-12)
        assert np.allclose(t - np.diag(np.diag(t)), 0.0, atol=1e-12)

    def test_maximally_mixed(self):
        t = correlation_tensor(maximally_mixed(4, dims=(2, 2)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(t, expected, atol=1e-12)

    def test_werner_linearity(self):
        for w in (0.2, 0.5, 0.9):
            t = correlation_tensor(werner(w))
            assert t[1, 1] == pytest.approx(w)
            assert t[2, 2] == pytest.approx(-w)
            assert t[3, 3] == pytest.approx(w)

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
        for _ in range(50):
            state = random_mixed_state(4, rng, dims=(2, 2))
            t = correlation_tensor(state)
            want = [[np.trace(np.kron(p, q) @ state.matrix).real for q in paulis] for p in paulis]
            assert np.max(np.abs(t - want)) < 1e-12
            rebuilt = state_from_correlation_tensor(t)
            want = sum(t[mu, nu] * np.kron(p, q) for mu, p in enumerate(paulis)
                       for nu, q in enumerate(paulis)) / 4
            assert np.max(np.abs(rebuilt.matrix - want)) < 1e-12
            assert np.max(np.abs(rebuilt.matrix - state.matrix)) < 1e-8


class TestSamplersAndSchmidt:
    @pytest.mark.parametrize("d, dims", [(2, None), (3, None), (4, None), (4, (2, 2))])
    def test_random_mixed_state_is_partial_trace(self, d, dims):
        """M M^dagger equals the reduced state of the pure state on the doubled space."""
        for seed in range(5):
            state = random_mixed_state(d, np.random.default_rng(seed), dims=dims)
            ket = random_ket(d * d, np.random.default_rng(seed))
            reduced = partial_trace(DensityState(projector(ket), dims=(d, d)), "A")
            assert np.max(np.abs(state.matrix - reduced.matrix)) < 1e-12
            assert state.dims == dims

    def test_random_separable_state_matches_mixture_of_product_states(self):
        # the mixture is built from raw factor matrices in the order
        # random_product_state draws them, and validated once at the end
        for da, db, seed in ((2, 2, 0), (2, 3, 1), (3, 3, 2)):
            state = random_separable_state(da, db, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 17))
            weights = rng.exponential(size=n)
            weights /= weights.sum()
            want = np.zeros((da * db, da * db), dtype=complex)
            for w in weights:
                want += w * random_product_state(da, db, rng).matrix
            assert np.array_equal(state.matrix, want) and state.dims == (da, db)

    def test_random_states_valid(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            random_mixed_state(3, rng)
            random_product_state(2, 2, rng)

    def test_entropy(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(1.0)
        assert von_neumann_entropy(bell_phi_plus()) == pytest.approx(0.0, abs=1e-9)

    def test_schmidt_observables_diagonalize(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            ket = random_ket(4, rng)
            (za, xa), (zb, xb) = schmidt_observables(ket, (2, 2))
            state = DensityState(projector(ket), dims=(2, 2))
            # the Schmidt-basis pair sees perfectly correlated outcomes
            stats = product_observable_stats(state, za, zb)
            joint = np.kron(za.effects[0], zb.effects[1])
            cross = float(np.trace(joint @ state.matrix).real)
            assert cross == pytest.approx(0.0, abs=1e-9)
            assert stats.values.sum() == pytest.approx(1.0)
            for obs in (za, xa, zb, xb):
                assert obs.nondegenerate

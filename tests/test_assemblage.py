import numpy as np
import pytest

from uwit import (
    Assemblage,
    BadParameter,
    DensityState,
    DimensionMismatch,
    NotADistribution,
    NotHermitian,
    assemblage_from_config,
    assemblage_to_config,
    bell_phi_plus,
    born_stats,
    conditional_stats,
    kron_state,
    lhs_assemblage,
    maximally_mixed,
    pauli_observable,
    steer,
    werner,
)
from uwit.assemblage import matrix_to_json
from uwit.quantum import projector, random_mixed_state, random_qubit_observable

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
HALF_I = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
# [[0.5, 0.3], [-0.3, 0]] and its partner sum to I/2, and both Hermitian parts
# are positive, so only a Hermiticity check rejects them
NON_HERMITIAN_ELEMENTS = [
    {"setting": 0, "outcome": label, "operator": matrix_to_json(np.array(m))}
    for label, m in (("0", [[0.5, 0.3], [-0.3, 0.0]]), ("1", [[0.0, -0.3], [0.3, 0.5]]))
]


class TestSteer:
    def test_bell_z(self):
        asm = steer(bell_phi_plus(), [SZ.povm()])
        assert np.allclose(asm.element(0, "0"), projector(KET0) / 2, atol=1e-12)
        assert np.allclose(asm.element(0, "1"), projector(KET1) / 2, atol=1e-12)

    def test_bell_x(self):
        asm = steer(bell_phi_plus(), [SX.povm()])
        plus = (KET0 + KET1) / np.sqrt(2)
        minus = (KET0 - KET1) / np.sqrt(2)
        assert np.allclose(asm.element(0, "+"), projector(plus) / 2, atol=1e-12)
        assert np.allclose(asm.element(0, "-"), projector(minus) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(51)
        eta = random_mixed_state(2, rng)
        sigma = random_mixed_state(2, rng)
        state = kron_state(eta, sigma)
        asm = steer(state, [SX.povm(), SZ.povm()])
        for setting, povm in ((0, SX.povm()), (1, SZ.povm())):
            probs = born_stats(eta, povm)
            for label, p in zip(povm.outcome_labels, probs.values):
                assert np.allclose(
                    asm.element(setting, label), p * sigma.matrix, atol=1e-10
                )

    def test_no_signaling(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            state = random_mixed_state(4, rng, dims=(2, 2))
            meas = [random_qubit_observable(rng).povm() for _ in range(3)]
            asm = steer(state, meas)
            expected = sum(asm.element(0, o) for o in asm.outcomes[0])
            for setting in asm.settings:
                total = sum(asm.element(setting, o) for o in asm.outcomes[setting])
                assert np.max(np.abs(total - expected)) < 1e-8

    def test_settings_and_bob_dim_derived_once(self):
        asm = steer(bell_phi_plus(), [SX.povm(), SZ.povm()])
        assert asm.settings is asm.settings and asm.settings == (0, 1)
        assert asm.bob_dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            steer(maximally_mixed(4), [SZ.povm()])


class TestConditionals:
    def test_bell_zz_perfect_correlation(self):
        asm = steer(bell_phi_plus(), [SZ.povm()])
        cond = conditional_stats(asm, 0, SZ.povm())
        w0, dist0 = cond.entries["0"]
        w1, dist1 = cond.entries["1"]
        assert w0 == pytest.approx(0.5) and w1 == pytest.approx(0.5)
        assert np.allclose(dist0.values, [1.0, 0.0], atol=1e-12)
        assert np.allclose(dist1.values, [0.0, 1.0], atol=1e-12)

    def test_bell_zx_unbiased(self):
        asm = steer(bell_phi_plus(), [SZ.povm()])
        cond = conditional_stats(asm, 0, SX.povm())
        for _, dist in cond.entries.values():
            assert np.allclose(dist.values, [0.5, 0.5], atol=1e-12)

    def test_uncorrelated_state(self):
        asm = steer(maximally_mixed(4, dims=(2, 2)), [SX.povm(), SZ.povm()])
        marginal = born_stats(maximally_mixed(2), SY.povm())
        for setting in (0, 1):
            cond = conditional_stats(asm, setting, SY.povm())
            for _, dist in cond.entries.values():
                assert np.allclose(dist.values, marginal.values, atol=1e-12)

    def test_product_conditionals_independent_of_outcome(self):
        rng = np.random.default_rng(53)
        eta = random_mixed_state(2, rng)
        sigma = random_mixed_state(2, rng)
        asm = steer(kron_state(eta, sigma), [SX.povm(), SY.povm()])
        reference = None
        for setting in (0, 1):
            cond = conditional_stats(asm, setting, SZ.povm())
            for _, dist in cond.entries.values():
                if reference is None:
                    reference = dist.values
                assert np.allclose(dist.values, reference, atol=1e-9)

    def test_omitted_outcomes(self):
        # steering from a pure product state: one outcome never occurs
        state = kron_state(
            DensityState(projector(KET0)), DensityState(projector(KET0))
        )
        asm = steer(state, [SZ.povm()])
        cond = conditional_stats(asm, 0, SZ.povm())
        assert "1" in cond.omitted and "1" not in cond.entries


class TestLhsAssemblage:
    def test_single_hidden_state(self):
        sigma = DensityState(projector(KET0))
        asm = lhs_assemblage([(1.0, sigma)], [[[1.0, 0.0], [0.5, 0.5]]])
        for setting in asm.settings:
            # each setting is one read-only (n, d, d) stack
            ops = asm.stacks[setting]
            assert ops.shape == (2, 2, 2) and not ops.flags.writeable
            for op in ops:
                weight = np.trace(op).real
                if weight > 1e-12:
                    assert np.allclose(op / weight, sigma.matrix, atol=1e-12)

    def test_classically_correlated(self):
        hidden = [(0.5, DensityState(projector(KET0))), (0.5, DensityState(projector(KET1)))]
        response = [
            [[1.0, 0.0], [1.0, 0.0]],
            [[0.0, 1.0], [0.0, 1.0]],
        ]
        asm = lhs_assemblage(hidden, response)
        assert np.allclose(asm.element(0, "0"), projector(KET0) / 2, atol=1e-12)
        assert np.allclose(asm.element(0, "1"), projector(KET1) / 2, atol=1e-12)
        assert np.allclose(asm.reduced_state().matrix, np.eye(2) / 2, atol=1e-12)

    def test_invalid_inputs(self):
        sigma = DensityState(projector(KET0))
        with pytest.raises(NotADistribution):
            lhs_assemblage([], [])
        with pytest.raises(NotADistribution):
            lhs_assemblage([(0.7, sigma)], [[[1.0, 0.0]]])
        with pytest.raises(NotADistribution):
            lhs_assemblage([(1.0, sigma)], [[[0.7, 0.7]]])


class TestValidation:
    def test_signaling_assemblage_rejected(self):
        # setting 1 sums to a different reduced state
        stacks = {
            0: [projector(KET0) / 2, projector(KET1) / 2],
            1: [projector(KET0), np.zeros((2, 2), dtype=complex)],
        }
        with pytest.raises(BadParameter):
            Assemblage({0: ("0", "1"), 1: ("0", "1")}, stacks)

    def test_repeated_outcome_rejected(self):
        # one element listed twice sums to a unit-trace reduced state
        quarter = np.eye(2, dtype=complex) / 4
        with pytest.raises(BadParameter, match="distinct"):
            Assemblage({0: ("0", "0")}, {0: [quarter, quarter]})
        entry = {"setting": 0, "outcome": "0", "operator": matrix_to_json(np.eye(2) / 4)}
        with pytest.raises(BadParameter, match="distinct"):
            assemblage_from_config({"bob_dim": 2, "settings": [0], "elements": [entry, entry]})

    def test_negative_element_rejected(self):
        stacks = {0: [np.diag([0.75, -0.25]), np.diag([-0.25, 0.75])]}
        with pytest.raises(BadParameter):
            Assemblage({0: ("0", "1")}, stacks)

    def test_settings_of_outcomes_and_stacks_must_agree(self):
        half = [projector(KET0) / 2, projector(KET1) / 2]
        with pytest.raises(BadParameter, match="same settings"):
            Assemblage({0: ("0", "1")}, {1: half})
        with pytest.raises(BadParameter, match="same settings"):
            Assemblage({0: ("0", "1"), 1: ("0", "1")}, {0: half})


class TestSerialization:
    def test_round_trip(self):
        asm = steer(werner(0.8), [SX.povm(), SY.povm()])
        config = assemblage_to_config(asm)
        rebuilt = assemblage_from_config(config)
        assert rebuilt.settings == asm.settings and rebuilt.outcomes == asm.outcomes
        for setting, ops in asm.stacks.items():
            assert np.allclose(rebuilt.stacks[setting], ops, atol=1e-15)

    def test_bad_config(self):
        configs = [
            {"settings": [0]},
            {"bob_dim": 2, "settings": [0], "elements": [{"outcome": "0", "operator": HALF_I}]},
            {
                "bob_dim": 2,
                "settings": [0],
                "elements": [{"setting": 7, "outcome": "0", "operator": HALF_I}],
            },
            {"bob_dim": 2, "settings": [], "elements": []},
        ]
        for config in configs:
            with pytest.raises(BadParameter):
                assemblage_from_config(config)
        with pytest.raises(NotHermitian):
            assemblage_from_config(
                {"bob_dim": 2, "settings": [0], "elements": NON_HERMITIAN_ELEMENTS}
            )

import numpy as np
import pytest

from uwit import (
    BadParameter,
    NonMonotoneScan,
    SHANNON,
    bell_phi_plus,
    brute_force_topk,
    cross_check_fine_grained,
    entanglement_universal,
    make_probvec,
    mub_bases,
    mub_fine_grained_bound,
    omega_two_dichotomic,
    omega_numeric,
    pauli_observable,
    scan_to_csv,
    threshold_scan,
    uniform,
    verify_majorization_bound,
    werner,
)
from uwit.bounds import BoundVector
from uwit.criteria import DetectionReport
from uwit.oracle import random_lhs_fixture
from uwit.probvec import ProbVec

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")
GAMMA1 = (3 + 2 * np.sqrt(2)) / 8


class TestCensus:
    def test_analytic_bound_holds(self):
        bound = omega_two_dichotomic(SX, SY)
        census = verify_majorization_bound(bound, [SX.povm(), SY.povm()], 2000, seed=8)
        assert census.violations == 0
        assert census.worst_margin <= 1e-9

    def test_corrupted_bound_caught(self):
        good = omega_two_dichotomic(SX, SY)
        corrupted = BoundVector(
            omega=ProbVec([good.omega[0] - 0.05, good.omega[1] + 0.05, 0.0, 0.0]),
            method=good.method,
            measurement_fingerprint=good.measurement_fingerprint,
            certified_slack=0.0,
        )
        census = verify_majorization_bound(corrupted, [SX.povm(), SY.povm()], 2000, seed=8)
        assert census.violations > 0
        assert census.worst_margin > 0.01

    def test_single_measurement(self):
        bound = omega_numeric([SZ.povm()], restarts=4, seed=0)
        census = verify_majorization_bound(bound, [SZ.povm()], 500, seed=9)
        assert census.violations == 0

    def test_deterministic(self):
        bound = omega_two_dichotomic(SX, SY)
        a = verify_majorization_bound(bound, [SX.povm(), SY.povm()], 300, seed=10)
        b = verify_majorization_bound(bound, [SX.povm(), SY.povm()], 300, seed=10)
        assert a == b


class TestBruteForce:
    def test_gamma1_xy(self):
        value = brute_force_topk([SX.povm(), SY.povm()], 1, 100_000)
        assert value == pytest.approx(GAMMA1, abs=1e-6)

    def test_top2_xy_reaches_one(self):
        value = brute_force_topk([SX.povm(), SY.povm()], 2, 10_000)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_single_z(self):
        assert brute_force_topk([SZ.povm()], 1, 5_000) == pytest.approx(1.0, abs=1e-9)

    def test_brackets_numeric_bound(self):
        bound = omega_numeric([SX.povm(), SZ.povm()], restarts=16, seed=11)
        witness = brute_force_topk([SX.povm(), SZ.povm()], 1, 50_000)
        assert bound.omega[0] >= witness - 1e-6

    def test_qutrit_mub(self):
        meas = [o.povm() for o in mub_bases(3, 2)]
        value = brute_force_topk(meas, 1, 3_000)
        # the analytic first entry for a mutually unbiased pair
        expected = (1 + 1 / np.sqrt(3)) ** 2 / 4
        assert value == pytest.approx(expected, abs=1e-3)

    def test_dimension_guard(self):
        import uwit

        meas = [uwit.observable_from_matrix(np.diag([3.0, 2, 1, 0])).povm()]
        with pytest.raises(BadParameter):
            brute_force_topk(meas, 1, 100)


class TestCrossCheck:
    def test_xz_block(self):
        eigen, grid = cross_check_fine_grained(
            [SX.povm(), SZ.povm()], ("+", "0"), make_probvec((0.5, 0.5)), 100_000
        )
        assert eigen == pytest.approx(0.5 + 1 / (2 * np.sqrt(2)), abs=1e-12)
        assert abs(eigen - grid) < 1e-6

    def test_single_projector(self):
        eigen, grid = cross_check_fine_grained([SZ.povm()], ("0",), make_probvec((1.0,)), 10_000)
        assert eigen == pytest.approx(1.0, abs=1e-12)
        assert grid == pytest.approx(1.0, abs=1e-9)

    def test_mub_triple(self):
        meas = [o.povm() for o in mub_bases(2, 3)]
        eigen, grid = cross_check_fine_grained(meas, ("0", "0", "0"), uniform(3), 100_000)
        assert eigen == pytest.approx(mub_fine_grained_bound(2, 3), abs=1e-9)
        assert abs(eigen - grid) < 1e-6


class TestThresholdScan:
    def test_werner_entanglement_shannon(self):
        bound = omega_two_dichotomic(SX, SY)

        def criterion(w):
            return entanglement_universal(werner(w), (SX, SY), (SX, SY), SHANNON, bound, bound)

        scan = threshold_scan("werner", criterion, np.linspace(0, 1, 26).tolist(), 1e-4)
        assert scan.threshold_estimate == pytest.approx(0.8287, abs=2e-3)
        flips = sum(
            1 for a, b in zip(scan.verdicts, scan.verdicts[1:]) if a != b
        )
        assert flips == 1

    def test_endpoint_detects(self):
        bound = omega_two_dichotomic(SX, SY)
        report = entanglement_universal(werner(1.0), (SX, SY), (SX, SY), SHANNON, bound, bound)
        assert report.detected

    def test_double_flip_aborts(self):
        def flippy(x):
            verdict = "Detected" if 0.3 < x < 0.7 else "NotDetected"
            return DetectionReport("synthetic", x, 0.5, 0.0, verdict)

        with pytest.raises(NonMonotoneScan):
            threshold_scan("synthetic", flippy, np.linspace(0, 1, 11).tolist(), 1e-3)

    def test_no_flip(self):
        def never(x):
            return DetectionReport("synthetic", x, 2.0, 2.0 - x, "NotDetected")

        scan = threshold_scan("flat", never, [0.0, 0.5, 1.0], 1e-3)
        assert scan.threshold_estimate is None

    def test_grid_must_ascend(self):
        def never(x):
            return DetectionReport("synthetic", x, 2.0, 2.0 - x, "NotDetected")

        with pytest.raises(BadParameter):
            threshold_scan("flat", never, [0.5, 0.5], 1e-3)

    def test_csv_export(self, tmp_path):
        def criterion(w):
            bound = omega_two_dichotomic(SX, SY)
            return entanglement_universal(werner(w), (SX, SY), (SX, SY), SHANNON, bound, bound)

        scan = threshold_scan("werner", criterion, [0.0, 0.5, 1.0], 1e-2)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "parameter,lhs,bound,verdict"
        assert len(lines) == 4
        assert lines[1].endswith("NotDetected") and lines[3].endswith("Detected")


class TestFixtures:
    def test_random_lhs_fixture_shape(self):
        rng = np.random.default_rng(12)
        hidden, response = random_lhs_fixture(rng, n_settings=3, n_outcomes=2)
        assert len(response[0]) == 3
        assert abs(sum(w for w, _ in hidden) - 1.0) < 1e-9

    def test_bell_tensor_stats_majorized_by_closed_form(self):
        # the closed-form vector dominates sampled tensor statistics
        from uwit import born_stats, majorized_by, tensor
        from uwit.quantum import random_mixed_state

        rng = np.random.default_rng(13)
        omega = omega_two_dichotomic(SX, SY).omega
        for _ in range(100):
            state = random_mixed_state(2, rng)
            stats = tensor(born_stats(state, SX.povm()), born_stats(state, SY.povm()))
            assert majorized_by(stats, omega)

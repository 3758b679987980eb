import functools
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from uwit import (
    BadParameter,
    Degenerate,
    DensityStack,
    DensityState,
    DimensionMismatch,
    NoConvergence,
    Observable,
    Povm,
    bell_phi_plus,
    bloch_observable,
    born_stats,
    brute_force_topk,
    fine_grained_bound,
    fine_grained_bound_map,
    fine_grained_bound_product,
    fingerprint_povms,
    maassen_uffink,
    make_probvec,
    majorized_by,
    matched_outcome_events,
    mub_bases,
    observable_from_matrix,
    omega_numeric,
    omega_two_bases,
    omega_two_dichotomic,
    pauli_observable,
    tensor_all,
    uniform,
    verify_majorization_bound,
    von_neumann_entropy,
)
from uwit import bounds, cli
from uwit.assemblage import matrix_from_json, matrix_to_json
from uwit.bounds import (
    ALTERNATING_NUMERIC,
    ANALYTIC_PRODUCT,
    ANALYTIC_TOP1,
    ANALYTIC_TWO_BASES,
    ANALYTIC_TWO_DICHOTOMIC,
    CLOSED_FORM_MARGIN,
    EIGEN_EXACT,
    NUMERIC_SLACK,
    NUMERIC_TOPK,
    PROVEN_METHODS,
    BoundVector,
    FineGrainedBound,
    _alternate,
    _ascend_topk,
    _concave_majorant_increments,
    _max_topk,
    _omega_from_cumulative,
    _overlap_norms,
    _pair_events,
    flat_effects,
    outcome_string_fingerprints,
    tensor_stats,
    topk_sums,
)
from uwit.quantum import (
    projector,
    random_ket,
    random_mixed_state,
    random_pure_state,
    random_qubit_observable,
)

SX = pauli_observable("x")
SY = pauli_observable("y")
SZ = pauli_observable("z")
GAMMA1 = (3 + 2 * np.sqrt(2)) / 8


def mub_fine_grained_bound(d: int, m: int) -> float:
    """Reference fine-grained bound (1/d)(1 + (d - 1)/sqrt(m)) for m mutually unbiased bases."""
    return (1.0 / d) * (1.0 + (d - 1) / np.sqrt(m))


class TestOmegaTwoDichotomic:
    def test_pauli_xy_closed_form(self):
        omega = omega_two_dichotomic(SX, SY).omega
        expected = [GAMMA1, (5 - 2 * np.sqrt(2)) / 8, 0.0, 0.0]
        assert np.allclose(omega.values, expected, atol=1e-12)

    def test_identical_measurements(self):
        omega = omega_two_dichotomic(SZ, SZ).omega
        assert np.allclose(omega.values, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_zx_pair_equals_xy(self):
        # all cross overlaps are 1/sqrt(2), so the vector coincides
        assert np.allclose(
            omega_two_dichotomic(SZ, SX).omega.values,
            omega_two_dichotomic(SX, SY).omega.values,
            atol=1e-12,
        )

    def test_shape(self):
        omega = omega_two_dichotomic(SX, SY).omega
        assert omega.values[0] >= omega.values[1] >= 0.0
        assert omega.values[2] == omega.values[3] == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            omega_two_dichotomic(observable_from_matrix(np.eye(2)), SX)

    def test_non_qubit_rejected(self):
        with pytest.raises(DimensionMismatch):
            omega_two_dichotomic(mub_bases(3, 2)[0], mub_bases(3, 2)[1])

    def test_validity_on_random_states(self):
        rng = np.random.default_rng(41)
        bound = omega_two_dichotomic(SX, SY)
        for _ in range(300):
            state = random_mixed_state(2, rng) if rng.uniform() < 0.5 else random_pure_state(2, rng)
            stats = tensor_all(
                [born_stats(state, SX.povm()), born_stats(state, SY.povm())]
            )
            assert majorized_by(stats, bound.omega)

    def test_min_entropy_bridge(self):
        # largest joint probability never beats the first bound entry
        rng = np.random.default_rng(42)
        bound = omega_two_dichotomic(SZ, SX)
        for _ in range(200):
            state = random_mixed_state(2, rng)
            p1 = max(born_stats(state, SZ.povm()).values)
            q1 = max(born_stats(state, SX.povm()).values)
            assert np.log2(p1) + np.log2(q1) <= np.log2(bound.omega[0]) + 1e-9


def gue_observable(d, rng):
    """Observable of a random Hermitian matrix with complex Gaussian entries."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return observable_from_matrix((a + a.conj().T) / 2)


def line_witness_values(x, y):
    """For k = 1 .. d - 1, the largest top-k sum over the bisector witnesses of all lines.

    A line is a row i of the overlaps U_ij = <a_i|b_j> (or a row of U^dagger);
    with C its k largest entries, the witness is the bisector of a_i and the
    unit projection of a_i onto span{b_j : j in C}.
    """
    d = x.dim
    a = np.linalg.eigh(x.matrix)[1][:, ::-1].T
    b = np.linalg.eigh(y.matrix)[1][:, ::-1].T
    u = a.conj() @ b.T
    effects = flat_effects([np.array(x.effects), np.array(y.effects)])
    lines = [(kets[i], others, v[i], np.argsort(-np.abs(v[i])))
             for kets, others, v in ((a, b, u), (b, a, u.conj().T)) for i in range(d)]

    def witness(ket, others, row, order, k):
        proj = others[order[:k]].T @ row[order[:k]].conj()
        return ket + proj / np.linalg.norm(proj)

    best = np.zeros(d - 1)
    for k in range(1, d):
        psi = np.array([witness(*line, k) for line in lines])
        t = tensor_stats(psi / np.linalg.norm(psi, axis=1, keepdims=True), *effects)[1]
        best[k - 1] = topk_sums(t, k).max()
    return best


def closed_form(x, y):
    """The closed-form top-k bounds of two bases, and where a line block attains them."""
    s_line, s_rest = _overlap_norms(x, y)
    return ((1.0 + np.maximum(s_line, s_rest)) ** 2 / 4.0,
            s_rest <= s_line + CLOSED_FORM_MARGIN / 4.0)


def top_sums(bound, d):
    """The top-k bounds omega_1 + ... + omega_k for k = 1 .. d - 1."""
    return np.cumsum(bound.omega.values)[: d - 1]


class TestOmegaTwoBases:
    # random pairs for which the 16-restart ascent of omega_numeric's seed 0
    # ends below a witness state: by 0.043 (k = 2), 0.095 (k = 1), 0.14
    # (k = 1), 0.070 (k = 2); omega_numeric itself takes k = 1 from the top-1
    # closed form, so the miss is shown on _max_topk
    @pytest.mark.parametrize("d, seed", [(5, 7), (5, 13), (6, 11), (6, 19)])
    def test_cli_bound_reaches_every_witness(self, d, seed, tmp_path):
        rng = np.random.default_rng([d, seed])
        matrices = [matrix_to_json(gue_observable(d, rng).matrix) for _ in range(2)]
        # the observables the cli builds from the config
        x, y = (observable_from_matrix(matrix_from_json(m)) for m in matrices)
        witness = line_witness_values(x, y)
        ascent = _max_topk([x, y], every_k_seeds([x, y], 0), 16)
        assert any(witness[k - 1] > ascent[k] for k in ascent)
        path, report = tmp_path / "bound.json", tmp_path / "report.json"
        path.write_text(json.dumps({
            "scenario_kind": "bound_only",
            "measurements": {"meas": [{"observable": m} for m in matrices]},
        }))
        assert cli.run(str(path), json_path=str(report), seed=0, restarts=16, quiet=True) == 0
        omega = json.loads(report.read_text())["bound_vector"]["omega"]
        assert np.all(np.cumsum(omega)[: d - 1] >= witness)

    def test_closed_form_entries_bracket_their_witness(self):
        rng = np.random.default_rng(48)
        for d in (2, 3, 4, 5, 6):
            for _ in range(6):
                x, y = gue_observable(d, rng), gue_observable(d, rng)
                closed, exact = closed_form(x, y)
                witness = line_witness_values(x, y)
                assert exact.all() or d > 3
                entry = closed + CLOSED_FORM_MARGIN / 2.0
                assert np.all(witness <= entry)
                assert np.all(entry[exact] <= witness[exact] + CLOSED_FORM_MARGIN)
                top = top_sums(omega_two_bases(x, y), d)
                assert np.all(top >= witness)
                if d <= 3:
                    # no concave repair: every entry is its closed form
                    assert np.all(top <= witness + CLOSED_FORM_MARGIN)
        for d in (10, 16):
            # k >= 7 (d = 10) and k >= 5 (d = 16) take the capped block norms
            x, y = gue_observable(d, rng), gue_observable(d, rng)
            assert np.all(top_sums(omega_two_bases(x, y), d) >= line_witness_values(x, y))

    @pytest.mark.parametrize("d", [8, 16, 32, 64])
    def test_line_closed_form_within_margin_of_its_witness(self, d):
        rng = np.random.default_rng([53, d])
        x, y = gue_observable(d, rng), gue_observable(d, rng)
        s_line = _overlap_norms(x, y)[0]
        entry = (1.0 + s_line) ** 2 / 4.0 + CLOSED_FORM_MARGIN / 2.0
        witness = line_witness_values(x, y)
        assert np.all(witness <= entry) and np.all(entry <= witness + CLOSED_FORM_MARGIN)

    def test_at_least_ascent_and_brute_force(self):
        rng = np.random.default_rng(49)
        for d in (2, 3, 4, 5):
            for trial in range(4):
                x, y = gue_observable(d, rng), gue_observable(d, rng)
                top = top_sums(omega_two_bases(x, y), d)
                for k in range(1, d):
                    assert top[k - 1] >= _max_topk([x, y], {k: np.random.SeedSequence(trial)}, 8)[k]
                    if d <= 3:
                        assert top[k - 1] >= brute_force_topk([x, y], k, 20_000)

    def test_mub32_matches_ascent_and_landau_pollak(self):
        meas = mub_bases(3, 2)
        bound = omega_two_bases(*meas)
        assert bound.method == ANALYTIC_TWO_BASES and bound.certified
        top = top_sums(bound, 3)
        # the ascent stops once a step gains less than STEP_TOL = 1e-10; at
        # k = 1 it ends 6e-11 below the Landau-Pollak optimum
        for k in (1, 2):
            ascent = _max_topk(meas, {k: np.random.SeedSequence(k)}, 16)[k]
            assert ascent <= top[k - 1] <= ascent + 1e-10
        landau_pollak = ((1.0 + 1.0 / np.sqrt(3.0)) / 2.0) ** 2
        assert landau_pollak < bound.omega[0] <= landau_pollak + CLOSED_FORM_MARGIN

    def test_qubit_case_is_omega_two_dichotomic(self):
        rng = np.random.default_rng(50)
        for x, y in [(SX, SY), (SZ, SX), (random_qubit_observable(rng), SZ)]:
            general, qubit = omega_two_bases(x, y), omega_two_dichotomic(x, y)
            assert general.method == qubit.method == ANALYTIC_TWO_DICHOTOMIC
            assert np.array_equal(general.omega.values, qubit.omega.values)

    def test_inexact_k_takes_the_closed_form(self):
        # a 2 x 2 block beats every line at k = 3, so no witness state
        # attains the closed form there; it is still a bound
        rng = np.random.default_rng(51)
        while True:
            x, y = gue_observable(4, rng), gue_observable(4, rng)
            closed, exact = closed_form(x, y)
            if not exact.all():
                break
        bound = omega_two_bases(x, y)
        assert bound.method == ANALYTIC_TWO_BASES and bound.certified
        top = top_sums(bound, 4)
        assert np.all(top >= closed)
        assert top[2] >= _max_topk([x, y], {3: np.random.SeedSequence(0)}, 64)[3]
        assert top[2] >= line_witness_values(x, y)[2]

    def test_blocks_over_budget_take_a_proven_cap(self, monkeypatch):
        # at d = 4 and k = 3 the 2 x 2 blocks number 36, with 144 entries
        rng = np.random.default_rng(52)
        x, y = gue_observable(4, rng), gue_observable(4, rng)
        exact = top_sums(omega_two_bases(x, y), 4)
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 143)
        s_rest = _overlap_norms(x, y)[1]
        assert list(s_rest[:2]) == [-np.inf, -np.inf] and s_rest[2] <= 1.0
        bound = omega_two_bases(x, y)
        assert bound.method == ANALYTIC_TWO_BASES and bound.certified_slack == 0.0
        top = top_sums(bound, 4)
        assert top[2] >= exact[2]
        assert top[2] >= _max_topk([x, y], {3: np.random.SeedSequence(3)}, 64)[3]
        assert top[2] >= line_witness_values(x, y)[2]

    @pytest.mark.parametrize("d", [5, 6, 8])
    def test_block_norm_cap_is_at_least_the_exact_norm(self, d, monkeypatch):
        rng = np.random.default_rng([54, d])
        for _ in range(5):
            x, y = gue_observable(d, rng), gue_observable(d, rng)
            exact = _overlap_norms(x, y)[1]
            with monkeypatch.context() as patch:
                patch.setattr(bounds, "_BLOCK_ENTRIES", 0)
                capped = _overlap_norms(x, y)[1]
            assert np.all(capped >= exact) and np.all(capped[2:] <= 1.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_block_norms_match_svd(self, d):
        # every block with a side of 2 takes the closed form of its Gram
        # matrix; the largest norm over each k matches a full SVD enumeration
        rng = np.random.default_rng([56, d])
        for _ in range(5):
            q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            for k in range(1, 2 * d):
                shapes = [(r, k + 1 - r) for r in range(2, k) if k + 1 - r <= d and r <= d]
                want = max((np.linalg.svd(u[np.array(rows)[:, None], np.array(cols)],
                                          compute_uv=False)[0]
                            for r, c in shapes
                            for rows in itertools.combinations(range(d), r)
                            for cols in itertools.combinations(range(d), c)), default=-np.inf)
                assert bounds._block_norms(u, k) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("d", [4, 10, 16, 64])
    def test_two_bases_run_no_ascent(self, d, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "_max_topk", lambda *args: calls.append(args))
        rng = np.random.default_rng([55, d])
        bound = cli._bound([gue_observable(d, rng), gue_observable(d, rng)], 64, 0)
        assert not calls
        assert bound.method == ANALYTIC_TWO_BASES and bound.certified_slack == 0.0

    def test_rejects_what_has_no_closed_form(self):
        with pytest.raises(Degenerate):
            omega_two_bases(observable_from_matrix(np.eye(3)), mub_bases(3, 2)[0])
        with pytest.raises(Degenerate):
            omega_two_bases(SX.povm(), Povm((np.eye(2) / 2, np.eye(2) / 2), ("a", "b")))
        with pytest.raises(DimensionMismatch):
            omega_two_bases(SX, mub_bases(3, 2)[0])

    def test_cli_uses_the_closed_form_for_two_bases(self, tmp_path, monkeypatch):
        report = tmp_path / "report.json"
        config = tmp_path / "bound.json"
        config.write_text(json.dumps({"scenario_kind": "bound_only",
                                      "measurements": {"meas": "mub:3:2"}}))
        # no ascent runs: the numeric path is never reached
        monkeypatch.setattr(cli, "omega_numeric", lambda *a, **k: pytest.fail("ascent ran"))
        assert cli.run(str(config), json_path=str(report), restarts=1, quiet=True) == 0
        payload = json.loads(report.read_text())["bound_vector"]
        assert payload["method"] == ANALYTIC_TWO_BASES
        assert payload["omega"] == list(omega_two_bases(*mub_bases(3, 2)).omega.values)


class TestOmegaNumeric:
    def test_matches_analytic(self):
        # two outcomes each: k = 1 is the only entry, and it takes the closed form
        bound = omega_numeric([SX.povm(), SY.povm()], restarts=24, seed=3)
        analytic = omega_two_dichotomic(SX, SY).omega
        assert np.allclose(bound.omega.values, analytic.values, atol=1e-12)
        assert bound.method == ANALYTIC_TOP1
        assert bound.certified and bound.certified_slack == 0.0

    def test_single_measurement(self):
        bound = omega_numeric([SZ.povm()], restarts=8, seed=0)
        assert np.allclose(bound.omega.values, [1.0, 0.0], atol=1e-9)

    def test_identical_measurements(self):
        bound = omega_numeric([SZ.povm(), SZ.povm()], restarts=8, seed=0)
        assert np.allclose(bound.omega.values, [1.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_shape_invariants(self):
        bound = omega_numeric([SX.povm(), SY.povm()], restarts=8, seed=1)
        values = bound.omega.values
        assert np.all(np.diff(values) <= 1e-12)
        assert np.allclose(values[2:], 0.0)
        assert values.sum() == pytest.approx(1.0)

    def test_validity_against_oracle_witness(self):
        bound = omega_numeric([SX.povm(), SZ.povm()], restarts=16, seed=2)
        witness = brute_force_topk([SX.povm(), SZ.povm()], 1, 10_000)
        assert bound.omega[0] >= witness - 1e-6

    def test_bad_restarts(self):
        with pytest.raises(BadParameter):
            omega_numeric([SX.povm()], restarts=0)

    @pytest.mark.parametrize("name", ["xyz", "mub:3:2", "mub:3:3", "mub:3:4", "mub:5:2"])
    def test_batch_keeps_maximum_of_one_row_runs(self, name, monkeypatch):
        # the stack of every k reaches each k's best one-k, one-row run; a
        # row that ends elsewhere was dropped early, below its k's maximum;
        # and splitting the stack into batches, inside one k or across two,
        # changes nothing
        meas = ASCENT_SETS[name]
        effect_stacks = [np.array(p.effects) for p in meas]
        tensor_size = int(np.prod([p.n_outcomes for p in meas]))
        ks = list(range(1, meas[0].n_outcomes))

        def seeds(seed):
            return dict(zip(ks, np.random.SeedSequence(seed).spawn(len(ks))))

        for seed in range(5):
            kets = np.array([random_ket(meas[0].dim, np.random.default_rng(child))
                             for seq in seeds(seed).values() for child in seq.spawn(8)])
            row_ks = np.repeat(ks, 8)
            stack = _ascend_topk(kets, row_ks, effect_stacks, 400)
            rows = np.array([_ascend_topk(kets[i:i + 1], row_ks[i:i + 1], effect_stacks, 400)[0]
                             for i in range(len(kets))])
            whole = _max_topk(meas, seeds(seed), 8)
            for k in ks:
                mine = row_ks == k
                assert abs(stack[mine].max() - rows[mine].max()) <= 1e-12
                assert abs(whole[k] - rows[mine].max()) <= 1e-12
                dropped = mine & (np.abs(stack - rows) > 1e-12)
                assert np.all(stack[dropped] < rows[dropped])
                assert np.all(stack[dropped] < stack[mine].max())
            # batches of three restarts split every k; batches of twelve
            # split the stack across the first two k
            for batch in (3, 12):
                with monkeypatch.context() as patch:
                    patch.setattr(bounds, "_BATCH_ENTRIES", batch * len(bounds._STEPS) * tensor_size)
                    split = _max_topk(meas, seeds(seed), 8)
                assert all(abs(split[k] - whole[k]) <= 1e-12 for k in ks)

    def test_crawling_restarts_are_dropped(self, monkeypatch):
        # two of these ten restarts crawl near 0.2963 for all 400 iterations
        # unless dropped; the other eight settle within 20 iterations
        calls = 0
        gradient_ops = bounds._topk_gradient_ops

        def counted(*args):
            nonlocal calls
            calls += 1
            return gradient_ops(*args)

        monkeypatch.setattr(bounds, "_topk_gradient_ops", counted)
        meas = [o.povm() for o in mub_bases(3, 3)]
        value = _max_topk(meas, {1: np.random.SeedSequence(4)}, 10)[1]
        assert calls <= 50
        assert abs(value - 0.36153150907395715) <= 1e-12

    @pytest.mark.parametrize("name", ["xyz", "mub:3:2", "mub:3:3", "mub:3:4", "mub:5:2"])
    def test_kernel_never_gets_an_empty_stack(self, name, monkeypatch):
        # rows whose eigenvector jump improved take no line search, and an
        # iteration where every row jumped runs none
        sizes = []
        kernel = bounds.tensor_stats

        def counted(kets, effects, counts):
            sizes.append(len(kets))
            return kernel(kets, effects, counts)

        monkeypatch.setattr(bounds, "tensor_stats", counted)
        for seed in range(3):
            omega_numeric(ASCENT_SETS[name], restarts=10, seed=seed)
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize("name", ["x/y", "x/y/z", "mub:3:2", "mub:3:3"])
    def test_matches_per_restart_loop_values(self, name):
        reference = json.loads(
            (Path(__file__).with_name("omega_numeric_reference.json")).read_text()
        )
        meas = {
            "x/y": [SX.povm(), SY.povm()],
            "x/y/z": [SX.povm(), SY.povm(), SZ.povm()],
            "mub:3:2": [o.povm() for o in mub_bases(3, 2)],
            "mub:3:3": [o.povm() for o in mub_bases(3, 3)],
        }[name]
        # the ascent of every k (omega_numeric's vector without the top-1
        # closed form) stays pinned to the reference
        for seed, want in enumerate(reference["omega"][name]):
            got = ascent_only_omega(meas, reference["restarts"], seed).values
            assert np.max(np.abs(got[:len(want)] - want)) <= 1e-9
            assert np.all(got[len(want):] == 0.0)
        if name == "x/y/z":
            # the closed-form top-1 entry lies under the chord to the pinned
            # top-2 entry, so omega_numeric's proven vector is the reference
            assert top1_closed_form(meas)[0] < sum(reference["omega"][name][0]) / 2
            for seed, want in enumerate(reference["omega"][name]):
                bound = omega_numeric(meas, restarts=reference["restarts"], seed=seed)
                assert bound.method == ANALYTIC_TOP1
                got = bound.omega.values
                assert np.max(np.abs(got[:len(want)] - want)) <= 1e-9
                assert np.all(got[len(want):] == 0.0)
        else:
            # omega_numeric's k = 1 entry is the closed form
            bound = omega_numeric(meas, restarts=reference["restarts"], seed=0)
            assert bound.omega[0] == pytest.approx(top1_closed_form(meas)[0], abs=1e-14)

    def test_concave_majorant_repair(self):
        increments = _concave_majorant_increments(np.array([0.5, 0.6, 1.0]))
        assert np.all(np.diff(increments) <= 1e-12)
        assert np.cumsum(increments)[0] >= 0.5
        assert np.cumsum(increments)[-1] == pytest.approx(1.0)


def random_qutrit_povm(rng):
    """Three-outcome qutrit POVM with full-rank, hence non-projective, effects."""
    g = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    positive = g @ g.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(positive.sum(axis=0))
    root = v @ np.diag(w**-0.5) @ v.conj().T
    effects = [root @ a @ root for a in positive]
    return Povm(tuple((e + e.conj().T) / 2 for e in effects), ("0", "1", "2"))


KERNEL_SETS = {
    "xy": [SX.povm(), SY.povm()],
    "xyz": [SX.povm(), SY.povm(), SZ.povm()],
    "mub:3:2": [o.povm() for o in mub_bases(3, 2)],
    "mub:3:3": [o.povm() for o in mub_bases(3, 3)],
    "qutrit-povm": [random_qutrit_povm(np.random.default_rng(45))],
}

ASCENT_SETS = {name: KERNEL_SETS[name] for name in ("xyz", "mub:3:2", "mub:3:3")} | {
    "mub:3:4": [o.povm() for o in mub_bases(3, 4)],
    "mub:5:2": [o.povm() for o in mub_bases(5, 2)],
}


def gue_triple(seed):
    rng = np.random.default_rng([57, seed])
    return [gue_observable(3, rng) for _ in range(3)]


# sets whose top-1 closed form no witness attains: the top eigenvector of
# the best outcome-string operator ends more than CLOSED_FORM_MARGIN below it
UNATTAINED_SETS = {
    "mub:3:4": ASCENT_SETS["mub:3:4"],
    "qutrit-povm-pair": [random_qutrit_povm(np.random.default_rng(s)) for s in (45, 46)],
    **{f"gue-{seed}": gue_triple(seed) for seed in range(3)},
}


# sets whose every top-k ascent the caps skip
CAPPED_SETS = {f"mub:{d}:{m}": [o.povm() for o in mub_bases(d, m)]
               for d, m in ((3, 3), (3, 4), (5, 3), (5, 4))}
# sets where the caps leave some ascent to run
ASCENDING_SETS = {"mub:3:2": ASCENT_SETS["mub:3:2"], "mub:5:2": ASCENT_SETS["mub:5:2"]} | {
    name: UNATTAINED_SETS[name] for name in UNATTAINED_SETS if name != "mub:3:4"}


def every_k_seeds(meas, seed):
    """omega_numeric's restart seeds: k draws from the (k - 1)-th child of SeedSequence(seed)."""
    d_out = max(p.n_outcomes for p in meas)
    return dict(zip(range(1, d_out), np.random.SeedSequence(seed).spawn(max(d_out - 1, 1))))


def ascent_only_omega(meas, restarts, seed):
    """omega_numeric's vector with every k from the ascent and no top-1 closed form."""
    maxima = _max_topk(meas, every_k_seeds(meas, seed), restarts)
    return _omega_from_cumulative([maxima[k] + NUMERIC_SLACK for k in sorted(maxima)],
                                  int(np.prod([p.n_outcomes for p in meas])))


def top1_closed_form(meas):
    """The top-1 closed form and the largest tensor entry of its witness state.

    One eigh per outcome string and ``born_stats`` on the witness, apart from
    the batched path of ``omega_numeric``.
    """
    strings = itertools.product(*(p.effects for p in meas))
    w, v = max((np.linalg.eigh(sum(effects)) for effects in strings), key=lambda wv: wv[0][-1])
    value, state = w[-1], DensityState(projector(v[:, -1]))
    witness = tensor_all([born_stats(state, p) for p in meas]).values.max()
    return (value / len(meas)) ** len(meas) + CLOSED_FORM_MARGIN / 2.0, witness


def library_top1(meas):
    """The library's top-1 cap and whether its witness attains it."""
    return bounds._top1_closed_form(*flat_effects([np.array(p.effects) for p in meas]))


def library_top2(meas):
    return bounds._top2_cap(*flat_effects([np.array(p.effects) for p in meas]))


def parent_omega(meas, restarts, seed):
    """omega_numeric's vector where every k without a witnessed closed form ascends.

    The top-1 closed form where its witness attains it, then the ascent and
    slack of every other k, each from its own seed.
    """
    top1, attained = library_top1(meas)
    seeds = every_k_seeds(meas, seed)
    cumulative = {1: top1} if attained else {}
    maxima = _max_topk(meas, {k: s for k, s in seeds.items() if k not in cumulative}, restarts)
    cumulative |= {k: maxima[k] + NUMERIC_SLACK for k in sorted(maxima)}
    return _omega_from_cumulative(list(cumulative.values()),
                                  int(np.prod([p.n_outcomes for p in meas])))


class TestTopOneClosedForm:
    """omega_numeric's k = 1 entry from the uniform fine-grained bound."""

    @pytest.mark.parametrize("name, grid", [("xyz", 50_000), ("mub:3:3", 3_000)])
    def test_at_least_brute_force_and_within_margin_of_its_witness(self, name, grid):
        meas = ASCENT_SETS[name]
        entry, witness = top1_closed_form(meas)
        assert witness <= entry <= witness + CLOSED_FORM_MARGIN
        assert library_top1(meas) == (pytest.approx(entry, abs=1e-14), True)
        assert brute_force_topk(meas, 1, grid) <= entry
        assert omega_numeric(meas, restarts=10, seed=0).omega[0] >= entry

    @pytest.mark.parametrize("m", [2, 3])
    def test_at_least_the_ascent(self, m):
        # the 64-restart ascent ends 5e-12 (m = 2) and 1.5e-10 (m = 3) below it
        meas = [o.povm() for o in mub_bases(5, m)]
        entry, witness = top1_closed_form(meas)
        assert witness <= entry <= witness + CLOSED_FORM_MARGIN
        ascent = _max_topk(meas, {1: np.random.SeedSequence(0)}, 64)[1]
        assert library_top1(meas)[0] >= ascent
        assert omega_numeric(meas, restarts=4, seed=0).omega[0] >= ascent

    def test_census_finds_no_violation(self):
        # x/y/z's closed form is attained; the caps decide the other three
        for name in ("xyz", "mub:3:3", "mub:3:4", "mub:5:3"):
            meas = CAPPED_SETS.get(name) or ASCENT_SETS[name]
            bound = omega_numeric(meas, restarts=10, seed=0)
            assert bound.method == ANALYTIC_TOP1
            assert verify_majorization_bound(bound, meas, 10_000, seed=21).violations == 0

    @pytest.mark.parametrize("name", UNATTAINED_SETS)
    def test_unattained_closed_form_leaves_the_ascent(self, name):
        # the cap still bounds the top-1 entry; on mub:3:4 the caps leave
        # the chord (1/3, 1/3, 1/3) to every ascent, so none runs
        meas = UNATTAINED_SETS[name]
        entry, witness = top1_closed_form(meas)
        assert witness < entry - CLOSED_FORM_MARGIN
        assert library_top1(meas) == (pytest.approx(entry, abs=1e-14), False)
        for seed in range(20):
            bound = omega_numeric(meas, restarts=4, seed=seed)
            if name == "mub:3:4":
                assert bound.method == ANALYTIC_TOP1 and bound.certified_slack == 0.0
            else:
                assert bound.method == NUMERIC_TOPK and bound.certified_slack == NUMERIC_SLACK
            assert np.array_equal(bound.omega.values, ascent_only_omega(meas, 4, seed).values)

    @pytest.mark.parametrize("name", ["xyz", "mub:3:3", "mub:3:4", "mub:5:2", "qutrit-povm"])
    def test_ascended_entries_match_the_ascent_of_every_k(self, name, monkeypatch):
        # a single measurement's top-1 entry is its largest effect
        # eigenvalue, attained by its eigenvector
        meas = KERNEL_SETS.get(name) or ASCENT_SETS[name]
        ascent = bounds._max_topk
        ran = []

        def recorded(*args):
            ran.append(ascent(*args))
            return ran[-1]

        monkeypatch.setattr(bounds, "_max_topk", recorded)
        skipped = {1} if library_top1(meas)[1] else set()
        assert skipped or name == "mub:3:4"
        # the caps leave no k of mub:3:3 and mub:3:4 to ascend
        capped = name in CAPPED_SETS
        for seed in range(20):
            del ran[:]
            omega_numeric(meas, restarts=10, seed=seed)
            every_k = ascent(meas, every_k_seeds(meas, seed), 10)
            left = set() if capped else set(every_k) - skipped
            # no call, not even an empty one, where no k is left to ascend
            assert len(ran) == (1 if left else 0)
            if left:
                assert set(ran[0]) == left
                assert all(abs(value - every_k[k]) <= 1e-12 for k, value in ran[0].items())

    @pytest.mark.parametrize("name", ["xy", "xyz"])
    def test_attained_top1_alone_spawns_no_seeds(self, name, monkeypatch):
        # two-outcome sets have only k = 1, which the closed form decides
        meas = KERNEL_SETS[name]
        expected = [parent_omega(meas, 10, seed).values for seed in range(20)]
        monkeypatch.setattr(bounds, "_max_topk", None)
        monkeypatch.setattr(np.random, "SeedSequence", None)
        for seed, want in enumerate(expected):
            bound = omega_numeric(meas, restarts=10, seed=seed)
            assert bound.method == ANALYTIC_TOP1 and bound.certified_slack == 0.0
            assert np.array_equal(bound.omega.values, want)

    def test_over_budget_strings_take_the_ascent(self, monkeypatch):
        # x/y/z's 8 outcome-string operators hold 32 entries
        meas = ASCENT_SETS["xyz"]
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 31)
        bound = omega_numeric(meas, restarts=10, seed=0)
        assert bound.method == NUMERIC_TOPK and bound.certified_slack == NUMERIC_SLACK
        assert np.array_equal(bound.omega.values, ascent_only_omega(meas, 10, 0).values)
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 32)
        bound = omega_numeric(meas, restarts=10, seed=0)
        assert bound.method == ANALYTIC_TOP1 and bound.certified_slack == 0.0

    def test_no_k_without_the_closed_form_keeps_the_numeric_label(self):
        # one-effect measurements leave no k, so no closed form is taken
        trivial = Povm((np.eye(2, dtype=complex),), ("1",))
        bound = omega_numeric([trivial, trivial], restarts=4, seed=0)
        assert np.array_equal(bound.omega.values, [1.0])
        assert bound.method == NUMERIC_TOPK and bound.certified_slack == NUMERIC_SLACK

    def test_cli_reports_the_proven_label(self, tmp_path):
        xyz = ["pauli_x", "pauli_y", "pauli_z"]
        config, report = tmp_path / "config.json", tmp_path / "report.json"
        config.write_text(json.dumps({"scenario_kind": "bound_only",
                                      "measurements": {"meas": xyz}}))
        assert cli.run(str(config), json_path=str(report), seed=0, restarts=10, quiet=True) == 0
        payload = json.loads(report.read_text())["bound_vector"]
        assert payload["method"] == ANALYTIC_TOP1 and payload["certified_slack"] == 0.0
        config.write_text(json.dumps({"scenario_kind": "entanglement", "flavor": "universal",
                                      "state": "bell_phi_plus", "quantifier": "shannon",
                                      "measurements": {"x": xyz}}))
        assert cli.run(str(config), json_path=str(report), seed=0, restarts=10, quiet=True) == 2
        (verdict,) = json.loads(report.read_text())["reports"]
        assert verdict["verdict"] == "Detected" and verdict["certified"]


class TestTopTwoCaps:
    """omega_numeric skips every ascent that the caps show cannot change omega."""

    def test_at_least_brute_force(self):
        meas = CAPPED_SETS["mub:3:3"]
        assert brute_force_topk(meas, 2, 3_000) <= library_top2(meas)

    @pytest.mark.parametrize("name", ["mub:3:3", "mub:3:4", "mub:5:3"])
    def test_at_least_the_ascent(self, name):
        meas = CAPPED_SETS[name]
        assert _max_topk(meas, {2: np.random.SeedSequence(0)}, 64)[2] <= library_top2(meas)

    @pytest.mark.parametrize("name", CAPPED_SETS)
    def test_skipped_ascents_leave_the_parent_vector(self, name, monkeypatch):
        meas = CAPPED_SETS[name]
        expected = [parent_omega(meas, 10, seed).values for seed in range(20)]
        monkeypatch.setattr(bounds, "_max_topk", None)
        monkeypatch.setattr(np.random, "SeedSequence", None)
        for seed, want in enumerate(expected):
            bound = omega_numeric(meas, restarts=10, seed=seed)
            assert bound.method == ANALYTIC_TOP1 and bound.certified_slack == 0.0
            assert np.array_equal(bound.omega.values, want)

    @pytest.mark.parametrize("name", ASCENDING_SETS)
    def test_ascending_sets_keep_the_parent_vector(self, name):
        meas = ASCENDING_SETS[name]
        for seed in range(10):
            bound = omega_numeric(meas, restarts=10, seed=seed)
            assert bound.method == NUMERIC_TOPK and bound.certified_slack == NUMERIC_SLACK
            assert np.array_equal(bound.omega.values, parent_omega(meas, 10, seed).values)

    def test_over_budget_caps_take_the_ascent(self, monkeypatch):
        # mub:3:3's 81 top-2 operators hold 729 entries, its 27 top-1 ones 243
        meas = CAPPED_SETS["mub:3:3"]
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 728)
        assert library_top1(meas)[1] and library_top2(meas) is None
        bound = omega_numeric(meas, restarts=10, seed=0)
        assert bound.method == NUMERIC_TOPK and bound.certified_slack == NUMERIC_SLACK
        assert np.array_equal(bound.omega.values, parent_omega(meas, 10, 0).values)
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 729)
        assert omega_numeric(meas, restarts=10, seed=0).method == ANALYTIC_TOP1


class TestTensorStatsKernel:
    @pytest.mark.parametrize("name", KERNEL_SETS)
    def test_matches_born_stats_reference(self, name):
        meas = KERNEL_SETS[name]
        rng = np.random.default_rng(46)
        kets = np.array([random_ket(meas[0].dim, rng) for _ in range(20)])
        probs, t = tensor_stats(kets, *flat_effects([np.array(p.effects) for p in meas]))
        for row, psi in enumerate(kets):
            state = DensityState(projector(psi))
            stats = [born_stats(state, p) for p in meas]
            for got, want in zip(probs, stats):
                assert np.max(np.abs(got[row] - want.values)) <= 1e-12
            ref = tensor_all(stats).values
            assert np.max(np.abs(t[row] - ref)) <= 1e-12
            cumulative = np.cumsum(np.sort(ref)[::-1])
            for k in range(1, ref.size + 1):
                top = topk_sums(t[row:row + 1], k)[0]
                assert top == pytest.approx(cumulative[k - 1], abs=1e-12)
        # one count per row: row r sums its (r mod m) + 1 largest entries
        counts = np.arange(len(t)) % t.shape[1] + 1
        per_row = [topk_sums(t[row:row + 1], k)[0] for row, k in enumerate(counts)]
        assert np.max(np.abs(topk_sums(t, counts) - per_row)) <= 1e-12


class TestBatchedBornStats:
    """The census's stacked Born rule against one ``born_stats`` call per state."""

    @pytest.mark.parametrize("name", KERNEL_SETS)
    def test_rows_match_per_state_statistics(self, name):
        meas = KERNEL_SETS[name]
        rng = np.random.default_rng(47)
        d = meas[0].dim
        states = [DensityState(projector(random_ket(d, rng))) if i % 2 == 0
                  else random_mixed_state(d, rng) for i in range(21)]
        stack = DensityStack(np.array([s.matrix for s in states]))
        for p in meas:
            rows = born_stats(stack, p)
            assert rows.shape == (21, p.n_outcomes)
            for row, state in zip(rows, states):
                assert np.max(np.abs(row - born_stats(state, p).values)) <= 1e-12
                traces = [np.trace(e @ state.matrix).real for e in p.effects]
                assert np.max(np.abs(row - traces)) <= 1e-12


class TestMaassenUffink:
    def test_pauli_xy_is_one_bit(self):
        assert maassen_uffink(SX, SY) == 1.0

    def test_shared_eigenbasis(self):
        assert maassen_uffink(SZ, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_qutrit_mub_pair(self):
        a, b = mub_bases(3, 2)
        assert maassen_uffink(a, b) == pytest.approx(np.log2(3), abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            maassen_uffink(observable_from_matrix(np.eye(2)), SX)

    def test_entropy_sum_dominates_bound(self):
        # oracle check: the entropic sum over random states never dips below
        # the overlap bound, nor below its state-dependent strengthening
        from uwit import shannon

        rng = np.random.default_rng(44)
        for _ in range(300):
            a = random_qubit_observable(rng)
            b = random_qubit_observable(rng)
            state = random_mixed_state(2, rng)
            total = shannon(born_stats(state, a.povm())) + shannon(born_stats(state, b.povm()))
            assert total >= maassen_uffink(a, b) - 1e-9
            assert total >= maassen_uffink(a, b) + von_neumann_entropy(state) - 1e-9


class TestFineGrained:
    def test_xz_block_value(self):
        fb = fine_grained_bound([SX.povm(), SZ.povm()], ("+", "0"), make_probvec((0.5, 0.5)))
        assert fb.value == pytest.approx(0.5 + 1 / (2 * np.sqrt(2)), abs=1e-12)
        # witness attains the bound
        op = 0.5 * SX.povm().effect_for("+") + 0.5 * SZ.povm().effect_for("0")
        w = fb.operator_norm_witness
        assert np.real(w.conj() @ (op @ w)) == pytest.approx(fb.value, abs=1e-12)

    def test_single_measurement_saturates(self):
        fb = fine_grained_bound([SZ.povm()], ("1",), make_probvec((1.0,)))
        assert fb.value == pytest.approx(1.0)

    def test_mub_triple(self):
        povms = [o.povm() for o in mub_bases(2, 3)]
        fb = fine_grained_bound(povms, ("0", "0", "0"), uniform(3))
        assert fb.value == pytest.approx(mub_fine_grained_bound(2, 3), abs=1e-9)

    @pytest.mark.parametrize("name", ["xyz", "mub:3:2", "mub:3:3", "qutrit-povm-pair"])
    def test_map_matches_per_string_eigh(self, name, monkeypatch):
        # every bound of the batched kernel against one eigh per string,
        # whole and in chunks of two strings
        meas = (KERNEL_SETS | UNATTAINED_SETS)[name]
        priors = make_probvec(np.random.default_rng(77).dirichlet(np.ones(len(meas))))
        d = meas[0].dim
        maps = [fine_grained_bound_map(meas, priors)]
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 2 * d * d)
        maps.append(fine_grained_bound_map(meas, priors))
        for labels in itertools.product(*(p.outcome_labels for p in meas)):
            op = sum(w * p.effect_for(label) for w, p, label in zip(priors.values, meas, labels))
            w, v = np.linalg.eigh((op + op.conj().T) / 2.0)
            for bound_map in maps:
                bound = bound_map[labels]
                assert bound.value == pytest.approx(w[-1], abs=1e-14)
                overlap = abs(np.vdot(v[:, -1], bound.operator_norm_witness))
                assert overlap == pytest.approx(1.0, abs=1e-12)
                assert fine_grained_bound(meas, labels, priors).value == bound.value

    def test_mub_formula(self):
        assert mub_fine_grained_bound(2, 2) == pytest.approx(0.5 + 1 / (2 * np.sqrt(2)))
        assert mub_fine_grained_bound(2, 3) == pytest.approx(0.788675, abs=1e-6)
        assert mub_fine_grained_bound(3, 2) == pytest.approx((1 + 2 / np.sqrt(2)) / 3, abs=1e-12)


def matched_request(meas):
    """Matched events on both sides' equal settings, each with prior 1/m."""
    pairs = list(itertools.product(range(len(meas)), repeat=2))
    events = [matched_outcome_events(meas[i], meas[j]) for i, j in pairs]
    return meas, meas, events, make_probvec([1.0 / len(meas) if i == j else 0.0 for i, j in pairs])


def product_terms(meas_a, meas_b, events, priors):
    """The (weights, Alice effects, Bob effects) of every nonzero-weight term."""
    pairs = itertools.product(range(len(meas_a)), range(len(meas_b)))
    events = bounds._pair_events(meas_a, meas_b, events)
    terms = [(w, meas_a[i].effect_for(a), meas_b[j].effect_for(b))
             for w, (i, j), event in zip(priors.values, pairs, events) for a, b in event if w]
    return tuple(np.array(x) for x in zip(*terms))


def alternation_bound(request, restarts, seed):
    """The alternating ascent's value plus slack, capped at 1, and its witness."""
    meas_a, meas_b = request[:2]
    weights, effects_a, effects_b = product_terms(*request)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(restarts)]
    u, v = (np.array(kets) for kets in zip(*((random_ket(meas_a[0].dim, rng),
                                               random_ket(meas_b[0].dim, rng)) for rng in rngs)))
    f, u, v = _alternate(u, v, weights, effects_a, effects_b, 200)
    best = int(np.argmax(f))
    return min(f[best] + NUMERIC_SLACK, 1.0), np.kron(u[best], v[best])


MATCHED_REQUESTS = {
    "x/z": (matched_request([SX.povm(), SZ.povm()]), 0.75),
    "x/y/z": (matched_request([SX.povm(), SY.povm(), SZ.povm()]), 2.0 / 3.0),
    "mub:3:4": (matched_request([o.povm() for o in mub_bases(3, 4)]), 0.5),
}
XZ = [SX.povm(), SZ.povm()]
# requests whose product closed form is not taken
FALLBACK_REQUESTS = {
    # matchings, but no witness attains the bound: the x/z singletons' cap
    # 0.728553 is the maximum, their witness reaches 0.6545
    "x/z singletons": (XZ, XZ, (("+", "0"), ("+", "0")), make_probvec((0.5, 0.0, 0.0, 0.5))),
    "mub:3:2": matched_request([o.povm() for o in mub_bases(3, 2)]),
    # Alice's "+" twice in one event
    "not a matching": (XZ, XZ, [[], [("+", "0"), ("+", "1")], [], [("0", "0")]],
                       make_probvec((0.0, 0.5, 0.0, 0.5))),
}


class TestFineGrainedProduct:
    @pytest.mark.parametrize("name", MATCHED_REQUESTS)
    def test_matched_events_take_the_closed_form(self, name, monkeypatch):
        request, exact = MATCHED_REQUESTS[name]
        alternation = alternation_bound(request, 32, 0)[0] - NUMERIC_SLACK
        monkeypatch.setattr(bounds, "_alternate", None)
        bound = fine_grained_bound_product(*request, restarts=32, seed=0)
        assert bound.method == ANALYTIC_PRODUCT and bound.certified
        assert bound.certified_slack == 0.0
        assert bound.value == pytest.approx(exact, abs=1e-14)
        assert bound.value >= alternation
        weights, effects_a, effects_b = product_terms(*request)
        psi = bound.operator_norm_witness
        witness = sum(w * (psi.conj() @ np.kron(a, b) @ psi).real
                      for w, a, b in zip(weights, effects_a, effects_b))
        assert witness <= bound.value <= witness + CLOSED_FORM_MARGIN

    @pytest.mark.parametrize("name", FALLBACK_REQUESTS)
    def test_fallback_is_the_alternation(self, name):
        request = FALLBACK_REQUESTS[name]
        value, witness = alternation_bound(request, 16, 3)
        bound = fine_grained_bound_product(*request, restarts=16, seed=3)
        assert bound.method == ALTERNATING_NUMERIC and bound.certified_slack == NUMERIC_SLACK
        assert bound.value == value
        assert np.array_equal(bound.operator_norm_witness, witness)

    def test_single_pair_rank_one(self):
        fb = fine_grained_bound_product(
            [SX.povm()], [SZ.povm()], (("+",), ("0",)), make_probvec((1.0,)),
            restarts=8, seed=0,
        )
        assert fb.value == pytest.approx(1.0, abs=1e-9)

    def test_xz_matched_pairs(self):
        # product-state maximum of the prior-weighted singleton events; the
        # grid oracle and the symmetric stationary point agree on (3+2sqrt2)/8
        meas = [SX.povm(), SZ.povm()]
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        fb = fine_grained_bound_product(meas, meas, (("+", "0"), ("+", "0")), priors,
                                        restarts=16, seed=1)
        assert fb.value == pytest.approx(GAMMA1, abs=5e-6)

    def test_outcome_strings_must_fit_measurements(self):
        meas = [SX.povm(), SZ.povm()]
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        with pytest.raises(DimensionMismatch):
            fine_grained_bound_product(meas, meas, (("+",), ("+", "0")), priors, restarts=2)

    def test_batch_rows_do_not_interact(self):
        # random rank-one term effects, from which the rows need four to
        # nine iterations; each row ends where its one-row run ends
        rng = np.random.default_rng(2)
        effects_a = np.array([projector(random_ket(3, rng)) for _ in range(5)])
        effects_b = np.array([projector(random_ket(3, rng)) for _ in range(5)])
        weights = rng.exponential(size=5)
        u = np.array([random_ket(3, rng) for _ in range(8)])
        v = np.array([random_ket(3, rng) for _ in range(8)])
        f, u_end, v_end = _alternate(u, v, weights, effects_a, effects_b, 200)
        for i in range(8):
            f_i, u_i, v_i = _alternate(u[i:i + 1], v[i:i + 1], weights, effects_a, effects_b, 200)
            assert abs(f[i] - f_i[0]) <= 1e-12
            assert np.allclose(u_end[i], u_i[0], atol=1e-12)
            assert np.allclose(v_end[i], v_i[0], atol=1e-12)

    def test_still_improving_after_maxiter_raises(self):
        # the random terms of test_batch_rows_do_not_interact need at least
        # four iterations; the default limit lets them converge
        rng = np.random.default_rng(2)
        effects_a = np.array([projector(random_ket(3, rng)) for _ in range(5)])
        effects_b = np.array([projector(random_ket(3, rng)) for _ in range(5)])
        weights = rng.exponential(size=5)
        u = np.array([random_ket(3, rng) for _ in range(8)])
        v = np.array([random_ket(3, rng) for _ in range(8)])
        with pytest.raises(NoConvergence, match="after 1 iterations"):
            _alternate(u, v, weights, effects_a, effects_b, maxiter=1)
        assert len(_alternate(u, v, weights, effects_a, effects_b)[0]) == 8

    def test_empty_event_drops_a_setting(self):
        # emptying one setting pair's event leaves the prior-weighted
        # maximum of the remaining pair, by linearity
        meas = [SX.povm(), SZ.povm()]
        priors = make_probvec((0.5, 0.0, 0.0, 0.5))
        events = [[("+", "+")], [], [], []]
        fb = fine_grained_bound_product(meas, meas, events, priors, restarts=8, seed=2)
        assert fb.value == pytest.approx(0.5, abs=1e-5)


class TestCertification:
    def test_one_rule_for_both_bound_kinds(self):
        assert BoundVector.certified is FineGrainedBound.certified
        witness = np.ones(1)
        for method in (*PROVEN_METHODS, NUMERIC_TOPK, ALTERNATING_NUMERIC):
            for slack in (0.0, NUMERIC_SLACK):
                expected = method in PROVEN_METHODS or slack > 0.0
                vector = BoundVector(uniform(2), method, "", slack)
                fine = FineGrainedBound(0.5, witness, "", method, slack)
                assert vector.certified == fine.certified == expected
        assert PROVEN_METHODS == {ANALYTIC_TWO_DICHOTOMIC, ANALYTIC_TWO_BASES, ANALYTIC_TOP1,
                                  EIGEN_EXACT, ANALYTIC_PRODUCT}


class TestFingerprints:
    def test_same_measurements_same_fingerprint(self):
        b1 = omega_two_dichotomic(SX, SY)
        b2 = omega_two_dichotomic(SX, SY)
        assert b1.measurement_fingerprint == b2.measurement_fingerprint

    def test_different_measurements_differ(self):
        assert (
            omega_two_dichotomic(SX, SY).measurement_fingerprint
            != omega_two_dichotomic(SZ, SX).measurement_fingerprint
        )

    def test_digests_match_per_effect_formula(self):
        def reference(povms, extra=""):
            h = hashlib.sha256()
            for p in povms:
                h.update(str(p.dim).encode())
                for label, effect in zip(p.outcome_labels, p.effects):
                    h.update(label.encode())
                    h.update(np.ascontiguousarray(effect, dtype=complex).tobytes())
            h.update(extra.encode())
            return h.hexdigest()

        for meas in KERNEL_SETS.values():
            for extra in ("", "x", "[[('+', '0')]]"):
                assert fingerprint_povms(meas, extra) == reference(meas, extra)
            strings = list(itertools.product(*(p.outcome_labels for p in meas)))
            # a fine-grained key is the exact priors' hex digits, then the string's repr
            for priors in (uniform(len(meas)), make_probvec([1.0] + [0.0] * (len(meas) - 1))):
                key = priors.values.tobytes().hex()
                fingerprints = outcome_string_fingerprints(meas, strings, priors)
                assert fingerprints == {s: reference(meas, key + repr(s)) for s in strings}
                for labels, bound in fine_grained_bound_map(meas, priors).items():
                    assert bound.measurement_fingerprint == fingerprints[labels]
                assert (fine_grained_bound(meas, strings[-1], priors).measurement_fingerprint
                        == fingerprints[strings[-1]])
        # a product bound's key: Bob's side, then Alice's own digest, the
        # priors' hex digits and the events
        xz, priors = [SX.povm(), SZ.povm()], make_probvec((0.5, 0.0, 0.0, 0.5))
        bound = fine_grained_bound_product(xz, xz, (("+", "0"), ("+", "0")), priors, restarts=4)
        events = repr(_pair_events(xz, xz, (("+", "0"), ("+", "0"))))
        assert bound.measurement_fingerprint == reference(
            xz, reference(xz) + priors.values.tobytes().hex() + events)

    def test_labels_containing_the_old_separator_get_distinct_keys(self):
        # joined with "|", ("a|b", "c") and ("a", "b|c") were one key
        a = Povm(SZ.effects, ("a|b", "a"))
        b = Povm(SX.effects, ("c", "b|c"))
        strings = [("a|b", "c"), ("a", "b|c")]
        keys = outcome_string_fingerprints([a, b], strings, uniform(2))
        assert keys[strings[0]] != keys[strings[1]]
        bounds_map = fine_grained_bound_map([a, b], uniform(2))
        assert (bounds_map[strings[0]].measurement_fingerprint
                != bounds_map[strings[1]].measurement_fingerprint)

    def test_bytes_built_once_per_measurement(self):
        povm = mub_bases(3, 2)[0]
        assert povm.fingerprint_bytes is povm.fingerprint_bytes
        assert fingerprint_povms([povm]) == hashlib.sha256(povm.fingerprint_bytes).hexdigest()

    def test_random_pair_validity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a, b = random_qubit_observable(rng), random_qubit_observable(rng)
            bound = omega_two_dichotomic(a, b)
            for _ in range(50):
                state = random_mixed_state(2, rng)
                stats = tensor_all(
                    [born_stats(state, a.povm()), born_stats(state, b.povm())]
                )
                assert majorized_by(stats, bound.omega)


MEMOIZED_KERNELS = ("_string_eigenpairs", "_top1_closed_form", "_top2_cap", "_overlap_norms",
                    "_product_closed_form")


def every_bound(meas):
    """Every bound the builders give one set, as comparable fields.

    Its vector, the two-bases vector where it applies, its uniform
    fine-grained map and its matched product bound, each as the method, the
    fingerprint, the slack and the bytes of its values and witness.
    """
    built = [omega_numeric(meas, restarts=4, seed=0)]
    if len(meas) == 2 and all(isinstance(p, Observable) and p.nondegenerate for p in meas):
        built.append(omega_two_bases(*meas))
    built += fine_grained_bound_map(meas, uniform(len(meas))).values()
    built.append(fine_grained_bound_product(*matched_request(meas), restarts=4, seed=0))
    return [(b.method, b.measurement_fingerprint, b.certified_slack,
             b.omega.values.tobytes() if isinstance(b, BoundVector)
             else (b.value, b.operator_norm_witness.tobytes())) for b in built]


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture
def counted_kernels(monkeypatch):
    """An empty memo, and every memoized kernel decorated afresh around a call log."""
    monkeypatch.setattr(bounds, "_MEMO", bounds._Memo())
    calls = []
    for name in MEMOIZED_KERNELS:
        kernel = getattr(bounds, name).__wrapped__

        @functools.wraps(kernel)
        def counted(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)

        monkeypatch.setattr(bounds, name, bounds._memoized(counted))
    return calls


class TestKernelMemo:
    @pytest.mark.parametrize("name", KERNEL_SETS)
    def test_second_build_calls_no_kernel(self, name, counted_kernels, monkeypatch):
        meas = KERNEL_SETS[name]
        first = every_bound(meas)
        assert counted_kernels
        del counted_kernels[:]
        second = every_bound(meas)
        assert counted_kernels == []
        # with nothing kept, every build runs every kernel: the same bits
        monkeypatch.setattr(bounds, "_MEMO", bounds._Memo())
        monkeypatch.setattr(bounds, "_MEMO_ENTRIES", 0)
        uncached = every_bound(meas)
        assert counted_kernels and len(bounds._MEMO) == 0
        assert first == second == uncached

    def test_witnesses_and_cached_arrays_are_read_only(self, counted_kernels):
        meas = KERNEL_SETS["mub:3:2"]
        xz, priors = [SX.povm(), SZ.povm()], make_probvec((0.5, 0.0, 0.0, 0.5))
        built = [*fine_grained_bound_map(meas, uniform(2)).values(),
                 fine_grained_bound_product(*matched_request(xz), restarts=4, seed=0),
                 # the x/z singletons take the ascent, whose result is not cached
                 fine_grained_bound_product(xz, xz, (("+", "0"), ("+", "0")), priors, restarts=4)]
        assert built[-2].method == ANALYTIC_PRODUCT and built[-1].method == ALTERNATING_NUMERIC
        for bound in built:
            with pytest.raises(ValueError):
                bound.operator_norm_witness[0] = 0.0
        s_line, _ = bounds._overlap_norms(*meas)
        with pytest.raises(ValueError):
            s_line[0] = 0.0
        cached = [x for result, _ in bounds._MEMO.values()
                  for x in (result if isinstance(result, tuple) else (result,))
                  if isinstance(x, np.ndarray)]
        assert len(cached) >= 6 and not any(x.flags.writeable for x in cached)

    def test_a_flood_of_bloch_pairs_stays_within_the_bounds(self, counted_kernels, monkeypatch):
        rng = np.random.default_rng(81)

        def flood(pairs):
            for a, b in unit_vectors(rng, 2 * pairs).reshape(pairs, 2, 3):
                omega_two_dichotomic(bloch_observable(a), bloch_observable(b))

        memo = bounds._MEMO
        flood(bounds._MEMO_ENTRIES + 40)
        assert len(counted_kernels) == bounds._MEMO_ENTRIES + 40
        assert len(memo) == bounds._MEMO_ENTRIES
        assert memo.nbytes == sum(n for _, n in memo.values()) <= bounds._MEMO_BYTES
        # each pair caches two 1-entry arrays: 16 bytes
        monkeypatch.setattr(bounds, "_MEMO_BYTES", 1000)
        flood(20)
        assert memo.nbytes == sum(n for _, n in memo.values()) <= 1000
        assert len(memo) == 1000 // 16
        # a result larger than the byte bound is not kept
        monkeypatch.setattr(bounds, "_MEMO_BYTES", 15)
        monkeypatch.setattr(bounds, "_MEMO", bounds._Memo())
        flood(3)
        assert len(bounds._MEMO) == 0 and bounds._MEMO.nbytes == 0

    def test_a_lowered_budget_is_a_miss(self, counted_kernels, monkeypatch):
        # the budget is part of the key, so a cached result never hides its check
        meas = CAPPED_SETS["mub:3:3"]
        assert library_top2(meas) is not None
        rng = np.random.default_rng(52)
        x, y = gue_observable(4, rng), gue_observable(4, rng)
        exact = _overlap_norms(x, y)[1]
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 728)
        assert library_top2(meas) is None
        assert omega_numeric(meas, restarts=10, seed=0).method == NUMERIC_TOPK
        monkeypatch.setattr(bounds, "_BLOCK_ENTRIES", 143)
        capped = _overlap_norms(x, y)[1]
        assert capped[2] > exact[2] and np.array_equal(capped[:2], exact[:2])

    def test_ascents_run_on_every_request(self, monkeypatch):
        # omega_numeric on a random qutrit triple, as the parent commit of
        # the memo computed it; seed 2's k = 1 ascent ends in another optimum
        parent = {0: [0.6266819554224045, 0.19124848580284204, 0.1820695587747535],
                  1: [0.6266819554221283, 0.19124848580273623, 0.18206955877513542],
                  2: [0.6176025272036172, 0.2003279140216211, 0.18206955877476172]}
        meas = gue_triple(0)
        ascent, alternate, ran = bounds._max_topk, bounds._alternate, []
        monkeypatch.setattr(bounds, "_max_topk", lambda *a: (ran.append("topk"), ascent(*a))[1])
        monkeypatch.setattr(bounds, "_alternate", lambda *a: (ran.append("alt"), alternate(*a))[1])
        for seed in (0, 1, 2, 0, 1, 2):
            bound = omega_numeric(meas, restarts=10, seed=seed)
            assert bound.method == NUMERIC_TOPK
            assert np.max(np.abs(bound.omega.values[:3] - parent[seed])) <= 1e-9
            assert np.array_equal(bound.omega.values, parent_omega(meas, 10, seed).values)
        assert ran == ["topk"] * 6
        xz, priors = [SX.povm(), SZ.povm()], make_probvec((0.5, 0.0, 0.0, 0.5))
        for _ in range(2):
            fine_grained_bound_product(xz, xz, (("+", "0"), ("+", "0")), priors, restarts=4)
        assert ran[6:] == ["alt"] * 2

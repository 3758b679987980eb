import json

import numpy as np
import pytest

from uwit import (
    DensityState,
    Povm,
    assemblage_to_config,
    bell_phi_plus,
    fine_grained_bound,
    fine_grained_bound_map,
    lhs_assemblage,
    observable_from_matrix,
    pauli_observable,
    steer,
    uniform,
)
from uwit.assemblage import matrix_to_json
from uwit.quantum import projector
from uwit.cli import PRESETS, load_config, main, run
from uwit.errors import ConfigParse


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def witness_steering_config(bob_specs, bob_povms, outcomes, witness_string):
    """Fine-grained steering config on an LHS assemblage with one hidden state.

    The hidden state sits at the witness of ``witness_string``'s bound and
    Alice always announces outcome 0, so some column reaches that bound.
    """
    bound = fine_grained_bound(bob_povms, witness_string, uniform(len(bob_povms)))
    n = bob_povms[0].n_outcomes
    asm = lhs_assemblage(
        [(1.0, DensityState(projector(bound.operator_norm_witness)))],
        [[[1.0] + [0.0] * (n - 1)] * len(bob_povms)],
    )
    return {
        "scenario_kind": "steering",
        "flavor": "fine_grained",
        "assemblage": assemblage_to_config(asm),
        "measurements": {"bob": bob_specs},
        "outcomes": list(outcomes),
    }


def fine_grained_scan_config(outcomes):
    return {
        "scenario_kind": "scan",
        "measurements": {"alice": ["pauli_x", "pauli_z"], "bob": ["pauli_x", "pauli_z"]},
        "outcomes": outcomes,
        "scan": {
            "family": "werner",
            "criterion": "steering_fine_grained",
            "grid": {"start": 0.0, "stop": 1.0, "step": 0.25},
        },
    }


class TestPresets:
    def test_example_1_detects(self, capsys):
        assert run("preset:paper-example-1", quiet=True) == 2

    def test_example_2_detects(self):
        assert run("preset:paper-example-2", quiet=True) == 2

    def test_eq12_detects(self):
        assert run("preset:paper-eq12", quiet=True) == 2

    def test_presets_clean_on_maximally_mixed(self):
        for preset in ("paper-example-1", "paper-example-2", "paper-eq12"):
            assert run(f"preset:{preset}", state_override="maximally_mixed:4", quiet=True) == 0

    def test_unknown_preset(self):
        assert main(["preset:nope"]) == 1

    def test_preset_catalog(self):
        assert set(PRESETS) == {"paper-example-1", "paper-example-2", "paper-eq12"}


class TestReports:
    def test_text_report_values(self, capsys):
        run("preset:paper-example-1")
        out = capsys.readouterr().out
        assert "lhs=0.000000" in out
        assert "bound=0.843533" in out
        assert "verdict=Detected" in out
        assert "overall: Detected" in out

    def test_json_matches_text(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        run("preset:paper-example-1", json_path=str(json_path))
        out = capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        report = payload["reports"][0]
        assert f"lhs={report['lhs_value']:.6f}" in out
        assert f"bound={report['bound_value']:.6f}" in out
        assert payload["schema_version"] == 1
        assert payload["tool"]["name"] == "uwit"
        assert len(payload["config_fingerprint"]) == 64
        assert report["certified"] is True

    def test_quiet_suppresses_text(self, capsys):
        run("preset:paper-example-1", quiet=True)
        assert capsys.readouterr().out == ""


class TestScenarios:
    def test_bound_only(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "bound_only",
                "measurements": {"meas": ["pauli_x", "pauli_y"]},
                "oracle": {"samples": 100, "seed": 3, "grid": 20000},
            },
        )
        json_path = tmp_path / "bound.json"
        assert run(path, json_path=str(json_path)) == 0
        out = capsys.readouterr().out
        assert "omega = (0.728553, 0.271447, 0.000000, 0.000000)" in out
        assert "violations=0" in out
        assert "grid witness" in out
        payload = json.loads(json_path.read_text())
        assert payload["grid_witness_top1"] == pytest.approx(
            (3 + 2 * np.sqrt(2)) / 8, abs=1e-5
        )

    def test_scan_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "scan.csv"
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "scan",
                "measurements": {
                    "alice": ["pauli_x", "pauli_y"],
                    "bob": ["pauli_x", "pauli_y"],
                },
                "quantifier": "shannon",
                "scan": {
                    "family": "werner",
                    "criterion": "steering_universal",
                    "grid": {"start": 0.0, "stop": 1.0, "step": 0.05},
                    "bisect_tol": 1e-3,
                },
            },
        )
        assert run(path, csv_path=str(csv_path)) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "parameter,lhs,bound,verdict"
        verdicts = [line.rsplit(",", 1)[1] for line in lines[1:]]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1
        out = capsys.readouterr().out
        assert "threshold" in out

    def test_fine_grained_steering_scenario(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "steering",
                "flavor": "fine_grained",
                "state": "bell_phi_plus",
                "measurements": {
                    "alice": ["pauli_x", "pauli_z"],
                    "bob": ["pauli_x", "pauli_z"],
                },
                "outcomes": ["+", "0"],
            },
        )
        assert run(path, quiet=True) == 2

    def test_fine_grained_entanglement_scenario(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "entanglement",
                "flavor": "fine_grained",
                "state": "bell_phi_plus",
                "measurements": {
                    "x": ["pauli_x", "pauli_z"],
                    "y": ["pauli_x", "pauli_z"],
                },
                "outcomes": "matched",
            },
        )
        assert run(path, quiet=True, restarts=16) == 2

    def test_witness_lhs_qubit_not_detected(self, tmp_path):
        # sigma_z and the xz-plane axis at 120 degrees: the strings have unequal bounds
        angle = 2 * np.pi / 3
        matrices = [
            np.array([[1, 0], [0, -1]], dtype=complex),
            np.array([[np.cos(angle), np.sin(angle)], [np.sin(angle), -np.cos(angle)]],
                     dtype=complex),
        ]
        bob = [observable_from_matrix(m).povm() for m in matrices]
        specs = [{"observable": matrix_to_json(m)} for m in matrices]
        config = witness_steering_config(specs, bob, ("1", "1"), ("1", "-1"))
        assert run(write_config(tmp_path, config), quiet=True) == 0

    def test_witness_lhs_six_qutrit_settings_not_detected(self, tmp_path):
        # 3^6 = 729 outcome strings; the configured string has the smallest
        # bound and the hidden state sits at the witness of the largest
        rng = np.random.default_rng(68)
        bob, specs = [], []
        for _ in range(6):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            effects = [projector(q[:, k]) for k in range(3)]
            bob.append(Povm(tuple(effects), ("0", "1", "2")))
            specs.append({"effects": [matrix_to_json(e) for e in effects],
                          "labels": ["0", "1", "2"]})
        bounds = fine_grained_bound_map(bob, uniform(6))
        weakest = min(bounds, key=lambda s: bounds[s].value)
        strongest = max(bounds, key=lambda s: bounds[s].value)
        config = witness_steering_config(specs, bob, weakest, strongest)
        assert run(write_config(tmp_path, config), quiet=True) == 0

    def test_assemblage_ingestion(self, tmp_path):
        sx, sy = pauli_observable("x"), pauli_observable("y")
        asm = steer(bell_phi_plus(), [sx.povm(), sy.povm()])
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "steering",
                "flavor": "universal",
                "assemblage": assemblage_to_config(asm),
                "measurements": {"bob": ["pauli_x", "pauli_y"]},
                "quantifier": "shannon",
            },
        )
        assert run(path, quiet=True) == 2

    def test_inline_state_and_povm(self, tmp_path):
        state = matrix_to_json(np.eye(4) / 4)
        identity2 = matrix_to_json(np.eye(2) * 0.5)
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "steering",
                "flavor": "universal",
                "state": {"matrix": state, "dims": [2, 2]},
                "measurements": {
                    "alice": ["pauli_z"],
                    "bob": [{"effects": [identity2, identity2], "labels": ["a", "b"]}],
                },
                "quantifier": "shannon",
            },
        )
        assert run(path, quiet=True) == 0

    def test_mub_shorthand(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "bound_only",
                "measurements": {"meas": "mub:2:2"},
            },
        )
        assert run(path, quiet=True) == 0

    def test_isotropic_scan(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "scan",
                "measurements": {"x": ["pauli_x", "pauli_y"]},
                "quantifier": "min_entropy",
                "scan": {
                    "family": "isotropic:2",
                    "criterion": "entanglement_universal",
                    "grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
                    "bisect_tol": 1e-3,
                },
            },
        )
        assert run(path, quiet=True) == 0


class TestErrors:
    def test_missing_file(self):
        assert main(["/nonexistent/config.json"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1

    def test_unsound_quantifier_is_an_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "entanglement",
                "state": "bell_phi_plus",
                "measurements": {
                    "x": ["pauli_x", "pauli_y"],
                    "y": ["pauli_x", "pauli_y"],
                },
                "quantifier": "renyi:2",
            },
        )
        assert main([path]) == 1

    def test_unknown_kind(self, tmp_path):
        path = write_config(tmp_path, {"scenario_kind": "nope"})
        assert main([path]) == 1

    def test_dimension_mismatch_is_an_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "entanglement",
                "state": "isotropic:3:0.9",
                "measurements": {
                    "x": ["pauli_x", "pauli_y"],
                    "y": ["pauli_x", "pauli_y"],
                },
                "quantifier": "shannon",
            },
        )
        assert main([path]) == 1

    def test_unknown_outcome_label_steering(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "steering",
                "flavor": "fine_grained",
                "state": "bell_phi_plus",
                "measurements": {
                    "alice": ["pauli_x", "pauli_z"],
                    "bob": ["pauli_x", "pauli_z"],
                },
                "outcomes": ["+", "2"],
            },
        )
        assert main([path]) == 1

    def test_unknown_outcome_label_scan(self, tmp_path):
        path = write_config(tmp_path, fine_grained_scan_config(["+", "2"]))
        assert main([path]) == 1

    def test_non_numeric_priors(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario_kind": "steering",
                "flavor": "fine_grained",
                "state": "bell_phi_plus",
                "measurements": {
                    "alice": ["pauli_x", "pauli_z"],
                    "bob": ["pauli_x", "pauli_z"],
                },
                "outcomes": ["+", "0"],
                "priors": ["half", "half"],
            },
        )
        assert main([path]) == 1

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigParse):
            load_config(str(path))

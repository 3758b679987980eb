import dataclasses
import io
import json
import random
from pathlib import Path

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
    mub_bases,
    observable_from_matrix,
    pauli_observable,
    steer,
    uniform,
)
from uwit import cli, quantum
from uwit.assemblage import matrix_to_json
from uwit.quantum import projector
from uwit.cli import PRESETS, load_config, main, run
from uwit.criteria import DetectionReport
from uwit.errors import ConfigParse
from uwit.oracle import MAX_QUTRIT_GRID


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


def werner_scan_config(criterion, **fields):
    return {
        "scenario_kind": "scan",
        **fields,
        "scan": {
            "family": "werner",
            "criterion": criterion,
            "grid": {"start": 0.0, "stop": 1.0, "step": 0.05},
            "bisect_tol": 1e-3,
        },
    }


XY = ["pauli_x", "pauli_y"]
XZ = ["pauli_x", "pauli_z"]

# Werner scans with the threshold each bisects to (README table and closed forms).
SCANS = {
    "steering_universal": (
        werner_scan_config(
            "steering_universal", measurements={"alice": XY, "bob": XY}, quantifier="shannon"
        ),
        0.8287,
    ),
    "entanglement_fine_grained": (
        werner_scan_config("entanglement_fine_grained", measurements={"x": XZ, "y": XZ}),
        0.5,
    ),
    # without outcomes: every Bob string, as in the paper's Eq. 12
    "steering_fine_grained": (
        werner_scan_config("steering_fine_grained", measurements={"alice": XZ, "bob": XZ}),
        1 / np.sqrt(2),
    ),
}

CONFIGS = {
    "bound_only": {
        "scenario_kind": "bound_only",
        "measurements": {"meas": XY},
        "oracle": {"samples": 100, "seed": 3, "grid": 20000},
    },
    "fine_grained_steering": {
        "scenario_kind": "steering",
        "flavor": "fine_grained",
        "state": "bell_phi_plus",
        "measurements": {"alice": XZ, "bob": XZ},
        "outcomes": ["+", "0"],
    },
    "fine_grained_entanglement": {
        "scenario_kind": "entanglement",
        "flavor": "fine_grained",
        "state": "bell_phi_plus",
        "measurements": {"x": XZ, "y": XZ},
        "outcomes": "matched",
    },
    "mub_shorthand": {"scenario_kind": "bound_only", "measurements": {"meas": "mub:2:2"}},
    "isotropic_scan": {
        "scenario_kind": "scan",
        "measurements": {"x": XY},
        "quantifier": "min_entropy",
        "scan": {
            "family": "isotropic:2",
            "criterion": "entanglement_universal",
            "grid": {"start": 0.0, "stop": 1.0, "step": 0.1},
            "bisect_tol": 1e-3,
        },
    },
    "fine_grained_scan": fine_grained_scan_config(["+", "0"]),
    **{f"{name}_scan": config for name, (config, _) in SCANS.items()},
}


def assemblage_config():
    asm = steer(bell_phi_plus(), [pauli_observable("x").povm(), pauli_observable("y").povm()])
    return {
        "scenario_kind": "steering",
        "flavor": "universal",
        "assemblage": assemblage_to_config(asm),
        "measurements": {"bob": XY},
        "quantifier": "shannon",
    }


def inline_state_config():
    identity2 = matrix_to_json(np.eye(2) * 0.5)
    return {
        "scenario_kind": "steering",
        "flavor": "universal",
        "state": {"matrix": matrix_to_json(np.eye(4) / 4), "dims": [2, 2]},
        "measurements": {
            "alice": ["pauli_z"],
            "bob": [{"effects": [identity2, identity2], "labels": ["a", "b"]}],
        },
        "quantifier": "shannon",
    }


def witness_qubit_config():
    # sigma_z and the xz-plane axis at 120 degrees: the strings have unequal bounds
    angle = 2 * np.pi / 3
    matrices = [
        np.array([[1, 0], [0, -1]], dtype=complex),
        np.array([[np.cos(angle), np.sin(angle)], [np.sin(angle), -np.cos(angle)]],
                 dtype=complex),
    ]
    bob = [observable_from_matrix(m).povm() for m in matrices]
    specs = [{"observable": matrix_to_json(m)} for m in matrices]
    return witness_steering_config(specs, bob, ("1", "1"), ("1", "-1"))


def witness_qutrit_config():
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
    return witness_steering_config(specs, bob, weakest, strongest)


def qutrit_product_entanglement_config():
    # projector 2 of each basis has eigenvalue 0 under the mub spectrum (2, 1, 0)
    first, second = (o.effects[2] for o in mub_bases(3, 2))
    return {
        "scenario_kind": "entanglement",
        "flavor": "universal",
        "state": {"matrix": matrix_to_json(np.kron(first, second)), "dims": [3, 3]},
        "measurements": {"x": "mub:3:2"},
        "quantifier": "shannon",
    }


COMPUTED = {
    "assemblage": assemblage_config,
    "inline_state": inline_state_config,
    "witness_qubit": witness_qubit_config,
    "witness_qutrit": witness_qutrit_config,
    "qutrit_product_entanglement": qutrit_product_entanglement_config,
}


def base_config(name):
    """A fresh copy of a preset (``preset:<name>``), a static or a computed config."""
    if name.startswith("preset:"):
        return load_config(name)
    if name in CONFIGS:
        return json.loads(json.dumps(CONFIGS[name]))
    return COMPUTED[name]()


ALL_CONFIGS = [f"preset:{p}" for p in sorted(PRESETS)] + list(CONFIGS) + list(COMPUTED)
DROP = object()


def mutated(config, path, value):
    """A copy of ``config`` with the value at ``path`` replaced, or deleted for DROP."""
    config = json.loads(json.dumps(config))
    *parents, last = path
    target = config
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return config


class TestPresets:
    def test_example_1_detects(self, capsys):
        assert run("preset:paper-example-1", quiet=True) == 2

    def test_example_2_detects(self):
        assert run("preset:paper-example-2", quiet=True) == 2

    def test_eq12_detects(self):
        assert run("preset:paper-eq12", quiet=True) == 2

    def test_eq12_reports_every_bob_string_on_the_state_path(self, tmp_path, monkeypatch):
        validations = []
        post_init = DensityState.__post_init__
        monkeypatch.setattr(DensityState, "__post_init__",
                            lambda state: (validations.append(state), post_init(state))[1])
        bell_phi_plus.cache_clear()
        out = tmp_path / "eq12.json"
        assert run("preset:paper-eq12", json_path=str(out), quiet=True) == 2
        # the preset's state is validated once, with no tensor round trip,
        # and a repeat run shares it
        assert len(validations) == 1
        assert run("preset:paper-eq12", quiet=True) == 2
        assert len(validations) == 1
        reports = json.loads(out.read_text())["reports"]
        assert {r["criterion"] for r in reports} == {"steering_fine_grained"}
        # Pauli x and z on both sides, Bob's strings in product order
        labels = [("+", "0"), ("+", "1"), ("-", "0"), ("-", "1")]
        assert [r["column"] for r in reports] == [f"a={b}, a'={a}" for b in labels for a in labels]
        detected = [b == a for b in labels for a in labels]
        assert [r["verdict"] == "Detected" for r in reports] == detected

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
        # every field of the report, in declaration order
        assert list(report) == [f.name for f in dataclasses.fields(DetectionReport)]

    def test_quiet_suppresses_text(self, capsys):
        run("preset:paper-example-1", quiet=True)
        assert capsys.readouterr().out == ""

    def test_report_is_the_json_dump_text(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("preset:paper-eq12", json_path=str(out), quiet=True) == 2
        text = out.read_text(encoding="utf-8")
        dumped = io.StringIO()
        json.dump(json.loads(text), dumped, indent=2)
        assert text == dumped.getvalue()

    def test_repeat_in_process_runs_give_the_same_report(self, tmp_path):
        # the first run builds the shared Pauli, MUB and Bell instances, the second reuses them
        bound = write_config(tmp_path, {"scenario_kind": "bound_only",
                                        "measurements": {"meas": "mub:3:4"}}, "mub-3-4.json")
        for scenario in [f"preset:{p}" for p in sorted(PRESETS)] + [bound]:
            for cached in (quantum.pauli_observable, quantum._interned_mub_bases,
                           quantum.bell_phi_plus):
                cached.cache_clear()
            outcomes = []
            for repeat in range(2):
                out = tmp_path / f"report-{repeat}.json"
                outcomes.append((run(scenario, json_path=str(out), quiet=True), out.read_bytes()))
            assert outcomes[0] == outcomes[1]


class TestScenarios:
    def test_bound_only(self, tmp_path, capsys):
        path = write_config(tmp_path, CONFIGS["bound_only"])
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
        for name, (config, threshold) in SCANS.items():
            csv_path = tmp_path / f"{name}.csv"
            json_path = tmp_path / f"{name}.json"
            path = write_config(tmp_path, config)
            assert run(path, csv_path=str(csv_path), json_path=str(json_path), restarts=16) == 0
            lines = csv_path.read_text().strip().splitlines()
            assert lines[0] == "parameter,lhs,bound,verdict"
            verdicts = [line.rsplit(",", 1)[1] for line in lines[1:]]
            flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
            assert flips == 1, name
            out = capsys.readouterr().out
            assert "threshold" in out
            scan = json.loads(json_path.read_text())["scan"]
            assert scan["threshold_estimate"] == pytest.approx(threshold, abs=1e-3), name

    def test_fine_grained_steering_scenario(self, tmp_path):
        assert run(write_config(tmp_path, CONFIGS["fine_grained_steering"]), quiet=True) == 2

    def test_fine_grained_entanglement_scenario(self, tmp_path):
        path = write_config(tmp_path, CONFIGS["fine_grained_entanglement"])
        assert run(path, quiet=True, restarts=16) == 2

    def test_witness_lhs_qubit_not_detected(self, tmp_path):
        assert run(write_config(tmp_path, witness_qubit_config()), quiet=True) == 0

    def test_witness_lhs_six_qutrit_settings_not_detected(self, tmp_path):
        assert run(write_config(tmp_path, witness_qutrit_config()), quiet=True) == 0

    def test_qutrit_product_state_not_detected(self, tmp_path):
        for q in ("shannon", "min_entropy"):
            config = mutated(qutrit_product_entanglement_config(), ("quantifier",), q)
            assert run(write_config(tmp_path, config), quiet=True) == 0

    def test_assemblage_ingestion(self, tmp_path):
        assert run(write_config(tmp_path, assemblage_config()), quiet=True) == 2

    def test_inline_state_and_povm(self, tmp_path):
        assert run(write_config(tmp_path, inline_state_config()), quiet=True) == 0

    def test_mub_shorthand(self, tmp_path):
        assert run(write_config(tmp_path, CONFIGS["mub_shorthand"]), quiet=True) == 0

    def test_isotropic_scan(self, tmp_path):
        assert run(write_config(tmp_path, CONFIGS["isotropic_scan"]), quiet=True) == 0


# isotropic qutrit steering with the two-basis closed form at d = 3, and the
# threshold each quantifier bisects to
ISOTROPIC_STEERING = {
    "scenario_kind": "scan",
    "measurements": {"alice": "mub:3:2", "bob": "mub:3:2"},
    "scan": {
        "family": "isotropic:3",
        "criterion": "steering_universal",
        "grid": {"start": 0.0, "stop": 1.0, "step": 0.05},
        "bisect_tol": 1e-3,
    },
}
BOUNDARY_SCANS = {
    **SCANS,
    "isotropic_scan": (CONFIGS["isotropic_scan"], None),
    **{f"isotropic_steering_{q}": ({**ISOTROPIC_STEERING, "quantifier": q}, threshold)
       for q, threshold in (("shannon", 0.834), ("min_entropy", 0.718), ("tsallis:2", 0.796))},
}


def exact_boundaries(family, criterion):
    """Separability and, for steering, projective steering boundaries of a scan family.

    Werner states are scanned in w, isotropic states in their singlet
    fraction f.  The steering boundary is the visibility (H_d - 1)/(d - 1)
    of Wiseman, Jones and Doherty, which is f = eta + (1 - eta)/d^2.
    """
    if family == "werner":
        separable, steerable = 1.0 / 3.0, 0.5
    else:
        d = int(family.split(":")[1])
        eta = (sum(1.0 / n for n in range(1, d + 1)) - 1.0) / (d - 1)
        separable, steerable = 1.0 / d, eta + (1.0 - eta) / d**2
    return [separable, steerable] if criterion.startswith("steering") else [separable]


@pytest.mark.parametrize("name", BOUNDARY_SCANS)
def test_scan_threshold_not_below_exact_boundary(tmp_path, name):
    config, threshold = BOUNDARY_SCANS[name]
    json_path = tmp_path / "scan.json"
    assert run(write_config(tmp_path, config), json_path=str(json_path), restarts=16,
               quiet=True) == 0
    scan = json.loads(json_path.read_text())["scan"]
    estimate, spec = scan["threshold_estimate"], config["scan"]
    assert estimate is not None
    for boundary in exact_boundaries(spec["family"], spec["criterion"]):
        assert estimate >= boundary - spec["bisect_tol"], (name, boundary)
    if threshold is not None:
        assert estimate == pytest.approx(threshold, abs=1e-3)


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

    def test_repeated_povm_labels_are_an_error(self, tmp_path, capsys):
        # both effects of Bob's first POVM are labelled "a".  Read as one
        # label, the bound map held 2 of the 4 outcome strings (bound 0.8113)
        # and this LHS assemblage, at the witness of a dropped string
        # (0.8613), was certified as steering.
        first = np.diag([0.9, 0.0])
        plus = (np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]])) / 2
        witness = np.linalg.eigh((np.eye(2) - first + plus) / 2)[1][:, -1]
        asm = lhs_assemblage([(1.0, DensityState(projector(witness)))], [[[1.0, 0.0]] * 2])
        bob = [
            {"effects": [matrix_to_json(e), matrix_to_json(np.eye(2) - e)], "labels": labels}
            for e, labels in ((first, ["a", "a"]), (plus, ["a", "b"]))
        ]
        config = {
            "scenario_kind": "steering",
            "flavor": "fine_grained",
            "assemblage": assemblage_to_config(asm),
            "measurements": {"bob": bob},
            "outcomes": ["a", "a"],
        }
        assert main([write_config(tmp_path, config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x, y", [(XZ + ["pauli_y"], XZ), (XZ, XZ + ["pauli_y"])])
    def test_fine_grained_entanglement_default_priors(self, tmp_path, x, y):
        # uniform over the min(len(x), len(y)) matched pairs, in either orientation
        config = mutated(CONFIGS["fine_grained_entanglement"], ("measurements",), {"x": x, "y": y})
        json_path = tmp_path / "report.json"
        path = write_config(tmp_path, config)
        assert run(path, json_path=str(json_path), quiet=True, restarts=16) == 2
        report = json.loads(json_path.read_text())["reports"][0]
        assert report["lhs_value"] == pytest.approx(1.0, abs=1e-12)

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

    def test_qutrit_oracle_grid_above_its_limit(self, tmp_path, capsys):
        config = {
            "scenario_kind": "bound_only",
            "measurements": {"meas": "mub:3:2"},
            "oracle": {"samples": 1, "grid": MAX_QUTRIT_GRID + 1},
        }
        assert main([write_config(tmp_path, config), "--restarts", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigParse):
            load_config(str(path))


EX1 = "preset:paper-example-1"
SCAN = "steering_universal_scan"
ELEMENT_SETTING = ("assemblage", "elements", 0, "setting")

# Malformed configs as (base config, path, replacement or DROP); each must
# exit 1 with a one-line message.
MALFORMED = {
    "werner-without-argument": (EX1, ("state",), "werner"),
    "isotropic-without-argument": (EX1, ("state",), "isotropic"),
    "mub-with-one-argument": ("mub_shorthand", ("measurements", "meas"), "mub:4"),
    "non-numeric-werner": (EX1, ("state",), "werner:abc"),
    "non-numeric-mub": ("mub_shorthand", ("measurements", "meas"), "mub:x:2"),
    "non-numeric-maximally-mixed": (EX1, ("state",), "maximally_mixed:x"),
    "non-numeric-scan-family": ("isotropic_scan", ("scan", "family"), "isotropic:x"),
    "dims-of-length-3": ("inline_state", ("state", "dims"), [2, 2, 1]),
    "ragged-matrix": ("inline_state", ("state", "matrix", 1), []),
    "measurements-as-list": (EX1, ("measurements",), XY),
    "non-numeric-seed": (EX1, ("seed",), "abc"),
    "negative-seed": ("fine_grained_entanglement", ("seed",), -1),
    "numeric-quantifier": (EX1, ("quantifier",), 3),
    "numeric-oracle": ("bound_only", ("oracle",), 5),
    "non-numeric-samples": ("bound_only", ("oracle", "samples"), "many"),
    "too-many-samples": ("bound_only", ("oracle", "samples"), 10**6 + 1),
    "too-dense-oracle-grid": ("bound_only", ("oracle", "grid"), 10**6 + 1),
    "negative-oracle-seed": ("bound_only", ("oracle", "seed"), -1),
    "numeric-steering-outcomes": ("fine_grained_steering", ("outcomes",), 5),
    "retired-tensor-flavor": ("preset:paper-eq12", ("flavor",), "fine_grained_tensor"),
    "zero-step": (SCAN, ("scan", "grid", "step"), 0),
    "negative-step": (SCAN, ("scan", "grid", "step"), -0.1),
    "too-many-scan-points": (SCAN, ("scan", "grid", "step"), 1e-15),
    "infinite-step": (SCAN, ("scan", "grid", "step"), 1e999),
    "non-numeric-start": (SCAN, ("scan", "grid", "start"), "zero"),
    "non-numeric-bisect-tol": (SCAN, ("scan", "bisect_tol"), "fine"),
    "numeric-family": (SCAN, ("scan", "family"), 3),
    "zero-bisect-tol": (SCAN, ("scan", "bisect_tol"), 0),
    "negative-bisect-tol": (SCAN, ("scan", "bisect_tol"), -1),
    "empty-grid": (SCAN, ("scan", "grid", "start"), 2.0),
    "element-without-setting": ("assemblage", ELEMENT_SETTING, DROP),
    "element-with-unknown-setting": ("assemblage", ELEMENT_SETTING, 7),
    "element-of-another-dimension": (
        "assemblage", ("assemblage", "elements", 0, "operator"), matrix_to_json(np.eye(3) / 2)
    ),
    "empty-settings": (
        "assemblage", ("assemblage",), {"bob_dim": 2, "settings": [], "elements": []}
    ),
    "zero-dimensional-state": (EX1, ("state",), "maximally_mixed:0"),
    "negative-dimensional-state": (EX1, ("state",), "maximally_mixed:-4"),
    "isotropic-above-maximum-dimension": (EX1, ("state",), "isotropic:1000:0.5"),
    "mub-above-maximum-dimension": ("mub_shorthand", ("measurements", "meas"), "mub:1009:2"),
    "scan-family-above-maximum-dimension": ("isotropic_scan", ("scan", "family"), "isotropic:1000"),
    "non-hermitian-assemblage-element": (
        "assemblage", ("assemblage",), {"bob_dim": 2, "settings": [0], "elements": [
            {"setting": 0, "outcome": label, "operator": matrix_to_json(np.array(m))}
            for label, m in (("0", [[0.5, 0.3], [-0.3, 0.0]]), ("1", [[0.0, -0.3], [0.3, 0.5]]))
        ]}
    ),
    # setting 0 lists outcome "0" twice; read once, its element counted twice
    "repeated-assemblage-outcome": (
        "assemblage", ("assemblage",), {"bob_dim": 2, "settings": [0, 1], "elements": [
            {"setting": setting, "outcome": label, "operator": matrix_to_json(np.eye(2) / 4)}
            for setting, label in ((0, "0"), (0, "0"), (1, "0"), (1, "1"))
        ]}
    ),
    "outcome-strings-of-unequal-length": (
        "fine_grained_entanglement", ("outcomes",), {"a": ["+"], "b": ["+", "0"]}
    ),
}


TWELVE_PAULIS = XZ * 6
# Requests past MAX_REPORTS reports per state, refused before any bound is
# built: 7^8 Alice columns, and 2^12 columns for each of 2^12 Bob strings
OVERSIZED = {
    "fine-grained-mub-7-8": lambda: mutated(base_config("fine_grained_steering"), (
        "measurements",), {"alice": "mub:7:8", "bob": "mub:7:8"}),
    "pauli-12-every-string": lambda: mutated(base_config("preset:paper-eq12"), (
        "measurements",), {"alice": TWELVE_PAULIS, "bob": TWELVE_PAULIS}),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_request_exits_1(tmp_path, capsys, monkeypatch, name):
    def no_bounds(*args):
        raise AssertionError("a bound was built for an oversized request")

    monkeypatch.setattr(cli, "fine_grained_bound_map", no_bounds)
    assert main([write_config(tmp_path, OVERSIZED[name]())]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"limit of {cli.MAX_REPORTS}" in err


@pytest.mark.parametrize("restarts", [0, -3, cli.MAX_RESTARTS + 1, 10**12])
def test_restarts_out_of_range_exit_1(capsys, monkeypatch, restarts):
    def no_criterion(*args):
        raise AssertionError("a criterion was built for an out-of-range restart count")

    monkeypatch.setattr(cli, "_criterion", no_criterion)
    assert main(["preset:paper-eq12", "--restarts", str(restarts)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"between 1 and {cli.MAX_RESTARTS}" in err


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_config_exits_1(tmp_path, capsys, name):
    base, path, value = MALFORMED[name]
    config = mutated(base_config(base), path, value)
    assert main([write_config(tmp_path, config), "--restarts", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def value_paths(node, prefix=()):
    """Paths to every value inside ``node``, not descending into matrices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        if not (isinstance(node, list) and isinstance(child, list)):
            yield from value_paths(child, prefix + (key,))


def value_at(config, path):
    for key in path:
        config = config[key]
    return config


WRONG_TYPES = (7, "x", [7], {"x": 7})


def fuzz_mutation(config, rng):
    """Drop a value, swap it for one of another type, or truncate a reference."""
    values = {path: value_at(config, path) for path in value_paths(config)}
    refs = [path for path, v in values.items() if isinstance(v, str) and ":" in v]
    kind = rng.choice(("drop", "swap", "truncate"))
    if kind == "truncate" and refs:
        path = rng.choice(refs)
        return mutated(config, path, values[path].rsplit(":", 1)[0])
    path = rng.choice(list(values))
    if kind == "drop":
        return mutated(config, path, DROP)
    wrong = [v for v in WRONG_TYPES if type(v) is not type(values[path])]
    return mutated(config, path, rng.choice(wrong))


def test_mutation_fuzzer_exit_codes(tmp_path, capsys):
    rng = random.Random(2017)
    codes = set()
    for name in ALL_CONFIGS:
        base = base_config(name)
        for _ in range(3 if name == "witness_qutrit" else 20):
            path = write_config(tmp_path, fuzz_mutation(base, rng))
            codes.add(main([path, "--restarts", "2", "--quiet"]))
    assert codes <= {0, 1, 2}


class RecordingDict(dict):
    """A config object that records the path of every key looked up in it."""

    def __init__(self, data, path, seen):
        super().__init__({k: recording(v, path + (k,), seen) for k, v in data.items()})
        self.path = path
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(self.path + (key,))
        return super().__getitem__(key)

    def __contains__(self, key):
        self.seen.add(self.path + (key,))
        return super().__contains__(key)

    def get(self, key, default=None):
        self.seen.add(self.path + (key,))
        return super().get(key, default)


def recording(value, path, seen):
    if isinstance(value, dict):
        return RecordingDict(value, path, seen)
    if isinstance(value, list):
        return [recording(v, path + ("[]",), seen) for v in value]
    return value


def schema_alternatives(schema, node):
    """``node`` with its reference resolved, and every ``oneOf`` branch inside it."""
    if "$ref" in node:
        node = schema["definitions"][node["$ref"].rsplit("/", 1)[1]]
    yield node
    for branch in node.get("oneOf", ()):
        yield from schema_alternatives(schema, branch)


def declared(schema, path):
    nodes = [schema]
    for step in path:
        children = []
        for node in nodes:
            for alt in schema_alternatives(schema, node):
                child = alt.get("items") if step == "[]" else alt.get("properties", {}).get(step)
                if child is not None:
                    children.append(child)
        nodes = children
    return bool(nodes)


def test_schema_declares_every_key_read(monkeypatch):
    schema_path = Path(__file__).resolve().parents[1] / "docs" / "scenario.schema.json"
    schema = json.loads(schema_path.read_text())
    seen = set()
    for name in ALL_CONFIGS:
        config = RecordingDict(base_config(name), (), seen)
        monkeypatch.setattr(cli, "load_config", lambda _, config=config: config)
        assert cli.run(name, quiet=True, restarts=2) in (0, 2)
    assert ("measurements", "y") in seen and ("scan", "bisect_tol") in seen
    # the preset reads its absent outcomes: every Bob string
    assert ("outcomes",) in seen
    undeclared = sorted(str(p) for p in seen if not declared(schema, p))
    assert not undeclared, undeclared
    # the schema offers exactly the criteria the CLI runs
    assert schema["properties"]["scan"]["properties"]["criterion"]["enum"] == list(cli._CRITERIA)
    flavors = {name.split("_", 1)[1] for name in cli._CRITERIA}
    assert set(schema["properties"]["flavor"]["enum"]) == flavors

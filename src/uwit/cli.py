"""Command-line front end: run scenarios from JSON configs or built-in presets.

Exit codes: 0 = ran, nothing detected; 2 = ran, detection (certified bounds
only); 1 = error.  Text goes to stdout with six decimal places; --json and
--csv write machine-readable reports with full precision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .assemblage import (
    Assemblage,
    assemblage_from_config,
    matrix_from_json,
    steer,
)
from .bounds import (
    BoundVector,
    fine_grained_bound_map,
    fine_grained_bound_product,
    matched_outcome_events,
    omega_numeric,
    omega_two_dichotomic,
    setting_pairs,
)
from .criteria import (
    DetectionReport,
    entanglement_fine_grained,
    entanglement_universal,
    steering_fine_grained,
    steering_fine_grained_tensor,
    steering_universal,
)
from .errors import ConfigParse, UwitError
from .oracle import brute_force_topk, scan_to_csv, threshold_scan, verify_majorization_bound
from .probvec import ProbVec, uniform
from .quantifier import get_quantifier
from .quantum import (
    DensityState,
    Observable,
    Povm,
    bell_phi_plus,
    isotropic,
    maximally_mixed,
    mub_bases,
    observable_from_matrix,
    pauli_observable,
    werner,
)

PRESETS: dict[str, dict] = {
    "paper-example-1": {
        "scenario_kind": "entanglement",
        "flavor": "universal",
        "state": "bell_phi_plus",
        "measurements": {"x": ["pauli_x", "pauli_y"], "y": ["pauli_x", "pauli_y"]},
        "quantifier": "shannon",
    },
    "paper-example-2": {
        "scenario_kind": "steering",
        "flavor": "universal",
        "state": "bell_phi_plus",
        "measurements": {"alice": ["pauli_x", "pauli_y"], "bob": ["pauli_x", "pauli_y"]},
        "quantifier": "shannon",
    },
    "paper-eq12": {
        "scenario_kind": "steering",
        "flavor": "fine_grained_tensor",
        "state": "bell_phi_plus",
        "alice_directions": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    },
}


def _parse_state(spec) -> DensityState:
    if isinstance(spec, dict):
        try:
            matrix = matrix_from_json(spec["matrix"])
        except KeyError:
            raise ConfigParse("inline state needs a 'matrix' field of [re, im] entries") from None
        dims = tuple(spec["dims"]) if "dims" in spec else None
        return DensityState(matrix, dims=dims)
    if not isinstance(spec, str):
        raise ConfigParse(f"cannot parse state specification {spec!r}")
    name, *args = spec.split(":")
    if name == "bell_phi_plus":
        return bell_phi_plus()
    if name == "maximally_mixed":
        d = int(args[0]) if args else 4
        dims = (int(np.sqrt(d)), int(np.sqrt(d))) if int(np.sqrt(d)) ** 2 == d else None
        return maximally_mixed(d, dims=dims)
    if name == "werner":
        return werner(float(args[0]))
    if name == "isotropic":
        return isotropic(int(args[0]), float(args[1]))
    raise ConfigParse(f"unknown state family {spec!r}")


def _parse_measurements(spec) -> list[Observable | Povm]:
    if isinstance(spec, str):
        name, *args = spec.split(":")
        if name == "mub":
            return list(mub_bases(int(args[0]), int(args[1])))
        spec = [spec]
    if not isinstance(spec, list):
        raise ConfigParse(f"cannot parse measurement list {spec!r}")
    out: list[Observable | Povm] = []
    for item in spec:
        if isinstance(item, str):
            if item in ("pauli_x", "pauli_y", "pauli_z"):
                out.append(pauli_observable(item[-1]))
            else:
                raise ConfigParse(f"unknown measurement name {item!r}")
        elif isinstance(item, dict) and "effects" in item:
            effects = tuple(matrix_from_json(e) for e in item["effects"])
            labels = tuple(str(x) for x in item.get("labels", range(len(effects))))
            out.append(Povm(effects, labels))
        elif isinstance(item, dict) and "observable" in item:
            out.append(observable_from_matrix(matrix_from_json(item["observable"])))
        else:
            raise ConfigParse(f"cannot parse measurement {item!r}")
    return out


def _as_observables(meas, context: str) -> list[Observable]:
    obs = []
    for m in meas:
        if not isinstance(m, Observable):
            raise ConfigParse(f"{context} needs observables, not raw POVMs")
        obs.append(m)
    return obs


def _as_povms(meas) -> list[Povm]:
    return [m.povm() if isinstance(m, Observable) else m for m in meas]


def _observable_bound(observables: list[Observable], restarts: int, seed: int) -> BoundVector:
    two_qubit = (
        len(observables) == 2
        and all(o.dim == 2 and o.nondegenerate for o in observables)
    )
    if two_qubit:
        return omega_two_dichotomic(observables[0], observables[1])
    return omega_numeric(_as_povms(observables), restarts=restarts, seed=seed)


def _config_field(config: dict, key: str, context: str):
    try:
        return config[key]
    except KeyError:
        raise ConfigParse(f"{context} scenario needs a {key!r} field") from None


def _run_entanglement(config: dict, restarts: int, seed: int) -> list[DetectionReport]:
    flavor = config.get("flavor", "universal")
    state = _parse_state(_config_field(config, "state", "entanglement"))
    meas = _config_field(config, "measurements", "entanglement")
    x = _parse_measurements(_config_field(meas, "x", "entanglement measurements"))
    y = _parse_measurements(_config_field(meas, "y", "entanglement measurements"))
    if flavor == "universal":
        x_obs = _as_observables(x, "universal entanglement")
        y_obs = _as_observables(y, "universal entanglement")
        q = get_quantifier(config.get("quantifier", "shannon"))
        bound_x = _observable_bound(x_obs, restarts, seed)
        bound_y = _observable_bound(y_obs, restarts, seed)
        return [entanglement_universal(state, x_obs, y_obs, q, bound_x, bound_y)]
    if flavor == "fine_grained":
        meas_a = _as_povms(x)
        meas_b = _as_povms(y)
        pairs = setting_pairs(len(meas_a), len(meas_b))
        outcomes_cfg = config.get("outcomes", "matched")
        if outcomes_cfg == "matched":
            outcomes = [matched_outcome_events(meas_a[i], meas_b[j]) for i, j in pairs]
        else:
            try:
                outcomes = (tuple(outcomes_cfg["a"]), tuple(outcomes_cfg["b"]))
            except (KeyError, TypeError):
                raise ConfigParse(
                    "fine-grained outcomes must be 'matched' or {'a': [...], 'b': [...]}"
                ) from None
        if "priors" in config:
            priors = ProbVec(config["priors"])
        else:
            diag = [1.0 / len(meas_a) if i == j else 0.0 for i, j in pairs]
            priors = ProbVec(diag)
        bound = fine_grained_bound_product(
            meas_a, meas_b, outcomes, priors, restarts=restarts, seed=seed
        )
        return [entanglement_fine_grained(state, meas_a, meas_b, outcomes, priors, bound)]
    raise ConfigParse(f"unknown entanglement flavor {flavor!r}")


def _steering_assemblage(config: dict) -> tuple[Assemblage, DensityState | None]:
    if "assemblage" in config:
        return assemblage_from_config(config["assemblage"]), None
    state = _parse_state(_config_field(config, "state", "steering"))
    meas = _config_field(config, "measurements", "steering")
    alice = _as_povms(_parse_measurements(_config_field(meas, "alice", "steering measurements")))
    return steer(state, alice), state


def _run_steering(config: dict, restarts: int, seed: int) -> list[DetectionReport]:
    flavor = config.get("flavor", "universal")
    if flavor == "fine_grained_tensor":
        from .quantum import correlation_tensor

        state = _parse_state(_config_field(config, "state", "steering"))
        directions = _config_field(config, "alice_directions", "tensor steering")
        bob_directions = config.get("bob_directions")
        return steering_fine_grained_tensor(
            correlation_tensor(state), directions, bob_directions
        )
    asm, _ = _steering_assemblage(config)
    meas = _config_field(config, "measurements", "steering")
    bob = _parse_measurements(_config_field(meas, "bob", "steering measurements"))
    if flavor == "universal":
        q = get_quantifier(config.get("quantifier", "shannon"))
        bob_obs_bound = (
            _observable_bound(_as_observables(bob, "universal steering"), restarts, seed)
            if all(isinstance(m, Observable) for m in bob)
            else omega_numeric(_as_povms(bob), restarts=restarts, seed=seed)
        )
        return [steering_universal(asm, _as_povms(bob), None, q, bob_obs_bound)]
    if flavor == "fine_grained":
        bob_povms = _as_povms(bob)
        outcomes = tuple(str(o) for o in _config_field(config, "outcomes", "fine-grained steering"))
        priors = ProbVec(config["priors"]) if "priors" in config else uniform(len(bob_povms))
        bounds = fine_grained_bound_map(bob_povms, priors)
        return steering_fine_grained(asm, bob_povms, outcomes, priors, bounds)
    raise ConfigParse(f"unknown steering flavor {flavor!r}")


def _run_bound_only(config: dict, restarts: int, seed: int):
    meas_cfg = _config_field(config, "measurements", "bound_only")
    raw = meas_cfg.get("meas", meas_cfg) if isinstance(meas_cfg, dict) else meas_cfg
    meas = _parse_measurements(raw)
    if all(isinstance(m, Observable) for m in meas):
        bound = _observable_bound(list(meas), restarts, seed)
    else:
        bound = omega_numeric(_as_povms(meas), restarts=restarts, seed=seed)
    census = None
    grid_witness = None
    if "oracle" in config:
        opts = config["oracle"]
        census = verify_majorization_bound(
            bound,
            _as_povms(meas),
            samples=int(opts.get("samples", 1000)),
            seed=int(opts.get("seed", seed)),
        )
        if "grid" in opts:
            grid_witness = brute_force_topk(_as_povms(meas), 1, int(opts["grid"]))
    return bound, census, grid_witness


def _family_builder(family: str):
    name, *args = family.split(":")
    if name == "werner":
        return lambda w: werner(w)
    if name == "isotropic":
        d = int(args[0]) if args else 2
        return lambda f: isotropic(d, f)
    raise ConfigParse(f"unknown scan family {family!r}")


def _run_scan(config: dict, restarts: int, seed: int):
    scan_cfg = _config_field(config, "scan", "scan")
    family = _config_field(scan_cfg, "family", "scan")
    criterion_name = _config_field(scan_cfg, "criterion", "scan")
    grid_cfg = _config_field(scan_cfg, "grid", "scan")
    try:
        grid = np.arange(
            float(grid_cfg["start"]),
            float(grid_cfg["stop"]) + 1e-12,
            float(grid_cfg["step"]),
        )
    except (KeyError, TypeError):
        raise ConfigParse("scan grid needs start, stop and step") from None
    bisect_tol = float(scan_cfg.get("bisect_tol", 1e-4))
    build_state = _family_builder(family)
    meas = _config_field(config, "measurements", "scan")

    if criterion_name == "entanglement_universal":
        x_obs = _as_observables(_parse_measurements(_config_field(meas, "x", "scan")), "scan")
        q = get_quantifier(config.get("quantifier", "shannon"))
        bound = _observable_bound(x_obs, restarts, seed)

        def criterion(param: float) -> DetectionReport:
            return entanglement_universal(build_state(param), x_obs, x_obs, q, bound, bound)

    elif criterion_name == "steering_universal":
        alice = _as_povms(_parse_measurements(_config_field(meas, "alice", "scan")))
        bob = _parse_measurements(_config_field(meas, "bob", "scan"))
        bob_obs = _as_observables(bob, "scan") if all(isinstance(m, Observable) for m in bob) else None
        q = get_quantifier(config.get("quantifier", "shannon"))
        bound = (
            _observable_bound(bob_obs, restarts, seed)
            if bob_obs is not None
            else omega_numeric(_as_povms(bob), restarts=restarts, seed=seed)
        )
        bob_povms = _as_povms(bob)

        def criterion(param: float) -> DetectionReport:
            return steering_universal(steer(build_state(param), alice), bob_povms, None, q, bound)

    elif criterion_name == "steering_fine_grained":
        alice = _as_povms(_parse_measurements(_config_field(meas, "alice", "scan")))
        bob_povms = _as_povms(_parse_measurements(_config_field(meas, "bob", "scan")))
        outcomes = tuple(str(o) for o in _config_field(config, "outcomes", "scan"))
        priors = ProbVec(config["priors"]) if "priors" in config else uniform(len(bob_povms))
        bounds = fine_grained_bound_map(bob_povms, priors)

        def criterion(param: float) -> DetectionReport:
            reports = steering_fine_grained(
                steer(build_state(param), alice), bob_povms, outcomes, priors, bounds
            )
            return max(reports, key=lambda r: r.margin)

    else:
        raise ConfigParse(f"unknown scan criterion {criterion_name!r}")

    return threshold_scan(family, criterion, grid.tolist(), bisect_tol)


def _format_float(x: float) -> str:
    return f"{x:.6f}"


def _print_reports(reports: list[DetectionReport]) -> None:
    for r in reports:
        column = f" column={r.column}" if r.column else ""
        quantifier = f" quantifier={r.quantifier_name}" if r.quantifier_name else ""
        certified = "certified" if r.certified else "uncertified"
        verdict = r.verdict if (not r.detected or r.certified) else "Uncertified"
        print(
            f"criterion {r.criterion}:{column}{quantifier} "
            f"lhs={_format_float(r.lhs_value)} bound={_format_float(r.bound_value)} "
            f"margin={_format_float(r.margin)} verdict={verdict} [{certified}]"
        )


def _config_fingerprint(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwit",
        description="Detect entanglement and steering from measurement statistics "
        "via majorization and fine-grained uncertainty bounds.",
    )
    parser.add_argument(
        "scenario",
        help="path to a JSON scenario config, or preset:<name> "
        f"(presets: {', '.join(sorted(PRESETS))})",
    )
    parser.add_argument("--json", metavar="PATH", help="write a JSON report to PATH")
    parser.add_argument("--csv", metavar="PATH", help="write scan results as CSV to PATH")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--restarts", type=int, default=64,
                        help="restarts for numeric bound optimization (default 64)")
    parser.add_argument("--state", default=None,
                        help="override the scenario state (family reference)")
    parser.add_argument("--quiet", action="store_true", help="suppress the text report")
    return parser


def load_config(path_or_preset: str) -> dict:
    if path_or_preset.startswith("preset:"):
        name = path_or_preset.split(":", 1)[1]
        if name not in PRESETS:
            raise ConfigParse(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        return json.loads(json.dumps(PRESETS[name]))
    try:
        with open(path_or_preset, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except FileNotFoundError:
        raise ConfigParse(f"config file {path_or_preset!r} not found") from None
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"config file {path_or_preset!r} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigParse("config root must be a JSON object")
    return config


def run(path_or_preset: str, json_path: str | None = None, csv_path: str | None = None,
        seed: int | None = None, restarts: int = 64, state_override: str | None = None,
        quiet: bool = False) -> int:
    """Execute a scenario and return the process exit code."""
    config = load_config(path_or_preset)
    if state_override is not None:
        config["state"] = state_override
    seed = seed if seed is not None else int(config.get("seed", 0))
    kind = config.get("scenario_kind")
    reports: list[DetectionReport] = []
    payload: dict = {
        "schema_version": 1,
        "tool": {"name": "uwit", "version": __version__},
        "config_fingerprint": _config_fingerprint(config),
        "seed": seed,
        "restarts": restarts,
        "scenario_kind": kind,
    }
    scan = None

    if kind == "entanglement":
        reports = _run_entanglement(config, restarts, seed)
    elif kind == "steering":
        reports = _run_steering(config, restarts, seed)
    elif kind == "bound_only":
        bound, census, grid_witness = _run_bound_only(config, restarts, seed)
        payload["bound_vector"] = {
            "omega": list(bound.omega.values),
            "method": bound.method,
            "measurement_fingerprint": bound.measurement_fingerprint,
            "certified_slack": bound.certified_slack,
        }
        if census is not None:
            payload["census"] = asdict(census)
        if grid_witness is not None:
            payload["grid_witness_top1"] = grid_witness
        if not quiet:
            entries = ", ".join(_format_float(x) for x in bound.omega.values)
            print(f"omega = ({entries})  [method {bound.method}]")
            if census is not None:
                print(
                    f"census: samples={census.samples} violations={census.violations} "
                    f"worst_margin={census.worst_margin:.3e} seed={census.seed}"
                )
            if grid_witness is not None:
                print(f"grid witness for the first entry: {_format_float(grid_witness)}")
    elif kind == "scan":
        scan = _run_scan(config, restarts, seed)
        payload["scan"] = {
            "family": scan.family,
            "parameter_grid": list(scan.parameter_grid),
            "lhs_values": list(scan.lhs_values),
            "bound": scan.bound,
            "verdicts": list(scan.verdicts),
            "threshold_estimate": scan.threshold_estimate,
            "bisection_tolerance": scan.bisection_tolerance,
        }
        if csv_path:
            scan_to_csv(scan, csv_path)
        if not quiet:
            print(f"scan family={scan.family} points={len(scan.parameter_grid)} "
                  f"bound={_format_float(scan.bound)}")
            if scan.threshold_estimate is not None:
                print(f"threshold = {scan.threshold_estimate:.6f} "
                      f"(bisected to {scan.bisection_tolerance:g})")
            else:
                print("threshold: no verdict flip on this grid")
    else:
        raise ConfigParse(
            f"unknown scenario_kind {kind!r}; expected entanglement, steering, "
            "bound_only or scan"
        )

    if reports:
        payload["reports"] = [asdict(r) for r in reports]
        if not quiet:
            _print_reports(reports)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)

    detected_certified = any(r.detected and r.certified for r in reports)
    if reports and not quiet:
        overall = "Detected" if detected_certified else "NotDetected"
        print(f"overall: {overall}")
    return 2 if detected_certified else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(
            args.scenario,
            json_path=args.json,
            csv_path=args.csv,
            seed=args.seed,
            restarts=args.restarts,
            state_override=args.state,
            quiet=args.quiet,
        )
    except UwitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

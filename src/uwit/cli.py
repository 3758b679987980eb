"""Command-line front end: run scenarios from JSON configs or built-in presets.

Exit codes: 0 = ran, nothing detected; 2 = ran, detection (certified bounds
only); 1 = error.  Text goes to stdout with six decimal places; --json and
--csv write machine-readable reports with full precision.

Config values are read only through ``_field`` and ``name:arg:...``
references only through ``_ref``; both raise ConfigParse, so a malformed
config exits 1 with a one-line message.  ``_CRITERIA`` holds one builder per
criterion, shared by scenarios and scans: it parses its measurements and
computes its bounds once, then returns a function that evaluates one state.
A steering ``fine_grained`` config without ``outcomes`` reports every Bob
outcome string, as ``preset:paper-eq12`` (the paper's Eq. 12) does on x and z.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .assemblage import assemblage_from_config, matrix_from_json, steer
from .bounds import (
    BoundVector,
    fine_grained_bound_map,
    fine_grained_bound_product,
    matched_outcome_events,
    omega_numeric,
    omega_two_bases,
    setting_pairs,
)
from .criteria import (
    DetectionReport,
    entanglement_fine_grained,
    entanglement_universal,
    steering_fine_grained,
    steering_universal,
)
from .errors import ConfigParse, UwitError
from .oracle import (
    ScanResult,
    brute_force_topk,
    scan_to_csv,
    threshold_scan,
    verify_majorization_bound,
)
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
        "flavor": "fine_grained",
        "state": "bell_phi_plus",
        "measurements": {"alice": ["pauli_x", "pauli_z"], "bob": ["pauli_x", "pauli_z"]},
    },
}


# Upper limits on the work a config can ask for.
MAX_SCAN_POINTS = 10_000
MAX_REPORTS = 10**5      # reports of one criterion on one state
MAX_ORACLE_SAMPLES = 10**6
MAX_ORACLE_GRID = 10**6
MAX_RESTARTS = 1_000     # per bound; a product ascent holds a d x d matrix per restart

_REQUIRED = object()
_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


def _convert(value, kind, where: str):
    """``kind(value)``, or a type check when ``kind`` is a JSON container type."""
    if kind in _JSON_TYPES:
        if isinstance(value, kind):
            return value
        raise ConfigParse(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigParse(f"{where} has a malformed value {value!r}") from None


def _field(cfg, key: str, kind=None, default=_REQUIRED):
    """Read ``cfg[key]`` through ``kind``; every config value is read here."""
    if not isinstance(cfg, dict):
        raise ConfigParse(f"expected an object with a {key!r} field, got {cfg!r}")
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigParse(f"config needs a {key!r} field")
        return default
    return cfg[key] if kind is None else _convert(cfg[key], kind, f"field {key!r}")


def _ref(spec, table: dict, what: str):
    """Build a ``name:arg:...`` reference from ``table[name] = (builder, required, *kinds)``."""
    name, *args = _convert(spec, str, what).split(":")
    if name not in table:
        raise ConfigParse(f"unknown {what} {spec!r}")
    build, required, *kinds = table[name]
    if not required <= len(args) <= len(kinds):
        raise ConfigParse(f"{what} {spec!r} has the wrong number of arguments")
    return build(*(_convert(arg, kind, f"{what} {spec!r}") for kind, arg in zip(kinds, args)))


def _maximally_mixed(d: int = 4) -> DensityState:
    root = math.isqrt(max(d, 0))
    return maximally_mixed(d, dims=(root, root) if root * root == d else None)


_STATES = {
    "bell_phi_plus": (bell_phi_plus, 0),
    "maximally_mixed": (_maximally_mixed, 0, int),
    "werner": (werner, 1, float),
    "isotropic": (isotropic, 2, int, float),
}
_FAMILIES = {
    "werner": (lambda: werner, 0),
    "isotropic": (lambda d=2: lambda f: isotropic(d, f), 0, int),
}
_MEASUREMENT_SETS = {"mub": (mub_bases, 2, int, int)}
_PAULIS = ("pauli_x", "pauli_y", "pauli_z")


def _dims(value) -> tuple[int, int]:
    da, db = map(operator.index, value)
    return da, db


def _state(spec) -> DensityState:
    if isinstance(spec, dict):
        matrix = matrix_from_json(_field(spec, "matrix"))
        return DensityState(matrix, dims=_field(spec, "dims", _dims, None))
    return _ref(spec, _STATES, "state")


def _measurements(spec) -> list[Povm]:
    if isinstance(spec, str) and spec not in _PAULIS:
        return list(_ref(spec, _MEASUREMENT_SETS, "measurement set"))
    out: list[Povm] = []
    for item in [spec] if isinstance(spec, str) else _convert(spec, list, "measurement list"):
        if item in _PAULIS:
            out.append(pauli_observable(item[-1]))
        elif isinstance(item, dict) and "effects" in item:
            effects = tuple(matrix_from_json(e) for e in _field(item, "effects", list))
            out.append(Povm(effects, _field(item, "labels", tuple, range(len(effects)))))
        elif isinstance(item, dict) and "observable" in item:
            out.append(observable_from_matrix(matrix_from_json(_field(item, "observable"))))
        else:
            raise ConfigParse(f"cannot parse measurement {item!r}")
    return out


def _bound(meas, restarts: int, seed: int) -> BoundVector:
    """Two nondegenerate observables of one dimension: ``omega_two_bases``; else the ascent."""
    if len(meas) == 2 and meas[0].dim == meas[1].dim and all(
        isinstance(m, Observable) and m.nondegenerate for m in meas
    ):
        return omega_two_bases(*meas)
    return omega_numeric(meas, restarts=restarts, seed=seed)


def _parties(config: dict):
    """Entanglement measurements ``x`` and ``y``; ``y`` defaults to ``x``."""
    meas = _field(config, "measurements")
    x = _measurements(_field(meas, "x"))
    return x, _measurements(_field(meas, "y")) if "y" in meas else x


def _steered(config: dict, meas):
    """Assemblage source: the config's ``assemblage``, else Alice steering the state."""
    if "assemblage" in config:
        asm = assemblage_from_config(_field(config, "assemblage"))
        return lambda state: asm
    alice = _measurements(_field(meas, "alice"))
    return lambda state: steer(state, alice)


def _entanglement_universal(config: dict, restarts: int, seed: int):
    x, y = _parties(config)
    if not all(isinstance(m, Observable) for m in x + y):
        raise ConfigParse("universal entanglement needs observables, not raw POVMs")
    q = get_quantifier(_field(config, "quantifier", str, "shannon"))
    bound_x = _bound(x, restarts, seed)
    bound_y = bound_x if y is x else _bound(y, restarts, seed)
    return lambda state: [entanglement_universal(state, x, y, q, bound_x, bound_y)]


def _entanglement_fine_grained(config: dict, restarts: int, seed: int):
    meas_a, meas_b = _parties(config)
    pairs = setting_pairs(len(meas_a), len(meas_b))
    spec = _field(config, "outcomes", default="matched")
    if spec == "matched":
        outcomes = [matched_outcome_events(meas_a[i], meas_b[j]) for i, j in pairs]
    else:
        outcomes = (_field(spec, "a", tuple), _field(spec, "b", tuple))
    priors = _field(config, "priors", ProbVec, None) or ProbVec(
        [1.0 / min(len(meas_a), len(meas_b)) if i == j else 0.0 for i, j in pairs]
    )
    bound = fine_grained_bound_product(meas_a, meas_b, outcomes, priors, restarts, seed)
    return lambda state: [entanglement_fine_grained(state, meas_a, meas_b, outcomes, priors, bound)]


def _steering_universal(config: dict, restarts: int, seed: int):
    meas = _field(config, "measurements")
    assemblage = _steered(config, meas)
    bob = _measurements(_field(meas, "bob"))
    q = get_quantifier(_field(config, "quantifier", str, "shannon"))
    bound = _bound(bob, restarts, seed)
    return lambda state: [steering_universal(assemblage(state), bob, None, q, bound)]


def _limit_reports(meas) -> None:
    """Refuse more than ``MAX_REPORTS`` reports per state, the product of the outcome counts."""
    reports = math.prod(p.n_outcomes for p in meas)
    if reports > MAX_REPORTS:
        raise ConfigParse(f"criterion would make {reports} reports per state, "
                          f"more than the limit of {MAX_REPORTS}")


def _steering_fine_grained(config: dict, restarts: int, seed: int):
    """The matching game for the configured Bob string, or for every one without ``outcomes``."""
    meas = _field(config, "measurements")
    assemblage = _steered(config, meas)
    bob = _measurements(_field(meas, "bob"))
    outcomes = _field(config, "outcomes", tuple, None)
    # one report per Alice column and requested Bob string; the game gives
    # Alice as many outcomes per setting as Bob, so as many columns as strings
    _limit_reports(bob if outcomes is not None else bob * 2)
    priors = _field(config, "priors", ProbVec, None) or uniform(len(bob))
    bounds = fine_grained_bound_map(bob, priors)
    return lambda state: steering_fine_grained(assemblage(state), bob, outcomes, priors, bounds)


_CRITERIA = {
    "entanglement_universal": _entanglement_universal,
    "entanglement_fine_grained": _entanglement_fine_grained,
    "steering_universal": _steering_universal,
    "steering_fine_grained": _steering_fine_grained,
}


def _criterion(name: str, config: dict, restarts: int, seed: int):
    if name not in _CRITERIA:
        raise ConfigParse(f"unknown criterion {name!r}; expected one of {', '.join(_CRITERIA)}")
    return _CRITERIA[name](config, restarts, seed)


def _run_bound_only(config: dict, restarts: int, seed: int):
    meas = _field(config, "measurements")
    meas = _measurements(_field(meas, "meas") if isinstance(meas, dict) else meas)
    bound = _bound(meas, restarts, seed)
    census = grid_witness = None
    if "oracle" in config:
        opts = _field(config, "oracle", dict)
        samples = _field(opts, "samples", int, 1000)
        grid = _field(opts, "grid", int, None)
        for key, value, limit in (("samples", samples, MAX_ORACLE_SAMPLES),
                                  ("grid", grid, MAX_ORACLE_GRID)):
            if value is not None and value > limit:
                raise ConfigParse(f"oracle {key} {value} exceeds the limit of {limit}")
        oracle_seed = _field(opts, "seed", int, seed)
        if oracle_seed < 0:
            raise ConfigParse(f"oracle seed must be non-negative, got {oracle_seed}")
        census = verify_majorization_bound(bound, meas, samples=samples, seed=oracle_seed)
        if grid is not None:
            grid_witness = brute_force_topk(meas, 1, grid)
    return bound, census, grid_witness


def _run_scan(config: dict, restarts: int, seed: int) -> ScanResult:
    scan = _field(config, "scan")
    family = _field(scan, "family", str)
    build_state = _ref(family, _FAMILIES, "scan family")
    grid = _field(scan, "grid")
    start, stop, step = (_field(grid, key, float) for key in ("start", "stop", "step"))
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0):
        raise ConfigParse("scan grid needs a finite start and stop and a finite positive step")
    # np.arange makes ceil(span / step) points, more than the limit exactly
    # when span / step exceeds it
    if (stop + 1e-12 - start) / step > MAX_SCAN_POINTS:
        raise ConfigParse(f"scan grid has more than {MAX_SCAN_POINTS} points")
    bisect_tol = _field(scan, "bisect_tol", float, 1e-4)
    evaluate = _criterion(_field(scan, "criterion", str), config, restarts, seed)
    return threshold_scan(
        family,
        lambda param: max(evaluate(build_state(param)), key=lambda r: r.margin),
        np.arange(start, stop + 1e-12, step).tolist(),
        bisect_tol,
    )


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
                        help=f"restarts per numeric bound, 1 to {MAX_RESTARTS} (default 64)")
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
    seed = seed if seed is not None else _field(config, "seed", int, 0)
    if seed < 0:
        raise ConfigParse(f"seed must be non-negative, got {seed}")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ConfigParse(f"restarts must be between 1 and {MAX_RESTARTS}, got {restarts}")
    kind = _field(config, "scenario_kind", default=None)
    reports: list[DetectionReport] = []
    payload: dict = {
        "schema_version": 1,
        "tool": {"name": "uwit", "version": __version__},
        "config_fingerprint": _config_fingerprint(config),
        "seed": seed,
        "restarts": restarts,
        "scenario_kind": kind,
    }

    if kind in ("entanglement", "steering"):
        name = f"{kind}_{_field(config, 'flavor', str, 'universal')}"
        # steering criteria take a configured assemblage in place of the state
        from_assemblage = kind == "steering" and "assemblage" in config
        state = None if from_assemblage else _field(config, "state", _state)
        reports = _criterion(name, config, restarts, seed)(state)
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
        payload["scan"] = asdict(scan)
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
        # reports hold only scalars, so a shallow field dict serializes as asdict does
        payload["reports"] = [dict(vars(r)) for r in reports]
        if not quiet:
            _print_reports(reports)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2))

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

"""Experiment runner: JSON configs in, machine-readable reports out.

Configs are versioned (top-level "schema": 1) and strictly validated:
unknown fields are errors, not warnings, and every error names the field
path.  A run is fully determined by the config plus its seed; reports are
byte-identical across runs except for the timestamp field, which is excluded
from the config digest.

Exit-code contract: 0 all satisfied, 1 hypothesis or bound violated,
2 divergence, 3 config error.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .algebra import AlgebraSpec, Element, derived_seed, random_elements, spectral_norms
from .checkers import (
    CheckReport,
    Witness,
    _build_report,
    additivity_ladder,
    fit_loglog_slope,
    phase_substitution_checks,
    phase_sweep_report,
    superstability_decay_batch,
    superstability_shrinking_batch,
    telescoping_check,
)
from .mappings import (
    Identity,
    MapSpec,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    apply_array,
    describe,
    domain_dim,
    jordan_star_defects,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)
from .stabilizer import (
    BACKWARD,
    FORWARD,
    BoundSpec,
    CalibrationError,
    ConstantControl,
    ControlDirectionError,
    DivergedError,
    PowerControl,
    ProfileControl,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    calibrate_control,
    control_of_elements,
    resolve_direction,
    stabilize_batch,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunSummary",
    "EXIT_OK",
    "EXIT_VIOLATED",
    "EXIT_DIVERGED",
    "EXIT_CONFIG",
    "build_map",
    "map_to_config",
    "cmd_bounds_table",
    "cmd_lemma_check",
    "cmd_stability",
    "cmd_superstability",
    "default_bounds_table_config",
    "load_config",
    "parse_config",
    "report_dict",
    "report_json_bytes",
    "rows_to_csv",
    "checks_to_csv",
]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

MAP_KINDS = ("identity", "transpose", "negation", "zero", "unitary_conjugation", "perturbed")
EXACT_MAP_KINDS = ("identity", "transpose", "negation", "zero", "unitary_conjugation")


class ConfigError(ValueError):
    """Malformed experiment config; the message starts with the field path."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_unknown(value: dict, path: str, allowed: set[str]) -> None:
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _get(value: dict, path: str, key: str, required: bool = False, default: Any = None) -> Any:
    if key in value:
        return value[key]
    if required:
        raise ConfigError(f"{path}.{key}: required field missing")
    return default


def _as_int(value: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value: Any, path: str, minimum: float | None = None, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if positive and out <= 0.0:
        raise ConfigError(f"{path}: must be positive, got {out}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {out}")
    return out


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_choice(value: Any, path: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
    return value


def _as_matrix(value: Any, path: str) -> list[list[list[float]]]:
    """Validate a matrix literal: rows of numbers or [re, im] pairs."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    dim = len(value)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{path}[{i}]: expected a row of length {dim}")
        out_row = []
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                out_row.append([float(entry), 0.0])
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            ):
                out_row.append([float(entry[0]), float(entry[1])])
            else:
                raise ConfigError(f"{path}[{i}][{j}]: expected a number or [re, im] pair")
        rows.append(out_row)
    return rows


def _matrix_to_array(rows: list[list[list[float]]]) -> np.ndarray:
    dim = len(rows)
    arr = np.empty((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            arr[i, j] = complex(rows[i][j][0], rows[i][j][1])
    return arr


def _parse_map(value: Any, path: str, nested: bool = False) -> dict:
    m = _require_mapping(value, path)
    kind = _as_choice(_get(m, path, "kind", required=True), f"{path}.kind", MAP_KINDS)
    if kind in ("identity", "transpose", "negation", "zero"):
        _check_unknown(m, path, {"kind"})
        return {"kind": kind}
    if kind == "unitary_conjugation":
        _check_unknown(m, path, {"kind", "seed", "matrix"})
        if "matrix" in m:
            return {"kind": kind, "matrix": _as_matrix(m["matrix"], f"{path}.matrix")}
        return {"kind": kind, "seed": _as_int(_get(m, path, "seed", required=True), f"{path}.seed")}
    # perturbed
    if nested:
        raise ConfigError(f"{path}.kind: perturbed maps do not nest")
    _check_unknown(m, path, {"kind", "base", "perturbation"})
    base = _parse_map(_get(m, path, "base", required=True), f"{path}.base", nested=True)
    p_path = f"{path}.perturbation"
    p = _require_mapping(_get(m, path, "perturbation", required=True), p_path)
    _check_unknown(p, p_path, {"mode", "size", "power", "direction", "odd"})
    mode = _as_choice(_get(p, p_path, "mode", required=True), f"{p_path}.mode", ("power", "constant", "affine"))
    size = _as_float(_get(p, p_path, "size", required=True), f"{p_path}.size", minimum=0.0)
    power = _as_float(_get(p, p_path, "power", default=0.0), f"{p_path}.power")
    direction = _get(p, p_path, "direction", default="identity")
    if isinstance(direction, str):
        direction = _as_choice(direction, f"{p_path}.direction", ("identity", "corner"))
    else:
        direction = _as_matrix(direction, f"{p_path}.direction")
    odd = _as_bool(_get(p, p_path, "odd", default=False), f"{p_path}.odd")
    return {
        "kind": "perturbed",
        "base": base,
        "perturbation": {"mode": mode, "size": size, "power": power, "direction": direction, "odd": odd},
    }


def _parse_bound(value: Any, path: str) -> dict:
    b = _require_mapping(value, path)
    kind = _as_choice(_get(b, path, "kind", required=True), f"{path}.kind", ("power", "profile", "constant"))
    coeff = _as_float(_get(b, path, "coeff", required=True), f"{path}.coeff", minimum=0.0)
    if kind == "power":
        _check_unknown(b, path, {"kind", "coeff", "exp1", "exp2", "exp3"})
        return {
            "kind": kind,
            "coeff": coeff,
            "exp1": _as_float(_get(b, path, "exp1", required=True), f"{path}.exp1"),
            "exp2": _as_float(_get(b, path, "exp2", required=True), f"{path}.exp2"),
            "exp3": _as_float(_get(b, path, "exp3", required=True), f"{path}.exp3"),
        }
    if kind == "profile":
        _check_unknown(b, path, {"kind", "coeff", "degree"})
        return {"kind": kind, "coeff": coeff, "degree": _as_float(_get(b, path, "degree", required=True), f"{path}.degree")}
    _check_unknown(b, path, {"kind", "coeff"})
    return {"kind": kind, "coeff": coeff}


@dataclass
class ExperimentConfig:
    """Parsed, defaulted experiment description.

    ``canonical`` is the normalized dict the config digest is computed from;
    it reflects every applied default and any seed override.
    """

    algebra: AlgebraSpec
    map_cfg: dict | None
    bound_cfg: dict | None
    seed: int
    samples: int
    norm_cap: float
    dims: list[int]
    stabilizer: StabilizerConfig
    phase_grid_size: int
    checks_tol: float
    phase_sweep: bool
    decay_n_max: int
    decay_terminal_tol: float
    decay_slope_margin: float
    exactness_samples: int
    exactness_tol: float
    calibration_norm_cap: float | None
    calibration_sweep: float | None
    table_coeffs: list[float]
    table_exps_forward: list[float]
    table_exps_backward: list[float]
    table_norms: list[float]
    table_terms: int
    table_profile_degree: float
    output_format: str
    output_path: str | None
    canonical: dict

    def bound_spec(self) -> BoundSpec | None:
        if self.bound_cfg is None:
            return None
        b = self.bound_cfg
        if b["kind"] == "power":
            return PowerControl(b["coeff"], b["exp1"], b["exp2"], b["exp3"])
        if b["kind"] == "profile":
            return ProfileControl(b["coeff"], b["degree"])
        return ConstantControl(b["coeff"])


def parse_config(raw: Any, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config dict; raises ConfigError naming the offending field."""
    top = _require_mapping(raw, "config")
    _check_unknown(
        top,
        "config",
        {
            "schema",
            "algebra",
            "map",
            "bound",
            "sampling",
            "stabilizer",
            "phase_grid_size",
            "checks",
            "superstability",
            "exactness",
            "calibration",
            "bounds_table",
            "outputs",
        },
    )
    schema = _get(top, "config", "schema", required=True)
    if schema != 1:
        raise ConfigError(f"config.schema: unsupported version {schema!r}")

    alg = _require_mapping(_get(top, "config", "algebra", required=True), "config.algebra")
    _check_unknown(alg, "config.algebra", {"dim"})
    dim = _as_int(_get(alg, "config.algebra", "dim", required=True), "config.algebra.dim", minimum=1)
    algebra = AlgebraSpec(dim=dim)

    map_cfg = None
    if "map" in top:
        map_cfg = _parse_map(top["map"], "config.map")

    bound_cfg = None
    if "bound" in top:
        bound_cfg = _parse_bound(top["bound"], "config.bound")

    samp = _require_mapping(_get(top, "config", "sampling", required=True), "config.sampling")
    _check_unknown(samp, "config.sampling", {"seed", "samples", "norm_cap", "dims"})
    seed = _as_int(_get(samp, "config.sampling", "seed", required=True), "config.sampling.seed")
    if seed_override is not None:
        seed = int(seed_override)
    samples = _as_int(_get(samp, "config.sampling", "samples", default=1000), "config.sampling.samples", minimum=1)
    norm_cap = _as_float(
        _get(samp, "config.sampling", "norm_cap", default=10.0), "config.sampling.norm_cap", minimum=0.0
    )
    dims_raw = _get(samp, "config.sampling", "dims", default=[dim])
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ConfigError("config.sampling.dims: expected a non-empty list of integers")
    dims = [_as_int(v, f"config.sampling.dims[{i}]", minimum=1) for i, v in enumerate(dims_raw)]

    stab = _require_mapping(_get(top, "config", "stabilizer", default={}), "config.stabilizer")
    _check_unknown(stab, "config.stabilizer", {"max_iter", "tol", "direction"})
    stabilizer = StabilizerConfig(
        max_iter=_as_int(_get(stab, "config.stabilizer", "max_iter", default=64), "config.stabilizer.max_iter", minimum=2),
        tol=_as_float(_get(stab, "config.stabilizer", "tol", default=1e-10), "config.stabilizer.tol", positive=True),
        direction=_as_choice(
            _get(stab, "config.stabilizer", "direction", default="auto"),
            "config.stabilizer.direction",
            ("forward", "backward", "auto"),
        ),
    )

    phase_grid_size = _as_int(
        _get(top, "config", "phase_grid_size", default=16), "config.phase_grid_size", minimum=0
    )

    checks = _require_mapping(_get(top, "config", "checks", default={}), "config.checks")
    _check_unknown(checks, "config.checks", {"tol", "phase_sweep"})
    checks_tol = _as_float(_get(checks, "config.checks", "tol", default=1e-9), "config.checks.tol", positive=True)
    phase_sweep = _as_bool(_get(checks, "config.checks", "phase_sweep", default=False), "config.checks.phase_sweep")

    decay = _require_mapping(_get(top, "config", "superstability", default={}), "config.superstability")
    _check_unknown(decay, "config.superstability", {"n_max", "terminal_tol", "slope_margin"})
    decay_n_max = _as_int(_get(decay, "config.superstability", "n_max", default=64), "config.superstability.n_max", minimum=2)
    decay_terminal_tol = _as_float(
        _get(decay, "config.superstability", "terminal_tol", default=1e-3),
        "config.superstability.terminal_tol",
        positive=True,
    )
    decay_slope_margin = _as_float(
        _get(decay, "config.superstability", "slope_margin", default=0.1),
        "config.superstability.slope_margin",
        positive=True,
    )

    exact = _require_mapping(_get(top, "config", "exactness", default={}), "config.exactness")
    _check_unknown(exact, "config.exactness", {"samples", "tol"})
    exactness_samples = _as_int(_get(exact, "config.exactness", "samples", default=64), "config.exactness.samples", minimum=1)
    exactness_tol = _as_float(_get(exact, "config.exactness", "tol", default=1e-8), "config.exactness.tol", positive=True)

    calib = _require_mapping(_get(top, "config", "calibration", default={}), "config.calibration")
    _check_unknown(calib, "config.calibration", {"norm_cap", "sweep_factor"})
    calibration_norm_cap = None
    if "norm_cap" in calib:
        calibration_norm_cap = _as_float(calib["norm_cap"], "config.calibration.norm_cap", positive=True)
    calibration_sweep = None
    if "sweep_factor" in calib and calib["sweep_factor"] is not None:
        calibration_sweep = _as_float(calib["sweep_factor"], "config.calibration.sweep_factor", positive=True)

    table = _require_mapping(_get(top, "config", "bounds_table", default={}), "config.bounds_table")
    _check_unknown(
        table, "config.bounds_table", {"coeffs", "exps_forward", "exps_backward", "norms", "terms", "profile_degree"}
    )

    def _float_list(value: Any, path: str, default: list[float]) -> list[float]:
        if value is None:
            return default
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list of numbers")
        return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]

    table_coeffs = _float_list(table.get("coeffs"), "config.bounds_table.coeffs", [1e-3, 1.0, 10.0])
    table_exps_forward = _float_list(table.get("exps_forward"), "config.bounds_table.exps_forward", [1.5, 2.0, 3.0])
    table_exps_backward = _float_list(table.get("exps_backward"), "config.bounds_table.exps_backward", [0.0, 0.25, 0.5])
    table_norms = _float_list(table.get("norms"), "config.bounds_table.norms", [0.5, 1.0, 2.0])
    table_terms = _as_int(_get(table, "config.bounds_table", "terms", default=60), "config.bounds_table.terms", minimum=1)
    table_profile_degree = _as_float(
        _get(table, "config.bounds_table", "profile_degree", default=2.0), "config.bounds_table.profile_degree"
    )

    outputs = _require_mapping(_get(top, "config", "outputs", default={}), "config.outputs")
    _check_unknown(outputs, "config.outputs", {"format", "path"})
    output_format = _as_choice(
        _get(outputs, "config.outputs", "format", default="json"), "config.outputs.format", ("json", "csv")
    )
    output_path = _get(outputs, "config.outputs", "path", default=None)
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("config.outputs.path: expected a string")

    canonical = {
        "schema": 1,
        "algebra": {"dim": dim},
        "map": map_cfg,
        "bound": bound_cfg,
        "sampling": {"seed": seed, "samples": samples, "norm_cap": norm_cap, "dims": dims},
        "stabilizer": {
            "max_iter": stabilizer.max_iter,
            "tol": stabilizer.tol,
            "direction": stabilizer.direction,
        },
        "phase_grid_size": phase_grid_size,
        "checks": {"tol": checks_tol, "phase_sweep": phase_sweep},
        "superstability": {
            "n_max": decay_n_max,
            "terminal_tol": decay_terminal_tol,
            "slope_margin": decay_slope_margin,
        },
        "exactness": {"samples": exactness_samples, "tol": exactness_tol},
        "calibration": {"norm_cap": calibration_norm_cap, "sweep_factor": calibration_sweep},
        "bounds_table": {
            "coeffs": table_coeffs,
            "exps_forward": table_exps_forward,
            "exps_backward": table_exps_backward,
            "norms": table_norms,
            "terms": table_terms,
            "profile_degree": table_profile_degree,
        },
        "outputs": {"format": output_format, "path": output_path},
    }

    return ExperimentConfig(
        algebra=algebra,
        map_cfg=map_cfg,
        bound_cfg=bound_cfg,
        seed=seed,
        samples=samples,
        norm_cap=norm_cap,
        dims=dims,
        stabilizer=stabilizer,
        phase_grid_size=phase_grid_size,
        checks_tol=checks_tol,
        phase_sweep=phase_sweep,
        decay_n_max=decay_n_max,
        decay_terminal_tol=decay_terminal_tol,
        decay_slope_margin=decay_slope_margin,
        exactness_samples=exactness_samples,
        exactness_tol=exactness_tol,
        calibration_norm_cap=calibration_norm_cap,
        calibration_sweep=calibration_sweep,
        table_coeffs=table_coeffs,
        table_exps_forward=table_exps_forward,
        table_exps_backward=table_exps_backward,
        table_norms=table_norms,
        table_terms=table_terms,
        table_profile_degree=table_profile_degree,
        output_format=output_format,
        output_path=output_path,
        canonical=canonical,
    )


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")
    return parse_config(raw, seed_override=seed_override)


def default_bounds_table_config() -> ExperimentConfig:
    """Built-in config for the bounds-table command when none is supplied."""
    return parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})


def map_to_config(f: MapSpec) -> dict:
    """Serialize a map back to its config form (inverse of build_map)."""
    if isinstance(f, Identity):
        return {"kind": "identity"}
    if isinstance(f, Transpose):
        return {"kind": "transpose"}
    if isinstance(f, Negation):
        return {"kind": "negation"}
    if isinstance(f, ZeroMap):
        return {"kind": "zero"}
    if isinstance(f, UnitaryConjugation):
        return {"kind": "unitary_conjugation", "matrix": _element_json(f.u)}
    if isinstance(f, Perturbed):
        p = f.perturbation
        return {
            "kind": "perturbed",
            "base": map_to_config(f.base),
            "perturbation": {
                "mode": p.mode,
                "size": p.size,
                "power": p.power,
                "direction": _element_json(p.direction),
                "odd": p.odd,
            },
        }
    raise TypeError(f"unknown map spec {type(f).__name__}")


def build_map(map_cfg: dict, dim: int) -> MapSpec:
    """Instantiate a validated map config at a concrete dimension."""
    kind = map_cfg["kind"]
    if kind == "identity":
        return Identity(dim)
    if kind == "transpose":
        return Transpose(dim)
    if kind == "negation":
        return Negation(dim)
    if kind == "zero":
        return ZeroMap(dim)
    if kind == "unitary_conjugation":
        if "matrix" in map_cfg:
            arr = _matrix_to_array(map_cfg["matrix"])
            if arr.shape[0] != dim:
                raise ConfigError(
                    f"config.map.matrix: dimension {arr.shape[0]} incompatible with requested dim {dim}"
                )
            return UnitaryConjugation(Element(arr))
        return UnitaryConjugation(phase_permutation_unitary(dim, map_cfg["seed"]))
    # perturbed
    base = build_map(map_cfg["base"], dim)
    p = map_cfg["perturbation"]
    direction = p["direction"]
    if isinstance(direction, str):
        dir_el = unit_direction(dim, direction)
    else:
        arr = _matrix_to_array(direction)
        if arr.shape[0] != dim:
            raise ConfigError(
                f"config.map.perturbation.direction: dimension {arr.shape[0]} incompatible with dim {dim}"
            )
        dir_el = Element(arr)
    perturbation = Perturbation(
        size=p["size"], power=p["power"], direction=dir_el, mode=p["mode"], odd=p["odd"]
    )
    return Perturbed(base, perturbation)


# ---------------------------------------------------------------------------
# run summaries and serialization
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    command: str
    config_digest: str
    seed: int
    meta: dict
    checks: list[CheckReport]
    sample_rows: list[dict]
    verdict: str
    exit_code: int


def config_digest(config: ExperimentConfig) -> str:
    blob = json.dumps(config.canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _complex_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _element_json(el: Element) -> list[list[list[float]]]:
    return [[_complex_json(complex(v)) for v in row] for row in el.entries.tolist()]


def _witness_json(w: Witness | None) -> dict | None:
    if w is None:
        return None
    out: dict[str, Any] = {
        "sample_index": w.sample_index,
        "residual": w.residual,
        "input_norms": dict(sorted(w.input_norms.items())),
    }
    out["phase"] = None if w.phase is None else _complex_json(w.phase)
    out["inputs"] = {k: _element_json(v) for k, v in sorted(w.inputs.items())}
    return out


def _check_json(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "max_residual": report.max_residual,
        "max_slack": report.max_slack,
        "num_samples": report.num_samples,
        "verdict": report.verdict,
        "worst_witness": _witness_json(report.worst_witness),
    }


def report_dict(summary: RunSummary, timestamp: str | None = None) -> dict:
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "schema": 1,
        "command": summary.command,
        "config_digest": summary.config_digest,
        "timestamp": timestamp,
        "seed": summary.seed,
        "meta": summary.meta,
        "checks": [_check_json(c) for c in summary.checks],
        "samples": summary.sample_rows,
        "verdict": summary.verdict,
        "exit_code": summary.exit_code,
    }


def report_json_bytes(summary: RunSummary, timestamp: str | None = None) -> bytes:
    return json.dumps(report_dict(summary, timestamp), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def checks_to_csv(checks: list[CheckReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "max_residual", "max_slack", "num_samples", "verdict", "witness_norms"])
    for c in checks:
        norms = ""
        if c.worst_witness is not None:
            norms = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(c.worst_witness.input_norms.items()))
        writer.writerow([c.name, _fmt(c.max_residual), _fmt(c.max_slack), c.num_samples, c.verdict, norms])
    return buf.getvalue()


def rows_to_csv(rows: list[dict]) -> str:
    """Summary-row CSV: list-valued columns (full traces) stay JSON-only."""
    buf = io.StringIO()
    if not rows:
        return ""
    fields = [k for k, v in rows[0].items() if not isinstance(v, list)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row.get(k, "")) for k in fields])
    return buf.getvalue()


def _max_threads() -> int:
    raw = os.environ.get("STABLAB_MAX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _parallel_map(fn, items):
    items = list(items)
    workers = _max_threads()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _global_verdict(checks: list[CheckReport]) -> str:
    asserted = [c for c in checks if c.verdict != "vacuous"]
    if not asserted:
        return "satisfied"
    return "satisfied" if all(c.verdict == "satisfied" for c in asserted) else "violated"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require_map(config: ExperimentConfig) -> dict:
    if config.map_cfg is None:
        raise ConfigError("config.map: required for this command")
    return config.map_cfg


def cmd_lemma_check(config: ExperimentConfig) -> RunSummary:
    """Additivity proof ladder plus the telescoping equality, per dimension."""
    map_cfg = _require_map(config)
    grid = unit_circle_grid(config.phase_grid_size)
    checks: list[CheckReport] = []
    meta: dict[str, Any] = {"dims": config.dims, "maps": {}}
    for dim in config.dims:
        f = build_map(map_cfg, dim)
        meta["maps"][str(dim)] = describe(f)
        dim_seed = derived_seed(config.seed, dim)
        reports = additivity_ladder(f, dim_seed, config.samples, config.checks_tol, config.norm_cap)
        reports.append(telescoping_check(f, dim_seed, config.samples, config.checks_tol, config.norm_cap))
        reports.extend(
            phase_substitution_checks(f, grid, dim_seed, config.samples, config.checks_tol, config.norm_cap)
        )
        if config.phase_sweep:
            reports.extend(phase_sweep_report(f, grid, dim_seed, config.samples, config.norm_cap))
        for r in reports:
            r.name = f"dim{dim}/{r.name}"
        checks.extend(reports)
    verdict = _global_verdict(checks)
    return RunSummary(
        command="lemma-check",
        config_digest=config_digest(config),
        seed=config.seed,
        meta=meta,
        checks=checks,
        sample_rows=[],
        verdict=verdict,
        exit_code=EXIT_OK if verdict == "satisfied" else EXIT_VIOLATED,
    )


def _stabilized_evaluator(f: MapSpec, cfg: StabilizerConfig, direction: str):
    pinned = replace(cfg, direction=direction)
    d = domain_dim(f)

    def eval_fn(xs: np.ndarray) -> np.ndarray:
        flat = np.asarray(xs, dtype=np.complex128).reshape((-1, d, d))
        results = stabilize_batch(f, flat, pinned)
        bad = sum(1 for r in results if not r.converged)
        if bad:
            raise DivergedError(f"{bad} of {flat.shape[0]} limit evaluations did not converge")
        return np.stack([r.limit.entries for r in results]).reshape(np.asarray(xs).shape)

    return eval_fn


def cmd_stability(config: ExperimentConfig) -> RunSummary:
    """Calibrate the control, stabilize samples, certify, check the limit map."""
    map_cfg = _require_map(config)
    template = config.bound_spec()
    if template is None:
        raise ConfigError("config.bound: required for the stability command")
    dim = config.algebra.dim
    f = build_map(map_cfg, dim)
    direction = resolve_direction(f, config.stabilizer)
    if direction is None:
        raise ConfigError(
            "config.stabilizer.direction: set forward or backward explicitly for maps "
            "without a perturbation exponent"
        )
    digest = config_digest(config)
    meta: dict[str, Any] = {"map": describe(f), "direction": direction, "dim": dim}

    A = random_elements(config.seed, config.samples, dim, config.norm_cap, stream=60)
    results = stabilize_batch(f, A, replace(config.stabilizer, direction=direction))
    norms_a = spectral_norms(A)
    scales = 1.0 + norms_a

    diverged = [i for i, r in enumerate(results) if r.status == "diverged"]
    if diverged:
        rows = [
            {
                "sample_id": i,
                "norm_a": float(norms_a[i]),
                "status": r.status,
                "iterations": r.iterations_used,
                "trace": [float(v) for v in r.cauchy_residuals],
            }
            for i, r in enumerate(results)
        ]
        meta["diverged_samples"] = len(diverged)
        return RunSummary(
            command="stability",
            config_digest=digest,
            seed=config.seed,
            meta=meta,
            checks=[],
            sample_rows=rows,
            verdict="diverged",
            exit_code=EXIT_DIVERGED,
        )

    exhausted = [i for i, r in enumerate(results) if r.status == "exhausted"]
    checks: list[CheckReport] = []

    calib_cap = config.calibration_norm_cap if config.calibration_norm_cap is not None else config.norm_cap
    try:
        calibrated = calibrate_control(
            f,
            template,
            derived_seed(config.seed, 7),
            max(config.samples, 10),
            norm_cap=calib_cap,
            sweep_factor=config.calibration_sweep,
        )
    except CalibrationError as exc:
        meta["calibration_error"] = str(exc)
        return RunSummary(
            command="stability",
            config_digest=digest,
            seed=config.seed,
            meta=meta,
            checks=[],
            sample_rows=[],
            verdict="violated",
            exit_code=EXIT_VIOLATED,
        )
    meta["calibrated_coeff"] = calibrated.coeff

    limits = np.stack([r.limit.entries for r in results])
    dists = spectral_norms(limits - apply_array(f, A))
    try:
        cal_bounds = np.array([bound_closed_form(calibrated, float(n), direction) for n in norms_a])
    except ControlDirectionError as exc:
        raise ConfigError(f"config.bound: {exc}")

    declared_bounds = None
    if template.coeff > 0.0:
        declared_bounds = np.array([bound_closed_form(template, float(n), direction) for n in norms_a])

    rows = []
    for i, r in enumerate(results):
        r.certified_bound = float(cal_bounds[i])
        row = {
            "sample_id": i,
            "norm_a": float(norms_a[i]),
            "iterations": r.iterations_used,
            "status": r.status,
            "dist": float(dists[i]),
            "bound": float(cal_bounds[i]),
            "slack": float(cal_bounds[i] - dists[i]),
        }
        if declared_bounds is not None:
            row["declared_bound"] = float(declared_bounds[i])
            row["declared_slack"] = float(declared_bounds[i] - dists[i])
        row["trace"] = [float(v) for v in r.cauchy_residuals]
        rows.append(row)

    def cert_witness(i: int) -> Witness:
        return Witness(i, float(dists[i]), {"a": float(norms_a[i])})

    checks.append(
        _build_report("bound_certificate", dists, cal_bounds, scales, 1e-9, cert_witness)
    )
    if declared_bounds is not None:
        checks.append(
            _build_report("declared_bound", dists, declared_bounds, scales, 1e-9, cert_witness)
        )

    # Exactness of the recovered limit map, evaluated through stabilization.
    eval_fn = _stabilized_evaluator(f, config.stabilizer, direction)
    exact_cap = 1.0 if config.norm_cap <= 0.0 else min(config.norm_cap, 1.0)
    defects, _ = jordan_star_defects(
        eval_fn,
        dim,
        config.exactness_samples,
        derived_seed(config.seed, 8),
        norm_cap=exact_cap,
        phases=unit_circle_grid(config.phase_grid_size),
    )
    names = sorted(defects)
    worst_per_law = np.array([float(np.max(defects[k])) for k in names])
    meta["recovered_defects"] = {k: float(np.max(defects[k])) for k in names}

    def exact_witness(i: int) -> Witness:
        return Witness(i, float(worst_per_law[i]), {"max_defect": float(worst_per_law[i])})

    checks.append(
        _build_report(
            "recovered_exactness",
            worst_per_law,
            np.zeros(len(names)),
            np.ones(len(names)),
            config.exactness_tol,
            exact_witness,
        )
    )

    if exhausted:
        meta["exhausted_samples"] = len(exhausted)
        checks.append(CheckReport("all_samples_converged", float(len(exhausted)), 0.0, len(results), "violated"))

    verdict = _global_verdict(checks)
    return RunSummary(
        command="stability",
        config_digest=digest,
        seed=config.seed,
        meta=meta,
        checks=checks,
        sample_rows=rows,
        verdict=verdict,
        exit_code=EXIT_OK if verdict == "satisfied" else EXIT_VIOLATED,
    )


def cmd_superstability(config: ExperimentConfig) -> RunSummary:
    """Decay-sequence experiment: slope and terminal-value assertions."""
    map_cfg = _require_map(config)
    dim = config.algebra.dim
    f = build_map(map_cfg, dim)
    meta: dict[str, Any] = {"map": describe(f), "dim": dim, "n_max": config.decay_n_max}

    exponent = None
    if isinstance(f, Perturbed) and f.perturbation.mode == "power":
        exponent = f.perturbation.power
    shrink = exponent is not None and exponent > 1.0
    meta["variant"] = "shrinking" if shrink else "growing"
    if exponent is not None:
        meta["defect_exponent"] = exponent

    A = random_elements(config.seed, config.samples, dim, config.norm_cap, stream=70)
    norms_a = spectral_norms(A)
    scales = 1.0 + norms_a
    if shrink:
        decay = superstability_shrinking_batch(f, A, config.decay_n_max)
    else:
        decay = superstability_decay_batch(f, A, config.decay_n_max)

    terminal = decay[:, -1]

    def term_witness(i: int) -> Witness:
        return Witness(i, float(terminal[i]), {"a": float(norms_a[i])})

    checks = [
        _build_report(
            "terminal_decay", terminal, np.zeros(config.samples), scales, config.decay_terminal_tol, term_witness
        )
    ]

    slopes = []
    slope_rows = []
    target = None
    if exponent is not None:
        target = 2.0 * exponent - 2.0 if not shrink else 2.0 - 2.0 * exponent
    for i in range(config.samples):
        seq = decay[i]
        if float(np.max(seq)) <= 1e-9 * scales[i]:
            slope_rows.append(float("nan"))  # defect at noise scale: nothing to fit
            continue
        try:
            slope = fit_loglog_slope(seq, start_n=4)
        except ValueError:
            slope = float("inf")
        slopes.append((i, slope))
        slope_rows.append(slope)

    if slopes and target is not None:
        slope_vals = np.array([s for _, s in slopes])
        idxs = [i for i, _ in slopes]
        bound = target + config.decay_slope_margin
        meta["slope_target"] = target

        def slope_witness(k: int) -> Witness:
            i = idxs[k]
            return Witness(i, float(slope_vals[k]), {"a": float(norms_a[i])})

        checks.append(
            _build_report(
                "decay_slope",
                slope_vals,
                np.full(len(slopes), bound),
                np.ones(len(slopes)),
                0.0,
                slope_witness,
            )
        )
    elif slopes and target is None:
        checks.append(
            CheckReport("decay_slope", float(np.max([s for _, s in slopes])), 0.0, len(slopes), "violated")
        )

    rows = [
        {
            "sample_id": i,
            "norm_a": float(norms_a[i]),
            "d_first": float(decay[i, 0]),
            "d_terminal": float(decay[i, -1]),
            "slope": slope_rows[i],
            "sequence": [float(v) for v in decay[i]],
        }
        for i in range(config.samples)
    ]
    verdict = _global_verdict(checks)
    return RunSummary(
        command="superstability",
        config_digest=config_digest(config),
        seed=config.seed,
        meta=meta,
        checks=checks,
        sample_rows=rows,
        verdict=verdict,
        exit_code=EXIT_OK if verdict == "satisfied" else EXIT_VIOLATED,
    )


def _series_element(norm_a: float, dim: int) -> Element:
    arr = np.zeros((dim, dim), dtype=np.complex128)
    arr[0, 0] = norm_a
    return Element(arr)


def cmd_bounds_table(config: ExperimentConfig) -> RunSummary:
    """Closed-form vs truncated-series bound table over a parameter grid."""
    dim = max(config.algebra.dim, 2)
    cells = []
    for direction, exps in ((BACKWARD, config.table_exps_backward), (FORWARD, config.table_exps_forward)):
        for coeff in config.table_coeffs:
            for exp in exps:
                for norm_a in config.table_norms:
                    cells.append(("power", direction, coeff, exp, norm_a))
    for coeff in config.table_coeffs:
        for norm_a in config.table_norms:
            cells.append(("profile", FORWARD, coeff, config.table_profile_degree, norm_a))

    def evaluate_cell(cell):
        kind, direction, coeff, exp, norm_a = cell
        if kind == "power":
            spec: BoundSpec = PowerControl(coeff, exp, exp, exp)
        else:
            spec = ProfileControl(coeff, exp)
        closed = bound_closed_form(spec, norm_a, direction)
        series, tail = bound_series_truncated(
            control_of_elements(spec), _series_element(norm_a, dim), direction, config.table_terms
        )
        rel = abs(closed - series) / max(abs(closed), 1e-300)
        row = {
            "kind": kind,
            "direction": direction,
            "coeff": coeff,
            "exponent": exp,
            "norm_a": norm_a,
            "closed_form": closed,
            "series": series,
            "tail_estimate": tail,
            "rel_err": rel,
            "agree": rel <= 1e-9,
        }
        if kind == "profile":
            ref = bound_closed_form(PowerControl(coeff, exp, exp, exp), norm_a, direction)
            row["power_reference"] = ref
            row["power_rel_err"] = abs(closed - ref) / max(abs(ref), 1e-300)
        return row

    rows = _parallel_map(evaluate_cell, cells)

    rel_errs = np.array([r["rel_err"] for r in rows])

    def cell_witness(i: int) -> Witness:
        return Witness(i, float(rel_errs[i]), {"norm_a": rows[i]["norm_a"]})

    checks = [
        _build_report(
            "series_closed_form_agreement",
            rel_errs,
            np.zeros(len(rows)),
            np.ones(len(rows)),
            1e-9,
            cell_witness,
        )
    ]
    prof_errs = np.array([r["power_rel_err"] for r in rows if r["kind"] == "profile"])
    if prof_errs.size:
        checks.append(
            _build_report(
                "profile_power_consistency",
                prof_errs,
                np.zeros(prof_errs.size),
                np.ones(prof_errs.size),
                1e-12,
                None,
            )
        )
    verdict = _global_verdict(checks)
    return RunSummary(
        command="bounds-table",
        config_digest=config_digest(config),
        seed=config.seed,
        meta={"cells": len(rows), "terms": config.table_terms},
        checks=checks,
        sample_rows=rows,
        verdict=verdict,
        exit_code=EXIT_OK if verdict == "satisfied" else EXIT_VIOLATED,
    )

"""Experiment runner: JSON configs in, machine-readable reports out.

Configs are versioned (top-level "schema": 1) and strictly validated:
unknown fields are errors, not warnings, and every error names the field
path.  A run is fully determined by the config plus its seed; reports are
byte-identical across runs except for the timestamp field, which is excluded
from the config digest.

Exit-code contract: 0 all satisfied, 1 hypothesis or bound violated,
2 divergence (of the sampled runs or of the exactness check's), 3 config or
usage error (an unwritable output path included), 4 numerical failure (an
overflow or a non-finite value, raised as an ArithmeticError).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from types import SimpleNamespace
from typing import Any, get_args, get_origin

import numpy as np

from .algebra import Element, derived_seed, random_elements, spectral_norms
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
    DIM_ONLY_ACTIONS,
    MAP_KINDS,
    PERTURBATION_MODES,
    UNIT_DIRECTIONS,
    MapSpec,
    Perturbation,
    Perturbed,
    UnitaryConjugation,
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
    BOUND_KINDS,
    FORWARD,
    CalibrationError,
    ControlDirectionError,
    DivergedError,
    PowerControl,
    StabilizerConfig,
    bound_closed_form,
    bound_fields,
    bound_series_truncated,
    calibrate_control,
    make_control,
    resolve_direction,
    stabilize_batch,
)

__all__ = [
    "CONFIG_FIELDS",
    "REQUIRED",
    "ConfigError",
    "ExperimentConfig",
    "RunSummary",
    "EXIT_OK",
    "EXIT_VIOLATED",
    "EXIT_DIVERGED",
    "EXIT_CONFIG",
    "EXIT_NUMERIC",
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
EXIT_NUMERIC = 4
EXIT_CODES = {"satisfied": EXIT_OK, "violated": EXIT_VIOLATED, "diverged": EXIT_DIVERGED}


class ConfigError(ValueError):
    """Malformed config or unusable argument; the message starts with the field path or flag."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of a field the config must set

# The config schema, one row per field: (path, attribute, type, default,
# allowed).  ``allowed`` is an interval for numbers (which must also be
# finite), a tuple of choices for strings, or None for no further limit; a
# list's interval applies to each of its (at least one) items.  An explicit
# null counts as absent.  The parser, the defaults, the canonical dict behind
# the config digest and the ExperimentConfig attributes all come from here.
CONFIG_FIELDS = (
    ("algebra.dim", "dim", int, REQUIRED, "[1, inf)"),
    ("sampling.seed", "seed", int, REQUIRED, "[0, inf)"),
    ("sampling.samples", "samples", int, 1000, "[1, inf)"),
    ("sampling.norm_cap", "norm_cap", float, 10.0, "[0, inf)"),
    ("sampling.dims", "dims", list[int], None, "[1, inf)"),
    ("stabilizer.max_iter", "stabilizer_max_iter", int, 64, "[2, inf)"),
    ("stabilizer.tol", "stabilizer_tol", float, 1e-10, "(0, inf)"),
    ("stabilizer.direction", "stabilizer_direction", str, "auto", ("forward", "backward", "auto")),
    ("phase_grid_size", "phase_grid_size", int, 16, "[0, inf)"),
    ("checks.tol", "checks_tol", float, 1e-9, "(0, inf)"),
    ("checks.phase_sweep", "phase_sweep", bool, False, None),
    ("superstability.n_max", "decay_n_max", int, 64, "[2, inf)"),
    ("superstability.terminal_tol", "decay_terminal_tol", float, 1e-3, "(0, inf)"),
    ("superstability.slope_margin", "decay_slope_margin", float, 0.1, "(0, inf)"),
    ("exactness.samples", "exactness_samples", int, 64, "[1, inf)"),
    ("exactness.tol", "exactness_tol", float, 1e-8, "(0, inf)"),
    ("calibration.norm_cap", "calibration_norm_cap", float, None, "(0, inf)"),
    ("calibration.sweep_factor", "calibration_sweep", float, None, "(1, inf)"),
    ("bounds_table.coeffs", "table_coeffs", list[float], [1e-3, 1.0, 10.0], "[0, inf)"),
    ("bounds_table.exps_forward", "table_exps_forward", list[float], [1.5, 2.0, 3.0], "(1, inf)"),
    ("bounds_table.exps_backward", "table_exps_backward", list[float], [0.0, 0.25, 0.5], "[0, 1)"),
    ("bounds_table.norms", "table_norms", list[float], [0.5, 1.0, 2.0], "[0, inf)"),
    ("bounds_table.terms", "table_terms", int, 60, "[1, inf)"),
    ("bounds_table.profile_degree", "table_profile_degree", float, 2.0, "(1, inf)"),
    ("outputs.format", "output_format", str, "json", ("json", "csv")),
    ("outputs.path", "output_path", str, None, None),
)

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}


def _field_path(attr: str) -> str:
    return next(f"config.{path}" for path, name, *_ in CONFIG_FIELDS if name == attr)


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_unknown(value: dict, path: str, allowed: set[str]) -> None:
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _get(value: dict, path: str, key: str, required: bool = False, default: Any = None) -> Any:
    if value.get(key) is not None:
        return value[key]
    if required:
        raise ConfigError(f"{path}.{key}: required field missing")
    return default


def _in_interval(value: float, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if (interval[0] == "(" and value == lo) or (interval[-1] == ")" and value == hi):
        return False
    return lo <= value <= hi


def _leaf(value: Any, path: str, kind: Any, allowed: Any = None) -> Any:
    """Validate one config value against its type and allowed values.

    Every leaf of a config (table fields, map and bound fields, matrix
    entries) is checked here and nowhere else: numbers must be finite and
    inside their interval, strings among their choices.  Floats are returned
    as float, lists as new lists.
    """
    if get_origin(kind) is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return [_leaf(v, f"{path}[{i}]", get_args(kind)[0], allowed) for i, v in enumerate(value)]
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"{path}: expected {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")
    if isinstance(allowed, tuple) and value not in allowed:
        raise ConfigError(f"{path}: expected one of {allowed}, got {value!r}")
    if isinstance(allowed, str) and not _in_interval(value, allowed):
        raise ConfigError(f"{path}: must be in {allowed}, got {value}")
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
            pair = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0.0]
            out_row.append([_leaf(v, f"{path}[{i}][{j}]", float) for v in pair])
        rows.append(out_row)
    return rows


def _parse_map(value: Any, path: str, nested: bool = False) -> dict:
    m = _require_mapping(value, path)
    kind = _leaf(_get(m, path, "kind", required=True), f"{path}.kind", str, tuple(MAP_KINDS))
    cls = MAP_KINDS[kind]
    if cls in DIM_ONLY_ACTIONS:
        _check_unknown(m, path, {"kind"})
        return {"kind": kind}
    if cls is UnitaryConjugation:
        _check_unknown(m, path, {"kind", "seed", "matrix"})
        if m.get("matrix") is not None:
            return {"kind": kind, "matrix": _as_matrix(m["matrix"], f"{path}.matrix")}
        return {"kind": kind, "seed": _leaf(_get(m, path, "seed", required=True), f"{path}.seed", int, "[0, inf)")}
    # perturbed
    if nested:
        raise ConfigError(f"{path}.kind: perturbed maps do not nest")
    _check_unknown(m, path, {"kind", "base", "perturbation"})
    base = _parse_map(_get(m, path, "base", required=True), f"{path}.base", nested=True)
    p_path = f"{path}.perturbation"
    p = _require_mapping(_get(m, path, "perturbation", required=True), p_path)
    _check_unknown(p, p_path, {"mode", "size", "power", "direction", "odd"})
    mode = _leaf(_get(p, p_path, "mode", required=True), f"{p_path}.mode", str, PERTURBATION_MODES)
    size = _leaf(_get(p, p_path, "size", required=True), f"{p_path}.size", float, "[0, inf)")
    power = _leaf(_get(p, p_path, "power", default=0.0), f"{p_path}.power", float)
    direction = _get(p, p_path, "direction", default="identity")
    if isinstance(direction, str):
        direction = _leaf(direction, f"{p_path}.direction", str, tuple(UNIT_DIRECTIONS))
    else:
        direction = _as_matrix(direction, f"{p_path}.direction")
    odd = _leaf(_get(p, p_path, "odd", default=False), f"{p_path}.odd", bool)
    return {
        "kind": kind,
        "base": base,
        "perturbation": {"mode": mode, "size": size, "power": power, "direction": direction, "odd": odd},
    }


def _parse_bound(value: Any, path: str) -> dict:
    b = _require_mapping(value, path)
    kind = _leaf(_get(b, path, "kind", required=True), f"{path}.kind", str, tuple(BOUND_KINDS))
    keys = bound_fields(kind)
    _check_unknown(b, path, {"kind", "coeff", *keys})
    out = {"kind": kind, "coeff": _leaf(_get(b, path, "coeff", required=True), f"{path}.coeff", float, "[0, inf)")}
    for key in keys:
        out[key] = _leaf(_get(b, path, key, required=True), f"{path}.{key}", float)
    return out


@dataclass
class ExperimentConfig:
    """Parsed, defaulted experiment description; one attribute per CONFIG_FIELDS row.

    ``canonical`` is the normalized dict the config digest is computed from;
    it reflects every applied default and any seed override.
    """

    dim: int
    seed: int
    samples: int
    norm_cap: float
    dims: list[int]
    stabilizer_max_iter: int
    stabilizer_tol: float
    stabilizer_direction: str
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
    map_cfg: dict | None
    bound_cfg: dict | None
    canonical: dict

    @property
    def stabilizer(self) -> StabilizerConfig:
        return StabilizerConfig(self.stabilizer_max_iter, self.stabilizer_tol, self.stabilizer_direction)

    @property
    def algebra(self) -> SimpleNamespace:
        """The algebra section as an object (``.dim``), as the benchmark's set-up probe reads it."""
        return SimpleNamespace(dim=self.dim)

    def bound_spec(self) -> PowerControl | None:
        if self.bound_cfg is None:
            return None
        return make_control(self.bound_cfg["kind"], self.bound_cfg["coeff"], self.bound_cfg)


def parse_config(raw: Any, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config dict against CONFIG_FIELDS; raises ConfigError naming the offending field."""
    top = _require_mapping(raw, "config")
    sections: dict[str, set[str]] = {}
    for path, *_ in CONFIG_FIELDS:
        section, _, key = path.rpartition(".")
        sections.setdefault(section, set()).add(key)
    top_level = sections.pop("")
    _check_unknown(top, "config", {"schema", "map", "bound", *top_level, *sections})
    schema = _get(top, "config", "schema", required=True)
    if schema != 1:
        raise ConfigError(f"config.schema: unsupported version {schema!r}")
    nodes = {"": top}
    for section, keys in sections.items():
        nodes[section] = _require_mapping(_get(top, "config", section, default={}), f"config.{section}")
        _check_unknown(nodes[section], f"config.{section}", keys)

    map_cfg = None if top.get("map") is None else _parse_map(top["map"], "config.map")
    bound_cfg = None if top.get("bound") is None else _parse_bound(top["bound"], "config.bound")
    values: dict[str, Any] = {}
    canonical: dict[str, Any] = {"schema": 1, "map": map_cfg, "bound": bound_cfg}
    for path, attr, kind, default, allowed in CONFIG_FIELDS:
        section, _, key = path.rpartition(".")
        value = nodes[section].get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"config.{path}: required field missing")
            value = default
        values[attr] = None if value is None else _leaf(value, f"config.{path}", kind, allowed)
        if attr == "seed" and seed_override is not None:
            values[attr] = _leaf(seed_override, f"config.{path}", kind, allowed)
        node = canonical.setdefault(section, {}) if section else canonical
        node[key] = values[attr]
    if values["dims"] is None:
        values["dims"] = canonical["sampling"]["dims"] = [values["dim"]]
    return ExperimentConfig(**values, map_cfg=map_cfg, bound_cfg=bound_cfg, canonical=canonical)


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"config: invalid JSON: {exc}")
    return parse_config(raw, seed_override=seed_override)


def default_bounds_table_config() -> ExperimentConfig:
    """Built-in config for the bounds-table command when none is supplied."""
    return parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})


def map_to_config(f: MapSpec) -> dict:
    """Serialize a map back to its config form (inverse of build_map)."""
    if type(f) in DIM_ONLY_ACTIONS:
        return {"kind": f.kind}
    if not isinstance(f, Perturbed):
        return {"kind": f.kind, "matrix": _element_json(f.u)}  # unitary conjugation
    p = f.perturbation
    return {
        "kind": f.kind,
        "base": map_to_config(f.base),
        "perturbation": {
            "mode": p.mode,
            "size": p.size,
            "power": p.power,
            "direction": _element_json(p.direction),
            "odd": p.odd,
        },
    }


@contextmanager
def _refusals_named(path: str):
    """Re-raise a map class's refusal (a ValueError) as a ConfigError naming the field."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _matrix_element(rows: list[list[list[float]]], dim: int, path: str) -> Element:
    arr = np.array(rows, dtype=float).view(np.complex128)[..., 0]
    if arr.shape[0] != dim:
        raise ConfigError(f"{path}: dimension {arr.shape[0]} incompatible with requested dim {dim}")
    return Element(arr)


def build_map(map_cfg: dict, dim: int, path: str = "config.map") -> MapSpec:
    """Instantiate a validated map config at a concrete dimension.

    A value the map classes refuse (a matrix that is not unitary, a direction
    of norm above one or one the dimension cannot hold) is a ConfigError.
    """
    cls = MAP_KINDS[map_cfg["kind"]]
    if cls in DIM_ONLY_ACTIONS:
        return cls(dim)
    if cls is UnitaryConjugation:
        if "seed" in map_cfg:
            return UnitaryConjugation(phase_permutation_unitary(dim, map_cfg["seed"]))
        u_path = f"{path}.matrix"
        with _refusals_named(u_path):
            return UnitaryConjugation(_matrix_element(map_cfg["matrix"], dim, u_path))
    base = build_map(map_cfg["base"], dim, f"{path}.base")
    p = map_cfg["perturbation"]
    d_path = f"{path}.perturbation.direction"
    with _refusals_named(d_path):
        if isinstance(p["direction"], str):
            direction = unit_direction(dim, p["direction"])
        else:
            direction = _matrix_element(p["direction"], dim, d_path)
        perturbation = Perturbation(
            size=p["size"], power=p["power"], direction=direction, mode=p["mode"], odd=p["odd"]
        )
    return Perturbed(base, perturbation)


# ---------------------------------------------------------------------------
# run summaries and serialization
# ---------------------------------------------------------------------------


@dataclass
class RunSummary:
    """A command's outcome; ``reason`` says why a diverged run stopped and is not part of the report."""

    command: str
    config_digest: str
    seed: int
    meta: dict
    checks: list[CheckReport]
    sample_rows: list[dict]
    verdict: str
    exit_code: int
    reason: str = ""


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


def _global_verdict(checks: list[CheckReport]) -> str:
    asserted = [c for c in checks if c.verdict != "vacuous"]
    if not asserted:
        return "satisfied"
    return "satisfied" if all(c.verdict == "satisfied" for c in asserted) else "violated"


def _summary(
    command: str,
    config: ExperimentConfig,
    meta: dict,
    checks: list[CheckReport],
    rows: list[dict],
    verdict: str | None = None,
    reason: str = "",
) -> RunSummary:
    """A command's summary; the verdict defaults to the checks' and sets the exit code."""
    verdict = verdict or _global_verdict(checks)
    return RunSummary(
        command, config_digest(config), config.seed, meta, checks, rows, verdict, EXIT_CODES[verdict], reason
    )


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
    return _summary("lemma-check", config, meta, checks, [])


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
    dim = config.dim
    f = build_map(map_cfg, dim)
    direction = resolve_direction(f, config.stabilizer)
    if direction is None:
        raise ConfigError(
            f"{_field_path('stabilizer_direction')}: set forward or backward explicitly for maps "
            "without a perturbation exponent"
        )
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
        reason = f"{len(diverged)} of {len(results)} stabilization runs diverged"
        return _summary("stability", config, meta, [], rows, verdict="diverged", reason=reason)

    exhausted = [i for i, r in enumerate(results) if r.status == "exhausted"]
    if exhausted:
        meta["exhausted_samples"] = len(exhausted)
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
        return _summary("stability", config, meta, [], [], verdict="violated")
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
    try:
        defects, _ = jordan_star_defects(
            eval_fn,
            dim,
            config.exactness_samples,
            derived_seed(config.seed, 8),
            norm_cap=exact_cap,
            phases=unit_circle_grid(config.phase_grid_size),
        )
    except DivergedError as exc:  # the report keeps the rows and checks built so far
        meta["exactness_error"] = str(exc)
        reason = f"exactness check: {exc}"
        return _summary("stability", config, meta, checks, rows, verdict="diverged", reason=reason)
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
        checks.append(CheckReport("all_samples_converged", float(len(exhausted)), 0.0, len(results), "violated"))
    return _summary("stability", config, meta, checks, rows)


def cmd_superstability(config: ExperimentConfig) -> RunSummary:
    """Decay-sequence experiment: slope and terminal-value assertions."""
    map_cfg = _require_map(config)
    dim = config.dim
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
    return _summary("superstability", config, meta, checks, rows)


def cmd_bounds_table(config: ExperimentConfig) -> RunSummary:
    """Closed-form vs truncated-series bound table over a parameter grid."""
    cells = []
    for direction, exps in ((BACKWARD, config.table_exps_backward), (FORWARD, config.table_exps_forward)):
        for coeff in config.table_coeffs:
            for exp in exps:
                for norm_a in config.table_norms:
                    cells.append(("power", direction, coeff, exp, norm_a))
    for coeff in config.table_coeffs:
        for norm_a in config.table_norms:
            cells.append(("profile", FORWARD, coeff, config.table_profile_degree, norm_a))

    def control(kind: str, coeff: float, exp: float) -> PowerControl:
        return make_control(kind, coeff, dict.fromkeys(bound_fields(kind), exp))

    def evaluate_cell(cell):
        kind, direction, coeff, exp, norm_a = cell
        spec = control(kind, coeff, exp)
        closed = bound_closed_form(spec, norm_a, direction)
        series, tail = bound_series_truncated(spec, norm_a, direction, config.table_terms)
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
            ref = bound_closed_form(control("power", coeff, exp), norm_a, direction)
            row["power_reference"] = ref
            row["power_rel_err"] = abs(closed - ref) / max(abs(ref), 1e-300)
        return row

    rows = [evaluate_cell(cell) for cell in cells]

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
    return _summary("bounds-table", config, {"cells": len(rows), "terms": config.table_terms}, checks, rows)

"""Experiment runner: JSON configs in, machine-readable reports out.

Configs are versioned (top-level "schema": 1) and strictly validated:
unknown fields are errors, not warnings, and every error names the field
path.  A config holds the experiment and nothing else: where a report goes
is a run option (the CLI's --out), so the config digest names only the
experiment.  Reports carry their own version (REPORT_SCHEMA).  A run is
fully determined by the config plus its seed; reports are byte-identical
across runs except for the timestamp field, which is excluded from the
config digest.

Exit-code contract: 0 all satisfied, 1 hypothesis or bound violated,
2 divergence (of the sampled runs or of the exactness check's), 3 config or
usage error (an unwritable --out path, or a run that needs more memory than
is available, included), 4 numerical failure (an overflow or a non-finite
value, raised as an ArithmeticError).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, make_dataclass
from datetime import datetime, timezone
from types import GenericAlias, SimpleNamespace
from typing import Any, get_args, get_origin

import numpy as np

from .algebra import SAMPLER, derived_seed, random_elements, spectral_norms
from .checkers import (
    CHECKS,
    CheckReport,
    _build_report,
    additivity_ladder,
    fit_loglog_slope,
    phase_substitution_checks,
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
    jordan_star_laws,
    jordan_star_points,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)
from .stabilizer import (
    BACKWARD,
    BOUND_KINDS,
    FORWARD,
    SERIES_TERMS_MAX,
    CalibrationError,
    ControlDirectionError,
    PowerControl,
    StabilizationResult,
    StabilizerConfig,
    bound_closed_form,
    bound_fields,
    bound_series_truncated,
    calibrate_control,
    make_control,
    resolve_direction,
    stabilize_batch,
    validate_control_direction,
)

__all__ = [
    "BOUND_FIELDS",
    "CONFIG_FIELDS",
    "MAP_FIELDS",
    "PERTURBATION_FIELDS",
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
    "cmd_bounds_table",
    "cmd_lemma_check",
    "cmd_stability",
    "cmd_superstability",
    "load_config",
    "parse_config",
    "report_dict",
    "report_json_bytes",
]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
EXIT_CODES = {"satisfied": EXIT_OK, "violated": EXIT_VIOLATED, "diverged": EXIT_DIVERGED}
# The report format version, written as the report's "schema"
REPORT_SCHEMA = 3


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
# The check tolerances start at 1e-13: below that, an exact map's rounding
# (near 1e-14 at dim 2) would read as a counterexample.
CONFIG_FIELDS = (
    ("algebra.dim", "dim", int, REQUIRED, "[1, inf)"),
    ("sampling.seed", "seed", int, REQUIRED, "[0, 18446744073709551616)"),
    ("sampling.samples", "samples", int, 1000, "[1, inf)"),
    ("sampling.norm_cap", "norm_cap", float, 10.0, "[0, inf)"),
    ("sampling.dims", "dims", list[int], None, "[1, inf)"),
    ("stabilizer.max_iter", "stabilizer_max_iter", int, 64, "[2, inf)"),
    ("stabilizer.tol", "stabilizer_tol", float, 1e-10, "(0, inf)"),
    ("stabilizer.direction", "stabilizer_direction", str, "auto", ("forward", "backward", "auto")),
    ("phase_grid_size", "phase_grid_size", int, 16, "[0, inf)"),
    ("checks.tol", "checks_tol", float, 1e-9, "[1e-13, inf)"),
    ("superstability.n_max", "decay_n_max", int, 64, "[5, inf)"),
    ("superstability.terminal_tol", "decay_terminal_tol", float, 1e-3, "(0, inf)"),
    ("exactness.samples", "exactness_samples", int, 64, "[1, inf)"),
    ("exactness.tol", "exactness_tol", float, 1e-8, "[1e-13, inf)"),
    ("calibration.sweep_factor", "calibration_sweep", float, None, "(1, inf)"),
    ("bounds_table.coeffs", "table_coeffs", list[float], [1e-3, 1.0, 10.0], "[0, inf)"),
    ("bounds_table.exps_forward", "table_exps_forward", list[float], [1.5, 2.0, 3.0], "(1, inf)"),
    ("bounds_table.exps_backward", "table_exps_backward", list[float], [0.0, 0.25, 0.5], "[0, 1)"),
    ("bounds_table.norms", "table_norms", list[float], [0.5, 1.0, 2.0], "[0, inf)"),
    ("bounds_table.terms", "table_terms", int, 60, f"[2, {SERIES_TERMS_MAX}]"),
    ("bounds_table.profile_degree", "table_profile_degree", float, 2.0, "(1, inf)"),
)

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}


def _field_path(attr: str) -> str:
    return next(f"config.{path}" for path, name, *_ in CONFIG_FIELDS if name == attr)


def _in_interval(value: float, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo < value if interval[0] == "(" else lo <= value) and (value < hi if interval[-1] == ")" else value <= hi)


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


def _fields(node: Any, path: str, rows: tuple, known: Any = ()) -> dict:
    """Read one config object through its rows, each (key, kind, default, allowed), into one entry per row.

    ``kind`` is a _leaf type, checked against ``allowed``, or a parser (value,
    path) -> value.  An explicit null counts as absent, an absent key takes its
    default (an error for REQUIRED), and a default other than None is read like
    a given value.  A key that is neither a row nor in ``known`` is an error.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    keys = [row[0] for row in rows]
    for key in node:
        if key not in keys and key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
    out = {}
    for key, kind, default, allowed in rows:
        value = default if node.get(key) is None else node[key]
        if value is REQUIRED:
            raise ConfigError(f"{path}.{key}: required field missing")
        if value is not None:
            leaf = isinstance(kind, (type, GenericAlias))  # a type such as float or list[int]
            value = _leaf(value, f"{path}.{key}", kind, allowed) if leaf else kind(value, f"{path}.{key}")
        out[key] = value
    return out


def _as_matrix(value: Any, path: str) -> list[list[list[float]]]:
    """Validate a matrix literal: rows of numbers or [re, im] pairs."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise ConfigError(f"{path}[{i}]: expected a row of length {len(value)}")
        pairs = [entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0.0] for entry in row]
        rows.append([[_leaf(v, f"{path}[{i}][{j}]", float) for v in pair] for j, pair in enumerate(pairs)])
    return rows


def _direction(value: Any, path: str) -> str | list:
    """A perturbation direction: a name in UNIT_DIRECTIONS or a matrix literal."""
    return _leaf(value, path, str, tuple(UNIT_DIRECTIONS)) if isinstance(value, str) else _as_matrix(value, path)


def _parse_map(value: Any, path: str, nested: bool = False) -> dict:
    kind = _fields(value, path, (_MAP_KIND,), known=value)["kind"]  # the kind picks the rows for the rest
    if nested and MAP_KINDS[kind] is Perturbed:
        raise ConfigError(f"{path}.kind: perturbed maps do not nest")
    out = _fields(value, path, MAP_FIELDS[kind])
    if MAP_KINDS[kind] is UnitaryConjugation:  # the canonical dict keeps only the one given
        out = {key: v for key, v in out.items() if v is not None}
        if len(out) != 2:
            raise ConfigError(f"{path}: expected exactly one of seed and matrix")
    return out


def _parse_bound(value: Any, path: str) -> dict:
    kind = _fields(value, path, (_BOUND_KIND,), known=value)["kind"]  # the kind picks the rows for the rest
    return _fields(value, path, BOUND_FIELDS[kind])


def _schema(value: Any, path: str) -> int:
    if type(value) is not int or value != 1:  # a bool or a float equal to 1 is no version number
        raise ConfigError(f"{path}: unsupported version {value!r}")
    return 1


def _sampler(value: Any, path: str) -> str:
    if value != SAMPLER:  # a canonical dict names its sampler; only the current one can run
        raise ConfigError(f"{path}: unsupported sampler {value!r}, this version draws {SAMPLER!r}")
    return SAMPLER


PERTURBATION_FIELDS = (
    ("mode", str, REQUIRED, PERTURBATION_MODES),
    ("size", float, REQUIRED, "[0, inf)"),
    ("power", float, 0.0, None),
    ("direction", _direction, "identity", None),
    ("odd", bool, False, None),
)
# map kind -> its rows, and bound kind -> its rows (the coefficient, then the
# kind's exponent fields); every table starts with its kind row
_MAP_KIND = ("kind", str, REQUIRED, tuple(MAP_KINDS))
MAP_FIELDS = {kind: (_MAP_KIND,) for kind in MAP_KINDS} | {
    UnitaryConjugation.kind: (_MAP_KIND, ("seed", int, None, "[0, inf)"), ("matrix", _as_matrix, None, None)),
    Perturbed.kind: (
        _MAP_KIND,
        ("base", functools.partial(_parse_map, nested=True), REQUIRED, None),
        ("perturbation", functools.partial(_fields, rows=PERTURBATION_FIELDS), REQUIRED, None),
    ),
}
_BOUND_KIND = ("kind", str, REQUIRED, tuple(BOUND_KINDS))
_COEFF = ("coeff", float, REQUIRED, "[0, inf)")
BOUND_FIELDS = {k: (_BOUND_KIND, _COEFF, *((f, float, REQUIRED, None) for f in bound_fields(k))) for k in BOUND_KINDS}


def _config_rows() -> tuple:
    """Schema, sampler, map and bound, then a row per CONFIG_FIELDS section (absent reads as {}) and top-level field."""
    sections: dict[str, list] = {}
    for path, _, *spec in CONFIG_FIELDS:
        section, _, key = path.rpartition(".")
        sections.setdefault(section, []).append((key, *spec))
    top = [("schema", _schema, REQUIRED, None), ("sampler", _sampler, SAMPLER, None)]
    top += [("map", _parse_map, None, None), ("bound", _parse_bound, None, None)]
    top += [(name, functools.partial(_fields, rows=tuple(rows)), {}, None) for name, rows in sections.items() if name]
    return (*top, *sections[""])


_CONFIG_ROWS = _config_rows()
# the CONFIG_FIELDS attributes, each typed by its row (a None default admits None)
_ConfigAttributes = make_dataclass(
    "_ConfigAttributes",
    [(attr, kind if default is not None else kind | None) for _, attr, kind, default, _ in CONFIG_FIELDS],
)


@dataclass
class ExperimentConfig(_ConfigAttributes):
    """Parsed, defaulted experiment description; one attribute per CONFIG_FIELDS row.

    ``canonical`` is the normalized dict the attributes are read from and the
    config digest is computed from; it reflects every applied default, any seed
    override and the sampler (algebra.SAMPLER) that draws the samples.
    """

    map_cfg: dict | None
    bound_cfg: dict | None
    canonical: dict

    @property
    def stabilizer(self) -> StabilizerConfig:
        return StabilizerConfig(**self.canonical["stabilizer"])

    @property
    def algebra(self) -> SimpleNamespace:
        """The algebra section as an object (``.dim``), as the benchmark's set-up probe reads it."""
        return SimpleNamespace(dim=self.dim)

    def bound_spec(self) -> PowerControl | None:
        if self.bound_cfg is None:
            return None
        return make_control(self.bound_cfg["kind"], self.bound_cfg["coeff"], self.bound_cfg)


def parse_config(raw: Any, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config dict against its row tables; raises ConfigError naming the offending field."""
    canonical = _fields(raw, "config", _CONFIG_ROWS)
    sampling = canonical["sampling"]
    if seed_override is not None:  # the config's own seed is still required and checked
        path, _, kind, _, allowed = next(row for row in CONFIG_FIELDS if row[1] == "seed")
        sampling["seed"] = _leaf(seed_override, f"config.{path}", kind, allowed)
    if sampling["dims"] is None:
        sampling["dims"] = [canonical["algebra"]["dim"]]
    repeated = sorted({d for d in sampling["dims"] if sampling["dims"].count(d) > 1})
    if repeated:  # a suite reports each dimension once, under its own name
        raise ConfigError(f"config.sampling.dims: dimension {repeated[0]} is listed more than once")
    values = {attr: functools.reduce(dict.get, path.split("."), canonical) for path, attr, *_ in CONFIG_FIELDS}
    return ExperimentConfig(**values, map_cfg=canonical["map"], bound_cfg=canonical["bound"], canonical=canonical)


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"config: invalid JSON: {exc}")
    return parse_config(raw, seed_override=seed_override)


@contextmanager
def _refusals_named(path: str):
    """Re-raise a map class's refusal (a ValueError) as a ConfigError naming the field.

    An SVD that does not converge (LinAlgError, also a ValueError) is a
    numerical failure, not a refusal, and passes through.
    """
    try:
        yield
    except (ConfigError, np.linalg.LinAlgError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _matrix_element(rows: list[list[list[float]]], dim: int, path: str) -> np.ndarray:
    arr = np.array(rows, dtype=float).view(np.complex128)[..., 0]
    if arr.shape[0] != dim:
        raise ConfigError(f"{path}: dimension {arr.shape[0]} incompatible with requested dim {dim}")
    return arr


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
        perturbation = Perturbation(**p | {"direction": direction})
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


def _check_dict(check: CheckReport) -> dict:
    """A check's fields and its witness's, copied one level deep (dataclasses.asdict copies every leaf)."""
    row = dict(vars(check))
    if check.worst_witness is not None:
        row["worst_witness"] = dict(vars(check.worst_witness))
    return row


def report_dict(summary: RunSummary, timestamp: str | None = None) -> dict:
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    return {
        "schema": REPORT_SCHEMA,
        "command": summary.command,
        "config_digest": summary.config_digest,
        "timestamp": timestamp,
        "seed": summary.seed,
        "meta": summary.meta,
        "checks": [_check_dict(c) for c in summary.checks],
        "samples": summary.sample_rows,
        "verdict": summary.verdict,
        "exit_code": summary.exit_code,
    }


def report_json_bytes(summary: RunSummary, timestamp: str | None = None) -> bytes:
    return json.dumps(report_dict(summary, timestamp), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _sample_rows(columns: dict[str, Any]) -> list[dict]:
    """Report rows from an ordered dict of equal-length columns, one row per position.

    An array column is read with ``.tolist()`` (a 2-D array gives each row a
    list), any other column is a sequence of row values.
    """
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values, strict=True)]


def _global_verdict(checks: list[CheckReport]) -> str:
    return "satisfied" if all(c.verdict == "satisfied" for c in checks) else "violated"


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


# The work budgets; a config beyond one exits 3 before any array is allocated.
# A sampled command may draw at most SAMPLE_WORK_BUDGET matrix entries:
# samples × the sum of dim² over its dimensions × the streams it draws.  Its
# phase grid, of G <= 4 + phase_grid_size phases, is held to the same budget:
# a lemma grid row stacks samples × G matrices per dimension, and the
# stability command stabilizes (4 + G) points per exactness sample.
# 10**7 complex entries are 160 MB for the drawn stacks alone.
SAMPLE_WORK_BUDGET = 10**7
# The most series terms (cells × terms) a bounds table may evaluate.  A
# (direction, exponent) group holds (coeffs, norms, terms) floats in each of
# its temporaries, so none exceeds 10**7 floats (80 MB).
TABLE_WORK_BUDGET = 10**7


def _refuse_oversized_draws(rows: int, dims: list[int], path: str = "config.sampling", kind: str = "sampled") -> None:
    """Raise ConfigError at ``path`` when ``rows`` matrices per dimension of ``dims`` exceed the budget."""
    entries = sum(d * d for d in dims)
    if rows * entries > SAMPLE_WORK_BUDGET:
        raise ConfigError(
            f"{path}: {rows} {kind} matrices × {entries} entries exceed the work budget of "
            f"{SAMPLE_WORK_BUDGET} sampled entries"
        )


def _single_dim(config: ExperimentConfig) -> int:
    """algebra.dim, for a command that runs at no other dimension; a sampling.dims naming others is refused."""
    if config.dims != [config.dim]:
        raise ConfigError(
            f"{_field_path('dims')}: this command runs at algebra.dim only, so it must be [{config.dim}] or absent, "
            f"got {config.dims}"
        )
    return config.dim


def cmd_lemma_check(config: ExperimentConfig) -> RunSummary:
    """Per dimension: the additivity proof ladder, the telescoping equality and the
    unit-scalar substitution checks over the phase grid."""
    map_cfg = _require_map(config)
    streams = {s for c in CHECKS.values() for s in c.streams.values()}
    _refuse_oversized_draws(config.samples * len(streams), config.dims)
    grid_rows = config.samples * (4 + config.phase_grid_size)  # G phases per sample, checked before the grid is built
    _refuse_oversized_draws(grid_rows, config.dims, _field_path("phase_grid_size"), "phase-grid")
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
        for r in reports:
            r.name = f"dim{dim}/{r.name}"
        checks.extend(reports)
    return _summary("lemma-check", config, meta, checks, [])


def _stopping_residuals(results: list[StabilizationResult]) -> tuple[np.ndarray, np.ndarray]:
    """Each run's last two Cauchy residuals (r_prev, r_last) from one spectral_norms call.

    r_prev is None for a run that stopped at n = 1, which has one residual.
    """
    r_prev, r_last = spectral_norms(np.stack([r.differences for r in results])).T
    return np.where([r.iterations_used > 1 for r in results], r_prev, None), r_last


def cmd_stability(config: ExperimentConfig) -> RunSummary:
    """Stabilize the samples and the exactness points in one run, calibrate, certify, check the limit map."""
    map_cfg = _require_map(config)
    template = config.bound_spec()
    if template is None:
        raise ConfigError("config.bound: required for the stability command")
    dim = _single_dim(config)
    # the samples, the calibration draws (three streams, six with a sweep) and the two exactness streams
    calib_samples = max(config.samples, 10)
    calib_streams = 3 if config.calibration_sweep is None else 6
    _refuse_oversized_draws(config.samples + calib_streams * calib_samples + 2 * config.exactness_samples, [dim])
    grid_rows = config.exactness_samples * (8 + config.phase_grid_size)  # 4 + G exactness points per sample
    _refuse_oversized_draws(grid_rows, [dim], _field_path("phase_grid_size"), "phase-grid")
    f = build_map(map_cfg, dim)
    direction = resolve_direction(f, config.stabilizer)
    if direction is None:
        raise ConfigError(
            f"{_field_path('stabilizer_direction')}: set forward or backward explicitly for maps "
            "without a perturbation exponent"
        )
    try:  # the calibrated control keeps the template's exponents, so this covers both bounds
        validate_control_direction(template, direction)
    except ControlDirectionError as exc:
        raise ConfigError(f"config.bound: {exc}")
    meta: dict[str, Any] = {"map": describe(f), "direction": direction, "dim": dim}

    norms_a = np.empty(config.samples)
    A = random_elements(config.seed, config.samples, dim, config.norm_cap, stream=60, norms_out=norms_a)
    # The exactness points are drawn up front, so one lockstep run evaluates the limit at the samples and at them.
    exact_cap = 1.0 if config.norm_cap <= 0.0 else min(config.norm_cap, 1.0)
    phases = unit_circle_grid(config.phase_grid_size)
    points, norms_points = jordan_star_points(
        dim, config.exactness_samples, derived_seed(config.seed, 8), norm_cap=exact_cap, phases=phases
    )
    runs = stabilize_batch(
        f, np.concatenate([A, points]), config.stabilizer, norms=np.concatenate([norms_a, norms_points])
    )
    results, limit_runs = runs[: config.samples], runs[config.samples :]
    scales = 1.0 + norms_a
    status = np.array([r.status for r in results])
    r_prev, r_last = _stopping_residuals(results)
    columns: dict[str, Any] = {
        "sample_id": range(config.samples),
        "norm_a": norms_a,
        "iterations": [r.iterations_used for r in results],
        "status": status,
        "r_prev": r_prev,
        "r_last": r_last,
    }

    diverged = int(np.count_nonzero(status == "diverged"))
    if diverged:
        meta["diverged_samples"] = diverged
        reason = f"{diverged} of {len(results)} stabilization runs diverged"
        return _summary("stability", config, meta, [], _sample_rows(columns), verdict="diverged", reason=reason)

    exhausted = int(np.count_nonzero(status == "exhausted"))
    if exhausted:
        meta["exhausted_samples"] = exhausted
    checks: list[CheckReport] = []

    try:
        calibrated = calibrate_control(
            f,
            template,
            derived_seed(config.seed, 7),
            calib_samples,
            norm_cap=config.norm_cap,
            sweep_factor=config.calibration_sweep,
        )
    except CalibrationError as exc:
        meta["calibration_error"] = str(exc)
        return _summary("stability", config, meta, [], _sample_rows(columns), verdict="violated")
    meta["calibrated_coeff"] = calibrated.coeff

    limits = np.stack([r.limit for r in results])
    dists = spectral_norms(limits - apply_array(f, A, norms_a))
    columns["dist"] = dists
    # check name -> (control, bound column); a declared coeff of zero declares no bound
    certificates = {"bound_certificate": (calibrated, "bound")}
    if template.coeff > 0.0:
        certificates["declared_bound"] = (template, "declared_bound")
    # An exhausted sample's dist is measured from its last iterate, not a
    # limit, so only converged samples are certified; witnesses keep sample ids.
    converged = np.flatnonzero(status == "converged")
    dists_c, scales_c = dists[converged], scales[converged]
    witness = {"norms": {"a": norms_a[converged]}, "ids": converged}
    for name, (control, column) in certificates.items():
        bounds = columns[column] = bound_closed_form(control, norms_a, direction)
        if converged.size:
            checks.append(_build_report(name, dists_c, bounds[converged], scales_c, config.checks_tol, **witness))
    rows = _sample_rows(columns)

    # Exactness of the recovered limit map, at the limits of the exactness points.
    unconverged = sum(1 for r in limit_runs if not r.converged)
    if unconverged:  # the report keeps the rows and checks built so far
        meta["exactness_error"] = f"{unconverged} of {len(limit_runs)} limit evaluations did not converge"
        reason = f"exactness check: {meta['exactness_error']}"
        return _summary("stability", config, meta, checks, rows, verdict="diverged", reason=reason)
    defects = jordan_star_laws(np.stack([r.limit for r in limit_runs]), phases)
    # Uniqueness: the exact base of f is a Jordan *-homomorphism within the
    # control distance of f, so the limit must equal it on every converged sample.
    if converged.size:
        base = f.base if isinstance(f, Perturbed) else f
        residuals = limits[converged] - apply_array(base, A[converged])
        defects["uniqueness"] = spectral_norms(residuals) / scales[converged]
    names = sorted(defects)
    meta["recovered_defects"] = {k: float(np.max(defects[k])) for k in names}
    # One value per law and sample, judged together; the values come from two
    # sample sets (exactness draws, converged samples), so no witness is named.
    law_values = np.concatenate([defects[k] for k in names])
    checks.append(_build_report("recovered_exactness", law_values, 0.0, 1.0, config.exactness_tol))

    if exhausted:  # the stabilizer's own stopping rule, over every sample: r_last <= tol * (1 + ||a||)
        tol = config.stabilizer_tol
        checks.append(_build_report("all_samples_converged", r_last, 0.0, scales, tol, norms={"a": norms_a}))
    return _summary("stability", config, meta, checks, rows)


# How far above its target a fitted decay slope may lie: decay_slope holds slope <= target + SLOPE_MARGIN
SLOPE_MARGIN = 0.1


def cmd_superstability(config: ExperimentConfig) -> RunSummary:
    """Decay-sequence experiment: slope and terminal-value assertions."""
    map_cfg = _require_map(config)
    dim = _single_dim(config)
    _refuse_oversized_draws(config.samples, [dim])
    _refuse_oversized_draws(config.samples * config.decay_n_max, [dim], _field_path("decay_n_max"), "decay-sequence")
    f = build_map(map_cfg, dim)
    meta: dict[str, Any] = {"map": describe(f), "dim": dim, "n_max": config.decay_n_max}

    exponent = None
    if isinstance(f, Perturbed) and f.perturbation.mode == "power":
        exponent = f.perturbation.power
    shrink = exponent is not None and exponent > 1.0
    meta["variant"] = "shrinking" if shrink else "growing"
    if exponent is not None:
        meta["defect_exponent"] = exponent

    norms_a = np.empty(config.samples)
    A = random_elements(config.seed, config.samples, dim, config.norm_cap, stream=70, norms_out=norms_a)
    scales = 1.0 + norms_a
    decay_batch = superstability_shrinking_batch if shrink else superstability_decay_batch
    decay = decay_batch(f, A, config.decay_n_max, norms=norms_a)

    tol = config.decay_terminal_tol
    checks = [_build_report("terminal_decay", decay[:, -1], 0.0, scales, tol, norms={"a": norms_a})]

    # Only rows whose defect is above noise scale are fitted.  A row gets a
    # slope only from a successful fit: null when it is not fitted or its fit
    # fails; a failed fit still enters the decay_slope check as +inf.
    peaks = np.max(decay, axis=1)
    fitted = np.flatnonzero(peaks > 1e-9 * scales)
    slopes = fit_loglog_slope(decay[fitted])
    row_slopes = np.full(config.samples, np.inf)
    row_slopes[fitted] = slopes

    if fitted.size and exponent is not None:
        target = 2.0 * exponent - 2.0 if not shrink else 2.0 - 2.0 * exponent
        meta["slope_target"] = target
        bound = target + SLOPE_MARGIN
        checks.append(_build_report("decay_slope", slopes, bound, 1.0, 0.0, norms={"a": norms_a[fitted]}, ids=fitted))
    elif fitted.size:  # no exponent to aim at: judge the noise-floor test that fits a row, so any fitted row violates
        checks.append(_build_report("decay_slope", peaks, 0.0, scales, 1e-9, norms={"a": norms_a}))

    columns = {
        "sample_id": range(config.samples),
        "norm_a": norms_a,
        "slope": np.where(np.isfinite(row_slopes), row_slopes, None),
        "sequence": decay,
    }
    return _summary("superstability", config, meta, checks, _sample_rows(columns))


def cmd_bounds_table(config: ExperimentConfig) -> RunSummary:
    """Closed-form vs truncated-series bound table over a parameter grid.

    Each (direction, exponent) group is the PowerControl with that exponent
    in all three slots: one bound_closed_form and one bound_series_truncated
    call over its whole coefficient × norm grid (a coefficient column against
    the norm array).  The rows run in that order: group (backward exponents,
    then forward exponents), coefficient, norm.  A row agrees when the
    truncated series plus its tail estimate meets the closed form, so a short
    series is not read as a wrong closed form.  The profile degree feeds only
    profile_power_consistency: the forward closed forms of the catalog's
    profile and power kinds at that degree, on the same coefficient × norm grid.
    """
    groups = [(BACKWARD, exp) for exp in config.table_exps_backward]
    groups += [(FORWARD, exp) for exp in config.table_exps_forward]
    grid = (len(groups), len(config.table_coeffs), len(config.table_norms))
    cells = math.prod(grid)
    if cells * config.table_terms > TABLE_WORK_BUDGET:
        raise ConfigError(
            f"config.bounds_table: {cells} cells × {config.table_terms} terms exceed the work budget of "
            f"{TABLE_WORK_BUDGET} series terms"
        )
    norms_a = np.array(config.table_norms, dtype=float)
    coeffs = np.array(config.table_coeffs, dtype=float)[:, np.newaxis]
    values = []
    for direction, exp in groups:
        spec = PowerControl(coeffs, exp, exp, exp)
        closed = bound_closed_form(spec, norms_a, direction)
        values.append((closed, *bound_series_truncated(spec, norms_a, direction, config.table_terms)))
    group, coeff, norm = np.unravel_index(np.arange(cells), grid)
    closed, series, tail = (np.array(v).ravel() for v in zip(*values))
    rel = np.abs(closed - (series + tail)) / np.maximum(np.abs(closed), 1e-300)
    directions, exps = (np.array(column)[group].tolist() for column in zip(*groups))
    columns = {"direction": directions, "coeff": coeffs[coeff, 0], "exponent": exps, "norm_a": norms_a[norm]}
    columns |= {"closed_form": closed, "series": series, "tail_estimate": tail, "rel_err": rel}

    degree = config.table_profile_degree  # the catalog's profile and power kinds, every exponent at this degree
    profile, power = (
        bound_closed_form(make_control(kind, coeffs, dict.fromkeys(bound_fields(kind), degree)), norms_a, FORWARD)
        for kind in ("profile", "power")
    )
    consistency = (np.abs(profile - power) / np.maximum(np.abs(power), 1e-300)).ravel()
    checks = [_build_report("series_closed_form_agreement", rel, 0.0, 1.0, 1e-9, norms={"norm_a": columns["norm_a"]})]
    checks.append(_build_report("profile_power_consistency", consistency, 0.0, 1.0, 1e-12))
    return _summary("bounds-table", config, {"terms": config.table_terms}, checks, _sample_rows(columns))

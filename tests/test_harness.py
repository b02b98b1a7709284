"""Harness and CLI tests: config validation, exit codes, determinism, formats."""

import copy
import json
import math
import re
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab import algebra, cli, harness, mappings, stabilizer
from stablab.algebra import SAMPLER
from stablab.checkers import CheckReport, Witness
from stablab.cli import main as cli_main
from stablab.harness import (
    BOUND_FIELDS,
    CONFIG_FIELDS,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATED,
    MAP_FIELDS,
    PERTURBATION_FIELDS,
    REQUIRED,
    SLOPE_MARGIN,
    ConfigError,
    build_map,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    config_digest,
    load_config,
    parse_config,
    report_dict,
    report_json_bytes,
)
from stablab.mappings import (
    DIM_ONLY_ACTIONS,
    MAP_KINDS,
    PERTURBATION_MODES,
    UNIT_DIRECTIONS,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    unit_circle_grid,
)
from stablab.stabilizer import (
    BOUND_KINDS,
    PowerControl,
    bound_closed_form,
    bound_series_truncated,
)


def minimal_config(**overrides):
    cfg = {
        "schema": 1,
        "algebra": {"dim": 3},
        "map": {"kind": "transpose"},
        "sampling": {"seed": 7, "samples": 50, "norm_cap": 5.0},
    }
    cfg.update(overrides)
    return cfg


BACKWARD_CONSTANT = {
    "schema": 1,
    "algebra": {"dim": 3},
    "map": {
        "kind": "perturbed",
        "base": {"kind": "identity"},
        "perturbation": {"mode": "constant", "size": 0.5, "direction": "identity"},
    },
    "bound": {"kind": "constant", "coeff": 0.5},
    "sampling": {"seed": 77, "samples": 30, "norm_cap": 10.0},
    "exactness": {"samples": 12, "tol": 1e-8},
}

# A stability row's keys in column order: a run's columns, then, for a
# certified run, its distance and bound columns.
RUN_ROW_KEYS = ("sample_id", "norm_a", "iterations", "status", "r_prev", "r_last")
CERTIFIED_ROW_KEYS = RUN_ROW_KEYS + ("dist", "bound", "declared_bound")

# A control a forward run can certify (exponents above one); the constant
# control of BACKWARD_CONSTANT is refused for forward runs before any sampling.
FORWARD_BOUND = {"kind": "profile", "coeff": 0.5, "degree": 2.0}

BOUNDS_TABLE = {"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}}

# A config file that names no map, which every command but bounds-table needs.
NO_MAP = json.dumps({"schema": 1, "algebra": {"dim": 3}, "sampling": {"seed": 7, "samples": 5}}).encode()

# A growing decay whose slope fit starts at n = 4 and needs two points, so n_max >= 5.
POWER_DECAY = {
    "schema": 1,
    "algebra": {"dim": 3},
    "map": {
        "kind": "perturbed",
        "base": {"kind": "zero"},
        "perturbation": {"mode": "power", "size": 1e-2, "power": 0.9},
    },
    "sampling": {"seed": 4, "samples": 5},
}

README = Path(__file__).resolve().parent.parent / "README.md"
P05_CONFIG = README.parent / "configs" / "superstability_p05.json"
FORWARD_POWER_CONFIG = README.parent / "configs" / "stability_forward_power.json"
BACKWARD_CONSTANT_CONFIG = README.parent / "configs" / "stability_backward_constant.json"
DEFAULT_TABLE_CONFIG = README.parent / "configs" / "bounds_table_default.json"


def run_cli(capsys, argv):
    """Exit code and stderr lines of one CLI run; a Python warning counts as the line it would print."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(argv)
    return code, capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]


def strict_json(body):
    """Parse report bytes, rejecting the non-standard constants NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(body, parse_constant=reject)


def set_path(cfg, path, value):
    """Set a dotted config path, creating sections on the way."""
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return cfg


# One config per catalog map kind, plus both unitary forms and every
# perturbation mode with each named direction and a matrix direction.
EVERY_KIND_MAPS = [
    *({"kind": kind} for kind, cls in MAP_KINDS.items() if cls in DIM_ONLY_ACTIONS),
    {"kind": "unitary_conjugation", "seed": 9},
    {"kind": "unitary_conjugation", "matrix": [[0, [0, 1], 0], [0, 0, -1], [1, 0, 0]]},
    *(
        {
            "kind": "perturbed",
            "base": {"kind": "negation"},
            "perturbation": {"mode": mode, "size": 0.3, "power": 1.5, "direction": direction, "odd": True},
        }
        for mode in PERTURBATION_MODES
        for direction in [*UNIT_DIRECTIONS, [[0, [0, 0.5], 0], [0, 0, 0], [0.5, 0, 0]]]
    ),
]
# One bound config per catalog control kind, with the control it must build.
BOUND_CASES = {
    "power": ({"kind": "power", "coeff": 0.5, "exp1": 0.5, "exp2": 0.25, "exp3": 2}, PowerControl(0.5, 0.5, 0.25, 2.0)),
    "profile": ({"kind": "profile", "coeff": 0.1, "degree": 2.5}, PowerControl(0.1, 2.5, 2.5, 2.5)),
    "constant": ({"kind": "constant", "coeff": 0.5}, PowerControl(0.5, 0.0, 0.0, 0.0)),
}


class TestConfigValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            parse_config(minimal_config(bogus=1))

    def test_unknown_nested_field(self):
        cfg = minimal_config()
        cfg["sampling"]["extra"] = 2
        with pytest.raises(ConfigError, match="config.sampling.extra"):
            parse_config(cfg)

    def test_removed_norm_tol_rejected(self):
        cfg = minimal_config()
        cfg["algebra"]["norm_tol"] = 1e-12
        with pytest.raises(ConfigError, match="config.algebra.norm_tol"):
            parse_config(cfg)

    def test_missing_seed(self):
        cfg = minimal_config()
        del cfg["sampling"]["seed"]
        with pytest.raises(ConfigError, match="config.sampling.seed"):
            parse_config(cfg)

    @pytest.mark.parametrize("version", [2, True, 1.0])
    def test_bad_schema_version(self, version):
        with pytest.raises(ConfigError, match="config.schema: unsupported version"):
            parse_config(minimal_config(schema=version))

    def test_missing_schema(self):
        cfg = minimal_config()
        del cfg["schema"]
        with pytest.raises(ConfigError, match="config.schema"):
            parse_config(cfg)

    def test_bad_map_kind(self):
        with pytest.raises(ConfigError, match="config.map.kind"):
            parse_config(minimal_config(map={"kind": "wibble"}))

    def test_nested_perturbed_rejected(self):
        inner = {
            "kind": "perturbed",
            "base": {"kind": "identity"},
            "perturbation": {"mode": "constant", "size": 0.1},
        }
        with pytest.raises(ConfigError, match="perturbed maps do not nest"):
            parse_config(
                minimal_config(
                    map={"kind": "perturbed", "base": inner, "perturbation": {"mode": "constant", "size": 0.1}}
                )
            )

    @pytest.mark.parametrize("path", ["map", "map.base"])
    def test_unitary_map_gives_exactly_one_of_seed_and_matrix(self, path):
        def config(unitary):
            if path == "map":
                return minimal_config(algebra={"dim": 2}, map=unitary)
            perturbation = {"mode": "constant", "size": 0.1}
            return minimal_config(algebra={"dim": 2}, map={"kind": "perturbed", "base": unitary, "perturbation": perturbation})

        swap = [[0, 1], [1, 0]]
        for unitary in ({"kind": "unitary_conjugation", "seed": 3, "matrix": swap}, {"kind": "unitary_conjugation"}):
            with pytest.raises(ConfigError, match=rf"^config\.{path}: expected exactly one of seed and matrix$"):
                parse_config(config(unitary))
        # a seed given next to a matrix is read and checked, not dropped
        with pytest.raises(ConfigError, match=rf"^config\.{path}\.seed: expected an integer, got str$"):
            parse_config(config({"kind": "unitary_conjugation", "seed": "abc", "matrix": swap}))
        # an explicit null counts as absent, and the canonical map keeps only the key given
        for key, other, value in (("seed", "matrix", 3), ("matrix", "seed", swap)):
            cfg = parse_config(config({"kind": "unitary_conjugation", key: value, other: None}))
            assert sorted(cfg.map_cfg if path == "map" else cfg.map_cfg["base"]) == ["kind", key]

    def test_bad_matrix_literal(self):
        with pytest.raises(ConfigError, match=r"config.map.matrix\[0\]"):
            parse_config(minimal_config(map={"kind": "unitary_conjugation", "matrix": [[1, 0]]}))

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigError, match="config.sampling.samples"):
            parse_config(minimal_config(sampling={"seed": 1, "samples": "many"}))

    def test_negative_dims_rejected(self):
        cfg = minimal_config()
        cfg["sampling"]["dims"] = [2, 0]
        with pytest.raises(ConfigError, match=r"config.sampling.dims\[1\]"):
            parse_config(cfg)

    def test_repeated_dims_rejected(self):
        cfg = minimal_config()
        cfg["sampling"]["dims"] = [2, 3, 2]
        with pytest.raises(ConfigError, match=r"^config.sampling.dims: dimension 2 is listed more than once$"):
            parse_config(cfg)
        cfg["sampling"]["dims"] = [3, 2]
        assert parse_config(cfg).dims == [3, 2]

    def test_defaults_applied(self):
        cfg = parse_config(minimal_config())
        assert cfg.stabilizer.max_iter == 64
        assert cfg.phase_grid_size == 16
        assert cfg.dims == [3]
        assert cfg.calibration_sweep is None
        nulls = minimal_config(bound=None, calibration={"sweep_factor": None}, stabilizer={"tol": None})
        nulls["sampling"]["dims"] = None
        assert parse_config(nulls).canonical == cfg.canonical

    def test_seed_override_changes_digest(self):
        base = parse_config(minimal_config())
        overridden = parse_config(minimal_config(), seed_override=1234)
        assert overridden.seed == 1234
        assert config_digest(base) != config_digest(overridden)

    def test_digest_names_the_sampler(self):
        cfg = parse_config(minimal_config())
        assert cfg.canonical["sampler"] == SAMPLER
        assert parse_config(minimal_config(sampler=SAMPLER)).canonical == cfg.canonical
        with pytest.raises(ConfigError, match="config.sampler: unsupported sampler 'mt19937'"):
            parse_config(minimal_config(sampler="mt19937"))


class TestBuildMap:
    def test_dim_generic_kinds(self):
        cfg = parse_config(minimal_config())
        for dim in (2, 3, 4):
            assert isinstance(build_map(cfg.map_cfg, dim), Transpose)

    def test_unitary_from_seed(self):
        cfg = parse_config(minimal_config(map={"kind": "unitary_conjugation", "seed": 5}))
        f = build_map(cfg.map_cfg, 3)
        assert isinstance(f, UnitaryConjugation)

    def test_explicit_matrix_dim_mismatch(self):
        cfg = parse_config(
            minimal_config(map={"kind": "unitary_conjugation", "matrix": [[1, 0], [0, 1]]})
        )
        with pytest.raises(ConfigError, match="incompatible"):
            build_map(cfg.map_cfg, 3)

    def test_perturbed_with_explicit_direction(self):
        cfg = parse_config(
            minimal_config(
                map={
                    "kind": "perturbed",
                    "base": {"kind": "identity"},
                    "perturbation": {
                        "mode": "constant",
                        "size": 0.2,
                        "direction": [[0, 1], [0, 0]],
                    },
                }
            )
        )
        f = build_map(cfg.map_cfg, 2)
        assert isinstance(f, Perturbed)

    def test_every_map_kind_builds_from_config_and_evaluates(self):
        from stablab.algebra import random_element
        from stablab.mappings import apply_array

        assert {raw["kind"] for raw in EVERY_KIND_MAPS} == set(MAP_KINDS)
        for raw in EVERY_KIND_MAPS:
            f = build_map(parse_config(minimal_config(map=raw)).map_cfg, 3)
            assert type(f) is MAP_KINDS[raw["kind"]]
            for seed in range(5):
                value = apply_array(f, random_element(seed, 3, 2.0)[np.newaxis])
                assert value.shape == (1, 3, 3) and np.all(np.isfinite(value))


class TestBoundSpec:
    @pytest.mark.parametrize("kind", sorted(BOUND_KINDS))
    def test_bound_spec_from_catalog_row(self, kind):
        raw, expected = BOUND_CASES[kind]
        spec = parse_config(minimal_config(bound=raw)).bound_spec()
        assert type(spec) is type(expected)
        assert spec == expected


class TestExitCodes:
    def test_lemma_exact_map_exit_zero(self):
        summary = cmd_lemma_check(parse_config(minimal_config()))
        assert summary.exit_code == EXIT_OK
        assert summary.verdict == "satisfied"

    def test_lemma_affine_shift_exit_one(self):
        cfg = parse_config(
            minimal_config(
                map={
                    "kind": "perturbed",
                    "base": {"kind": "identity"},
                    "perturbation": {"mode": "affine", "size": 1.0, "direction": "identity"},
                }
            )
        )
        summary = cmd_lemma_check(cfg)
        assert summary.exit_code == EXIT_VIOLATED
        first = summary.checks[0]
        assert first.name.endswith("zero_at_zero")
        assert first.verdict == "violated"
        assert first.max_residual == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_config_naming_the_removed_phase_sweep_exits_config_error(self, tmp_path, capsys, flag):
        # the report-only sweep is gone, so its switch is an unknown field either way
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(checks={"tol": 1e-9, "phase_sweep": flag})))
        code, err = run_cli(capsys, ["lemma-check", "--config", str(cfg_path)])
        assert (code, err) == (EXIT_CONFIG, ["config error: config.checks.phase_sweep: unknown field"])

    def test_lemma_tiny_perturbation_within_loose_tolerance(self):
        cfg = parse_config(
            minimal_config(
                map={
                    "kind": "perturbed",
                    "base": {"kind": "identity"},
                    "perturbation": {"mode": "constant", "size": 1e-6, "direction": "identity"},
                },
                checks={"tol": 1e-3},
            )
        )
        summary = cmd_lemma_check(cfg)
        assert summary.exit_code == EXIT_OK

    def test_stability_exit_zero(self):
        summary = cmd_stability(parse_config(dict(BACKWARD_CONSTANT)))
        assert summary.exit_code == EXIT_OK
        assert all(r["bound"] - r["dist"] >= 0 for r in summary.sample_rows)

    def test_stability_divergence_exit_two(self):
        cfg = dict(BACKWARD_CONSTANT, bound=FORWARD_BOUND)
        cfg["stabilizer"] = {"direction": "forward"}
        summary = cmd_stability(parse_config(cfg))
        assert summary.exit_code == EXIT_DIVERGED
        assert summary.verdict == "diverged"
        assert all(r["status"] == "diverged" for r in summary.sample_rows)

    def test_stability_requires_bound(self):
        cfg = dict(BACKWARD_CONSTANT)
        del cfg["bound"]
        with pytest.raises(ConfigError, match="config.bound"):
            cmd_stability(parse_config(cfg))

    def test_stability_requires_direction_for_exact_maps(self):
        cfg = dict(BACKWARD_CONSTANT)
        cfg["map"] = {"kind": "transpose"}
        with pytest.raises(ConfigError, match="config.stabilizer.direction"):
            cmd_stability(parse_config(cfg))

    @pytest.mark.parametrize(
        "bound, stabilizer, message",
        [
            # a constant control cannot certify a forward run, whose samples all diverge
            ({"kind": "constant", "coeff": 0.5}, {"direction": "forward"}, "forward series needs exponents > 1"),
            # the constant map resolves to backward, which a degree-2 control cannot certify
            (FORWARD_BOUND, {}, "backward series needs exponents < 1"),
        ],
        ids=["forward-constant", "backward-degree2"],
    )
    def test_stability_refuses_a_bound_against_the_direction_before_sampling(
        self, tmp_path, capsys, monkeypatch, bound, stabilizer, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("stabilize_batch called")

        monkeypatch.setattr(harness, "stabilize_batch", never)
        cfg = dict(BACKWARD_CONSTANT, bound=bound, stabilizer=stabilizer)
        cfg["sampling"] = dict(cfg["sampling"], samples=200)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, err = run_cli(capsys, ["stability", "--config", str(cfg_path)])
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(f"config error: config.bound: {message}")

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_config()))
        assert cli_main(["lemma-check", "--config", str(good)]) == EXIT_OK

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_config(bogus=1)))
        assert cli_main(["lemma-check", "--config", str(bad)]) == EXIT_CONFIG

        assert cli_main(["lemma-check", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        assert cli_main(["stability"]) == EXIT_CONFIG

        divergent = tmp_path / "div.json"
        cfg = dict(BACKWARD_CONSTANT, bound=FORWARD_BOUND)
        cfg["stabilizer"] = {"direction": "forward"}
        divergent.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert cli_main(["stability", "--config", str(divergent)]) == EXIT_DIVERGED
        assert capsys.readouterr().err.splitlines() == ["diverged: 30 of 30 stabilization runs diverged"]

    @pytest.mark.parametrize(
        "argv, body, line",
        [
            (["lemma-check"], b'{"schema": 1,', "config error: config: invalid JSON: "),
            (
                ["lemma-check"],
                b'{"schema": 1, "x": "\xff"}',
                "config error: config: invalid JSON: 'utf-8' codec can't decode byte 0xff in position 20",
            ),
            *(
                ([command], NO_MAP, "config error: config.map: required for this command")
                for command in ("lemma-check", "stability", "superstability")
            ),
            (["bounds-table"], None, "config error: --config: required by every command"),
            (["bounds-table", "--seed", "1"], None, "config error: --config: required by every command"),
            ([], None, "config error: the following arguments are required: command"),
            (["lemma-check", "--bogus"], None, "config error: unrecognized arguments: --bogus"),
            (["lemma-check", "--seed", "x"], NO_MAP, "config error: argument --seed: invalid int value: 'x'"),
            (["lemma-check", "--format", "csv"], NO_MAP, "config error: unrecognized arguments: --format csv"),
        ],
        ids=[
            "malformed-json",
            "not-utf8",
            "lemma-no-map",
            "stability-no-map",
            "superstability-no-map",
            "no-config",
            "seed-no-config",
            "no-subcommand",
            "unknown-flag",
            "seed-not-int",
            "format-no-out",
        ],
    )
    def test_cli_config_errors_print_one_line(self, tmp_path, capsys, argv, body, line):
        if body is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_bytes(body)
            argv = [*argv, "--config", str(cfg_path)]
        code, err = run_cli(capsys, argv)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith(line)

    def test_cli_help_exits_0(self, capsys):
        # help is not a usage error: argparse prints it and exits 0
        with pytest.raises(SystemExit) as exc:
            cli_main(["-h"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: stablab")

    @pytest.mark.parametrize("tol, code", [(1e-9, EXIT_VIOLATED), (1e-6, EXIT_OK)])
    def test_stability_certificates_are_judged_at_checks_tol(self, tmp_path, capsys, tol, code):
        # a declared coeff 5e-9 below the perturbation: declared_bound's worst excess is 4.95e-9
        raw = json.loads(BACKWARD_CONSTANT_CONFIG.read_text())
        set_path(raw, "bound.coeff", 0.5 - 5e-9)
        set_path(raw, "checks.tol", tol)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert run_cli(capsys, ["stability", "--config", str(cfg_path)]) == (code, [])

    @pytest.mark.parametrize(
        "map_cfg",
        [
            *({"kind": k} for k, cls in MAP_KINDS.items() if cls in DIM_ONLY_ACTIONS),
            {"kind": "unitary_conjugation", "seed": 17},
        ],
        ids=lambda map_cfg: map_cfg["kind"],
    )
    def test_exact_maps_are_satisfied_at_the_tolerance_floor(self, map_cfg):
        for norm_cap in (10.0, 1e100):
            raw = minimal_config(map=map_cfg, checks={"tol": 1e-13})
            raw["sampling"] = {"seed": 20250809, "samples": 200, "norm_cap": norm_cap, "dims": [2, 3, 4, 8]}
            summary = cmd_lemma_check(parse_config(raw))
            assert summary.verdict == "satisfied", [c.name for c in summary.checks if c.verdict == "violated"]

    @pytest.mark.parametrize("config", [BACKWARD_CONSTANT_CONFIG, FORWARD_POWER_CONFIG])
    def test_shipped_stability_configs_are_certified_at_the_tolerance_floor(self, config):
        raw = set_path(json.loads(config.read_text()), "checks.tol", 1e-13)
        assert cmd_stability(parse_config(raw)).exit_code == EXIT_OK

    def test_memory_error_exits_config_error(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(harness, "random_elements", too_large)
        code, err = run_cli(capsys, ["stability", "--config", str(BACKWARD_CONSTANT_CONFIG)])
        assert code == EXIT_CONFIG
        assert err == [
            "config error: config: the run needs more memory than is available (Unable to allocate 7.11 PiB)"
        ]


class TestSampleWorkBudget:
    """A sampled command draws at most SAMPLE_WORK_BUDGET matrix entries, and refuses a larger config before any draw.

    Its phase grid is held to the same budget, so the draw cases run on the
    smallest grid, whose matrices stay below the draws'.
    """

    # command, config, matrices per dimension, the sum of dim^2 over the dimensions, and the refusal's
    # field and kind; superstability's 5 samples × 64 decay-sequence terms bind before its 5 draws do
    CASES = {
        "lemma-check": (
            minimal_config(sampling={"seed": 7, "samples": 5, "dims": [2, 3]}, phase_grid_size=0),
            5 * 9,
            4 + 9,
            "sampling",
            "sampled",
        ),
        # 30 samples, 3 calibration streams of 30, 2 exactness streams of 12
        "stability": (dict(BACKWARD_CONSTANT, phase_grid_size=0), 30 + 3 * 30 + 2 * 12, 9, "sampling", "sampled"),
        "superstability": (POWER_DECAY, 5 * 64, 9, "superstability.n_max", "decay-sequence"),
    }
    # command, config, the phase-grid matrices per dimension and the sum of dim^2 over the dimensions:
    # 5 samples on each of at most 4 + 8 phases, and 12 exactness samples of 4 + (4 + 8) points each
    GRID_CASES = {
        "lemma-check": (
            minimal_config(sampling={"seed": 7, "samples": 5, "dims": [2, 3]}, phase_grid_size=8), 5 * 12, 4 + 9
        ),
        "stability": (dict(BACKWARD_CONSTANT, phase_grid_size=8), 12 * 16, 9),
    }

    @staticmethod
    def _run(tmp_path, capsys, command, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return run_cli(capsys, [command, "--config", str(cfg_path)])

    @pytest.mark.parametrize("command", CASES)
    @pytest.mark.parametrize("over", [False, True], ids=["at", "over"])
    def test_budget_bounds_drawn_entries(self, tmp_path, capsys, monkeypatch, command, over):
        raw, rows, entries, path, kind = self.CASES[command]
        monkeypatch.setattr(harness, "SAMPLE_WORK_BUDGET", rows * entries - over)
        if over:
            def refused(*args, **kwargs):
                raise AssertionError("the config must be refused before any draw")

            monkeypatch.setattr(algebra, "_uniforms", refused)
        code, err = self._run(tmp_path, capsys, command, raw)
        if over:
            assert (code, err) == (EXIT_CONFIG, [
                f"config error: config.{path}: {rows} {kind} matrices × {entries} entries exceed the work "
                f"budget of {rows * entries - 1} sampled entries"
            ])
        else:
            assert code != EXIT_CONFIG

    @pytest.mark.parametrize("command", GRID_CASES)
    @pytest.mark.parametrize("over", [False, True], ids=["at", "over"])
    def test_budget_bounds_phase_grid_entries(self, tmp_path, capsys, monkeypatch, command, over):
        raw, rows, entries = self.GRID_CASES[command]
        monkeypatch.setattr(harness, "SAMPLE_WORK_BUDGET", rows * entries - over)
        if over:
            def refused(*args, **kwargs):
                raise AssertionError("the config must be refused before any draw or grid")

            monkeypatch.setattr(algebra, "_uniforms", refused)
            monkeypatch.setattr(harness, "unit_circle_grid", refused)
        code, err = self._run(tmp_path, capsys, command, raw)
        if over:
            assert (code, err) == (EXIT_CONFIG, [
                f"config error: config.phase_grid_size: {rows} phase-grid matrices × {entries} entries exceed the "
                f"work budget of {rows * entries - 1} sampled entries"
            ])
        else:
            assert code != EXIT_CONFIG

    @pytest.mark.parametrize("command", GRID_CASES)
    def test_huge_phase_grid_exits_within_a_second(self, tmp_path, capsys, command):
        raw = dict(self.GRID_CASES[command][0], phase_grid_size=10**9)
        start = time.perf_counter()
        code, err = self._run(tmp_path, capsys, command, raw)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG and len(err) == 1 and err[0].startswith("config error: config.phase_grid_size: ")

    def test_huge_samples_exit_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the config must be refused before any draw")

        monkeypatch.setattr(algebra, "_uniforms", refused)
        raw = minimal_config(sampling={"seed": 7, "samples": 10**12})
        code, err = self._run(tmp_path, capsys, "lemma-check", raw)
        assert (code, err) == (EXIT_CONFIG, [
            f"config error: config.sampling: {9 * 10**12} sampled matrices × 9 entries exceed the work budget "
            f"of {harness.SAMPLE_WORK_BUDGET} sampled entries"
        ])

    def test_a_config_naming_the_previous_sampler_exits_config_error(self, tmp_path, capsys):
        # a config written for the draw before the Householder one names "philox4x64/1"
        code, err = self._run(tmp_path, capsys, "lemma-check", minimal_config(sampler="philox4x64/1"))
        assert code == EXIT_CONFIG
        assert err == [f"config error: config.sampler: unsupported sampler 'philox4x64/1', this version draws {SAMPLER!r}"]
        assert SAMPLER != "philox4x64/1"


class TestUniquenessLaw:
    """recovered_exactness judges the stabilized limit against the exact base of the map."""

    def test_law_measures_a_map_that_is_its_own_limit(self):
        # f(a) = a + 0.1 ||a|| I is fixed by the backward iteration, so its
        # limit is f itself and the law reads 0.1 ||a|| / (1 + ||a||)
        raw = minimal_config(
            map={
                "kind": "perturbed",
                "base": {"kind": "identity"},
                "perturbation": {"mode": "power", "size": 0.1, "power": 1.0, "direction": "identity"},
            },
            bound={"kind": "power", "coeff": 0.5, "exp1": 0.5, "exp2": 0.5, "exp3": 0.5},
            sampling={"seed": 5, "samples": 20, "norm_cap": 2.0},
            stabilizer={"direction": "backward"},
        )
        summary = cmd_stability(parse_config(raw))
        assert all(row["status"] == "converged" for row in summary.sample_rows)
        norms = np.empty(20)
        algebra.random_elements(5, 20, 3, 2.0, stream=60, norms_out=norms)
        expected = float(np.max(0.1 * norms / (1.0 + norms)))
        got = summary.meta["recovered_defects"]["uniqueness"]
        assert expected > 0.05
        assert abs(got - expected) <= 4 * np.spacing(expected)
        # every law value of every sample is judged: four laws on each
        # exactness sample plus uniqueness on each converged sample
        exactness = next(c for c in summary.checks if c.name == "recovered_exactness")
        assert exactness.num_samples == 4 * parse_config(raw).exactness_samples + 20
        assert exactness.worst_witness is None

    def test_exact_map_has_zero_law(self):
        raw = minimal_config(
            bound={"kind": "power", "coeff": 1.0, "exp1": 2.0, "exp2": 2.0, "exp3": 2.0},
            sampling={"seed": 60, "samples": 20, "norm_cap": 10.0},
            stabilizer={"direction": "forward"},
        )
        summary = cmd_stability(parse_config(raw))
        assert summary.exit_code == EXIT_OK
        assert summary.meta["recovered_defects"]["uniqueness"] <= 1e-12


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self):
        for cmd, raw in (
            (cmd_lemma_check, minimal_config()),
            (cmd_stability, dict(BACKWARD_CONSTANT)),
        ):
            s1 = cmd(parse_config(raw))
            s2 = cmd(parse_config(raw))
            b1 = report_json_bytes(s1, timestamp="T")
            b2 = report_json_bytes(s2, timestamp="T")
            assert b1 == b2

    def test_timestamp_excluded_from_digest(self):
        s1 = cmd_lemma_check(parse_config(minimal_config()))
        d1 = report_dict(s1, timestamp="A")
        d2 = report_dict(s1, timestamp="B")
        assert d1["config_digest"] == d2["config_digest"]
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2

    def test_cli_round_trip_files(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(["lemma-check", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        assert cli_main(["lemma-check", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
        r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestSerialization:
    def test_report_json_witness_names_its_sample_without_matrices(self):
        cfg = parse_config(
            minimal_config(
                map={
                    "kind": "perturbed",
                    "base": {"kind": "identity"},
                    "perturbation": {"mode": "affine", "size": 1.0, "direction": "identity"},
                },
                sampling={"seed": 7, "samples": 10},
            )
        )
        summary = cmd_lemma_check(cfg)
        report = report_dict(summary, timestamp="T")
        odd = next(c for c in report["checks"] if c["name"].endswith("oddness"))
        witness = odd["worst_witness"]
        assert witness is not None
        # the seed, stream and sample index redraw the inputs, so the witness carries their norms only
        assert witness.keys() == {"sample_index", "residual", "input_norms", "phase"}
        assert witness["input_norms"].keys() == {"c"} and type(witness["input_norms"]["c"]) is float
        # every check and witness is written with exactly its dataclass's fields
        assert all(c.keys() == {f.name for f in fields(CheckReport)} for c in report["checks"])
        assert witness.keys() == {f.name for f in fields(Witness)}
        phased = next(c for c in report["checks"] if c["name"].endswith("/phase_oddness"))["worst_witness"]
        assert len(phased["phase"]) == 2 and all(type(x) is float for x in phased["phase"])

    def test_cli_calls_share_one_parser_and_no_flags(self, tmp_path):
        # a call's --seed does not carry over to the next call, and a call without --out writes nothing
        flagged, plain, cfg_path = tmp_path / "flagged.json", tmp_path / "plain.json", tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        assert cli_main(["lemma-check", "--config", str(cfg_path), "--out", str(flagged), "--seed", "5"]) == EXIT_OK
        assert cli_main(["lemma-check", "--config", str(cfg_path), "--out", str(plain)]) == EXIT_OK
        assert cli_main(["lemma-check", "--config", str(cfg_path)]) == EXIT_OK
        assert json.loads(flagged.read_text())["seed"] == 5
        assert json.loads(plain.read_text())["seed"] == minimal_config()["sampling"]["seed"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "flagged.json", "plain.json"]
        assert cli._build_parser() is cli._build_parser()

    def test_report_output_via_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(BACKWARD_CONSTANT)))
        out = tmp_path / "report.json"
        assert cli_main(["stability", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        report = strict_json(out.read_bytes())
        assert [(c["name"], c["verdict"]) for c in report["checks"]] == [
            ("bound_certificate", "satisfied"),
            ("declared_bound", "satisfied"),
            ("recovered_exactness", "satisfied"),
        ]
        assert [r["sample_id"] for r in report["samples"]] == list(range(30))
        assert all(r.keys() == set(CERTIFIED_ROW_KEYS) for r in report["samples"])

    def test_diverged_row_keys_lead_the_certified_row_keys(self, tmp_path):
        summaries = []
        # forward rescaling diverges on the constant defect
        for direction, bound, code in (
            ("backward", BACKWARD_CONSTANT["bound"], EXIT_OK),
            ("forward", FORWARD_BOUND, EXIT_DIVERGED),
        ):
            cfg_path = tmp_path / f"{direction}.json"
            cfg_path.write_text(json.dumps(dict(BACKWARD_CONSTANT, bound=bound, stabilizer={"direction": direction})))
            out = tmp_path / f"{direction}.report.json"
            summary = cmd_stability(load_config(str(cfg_path)))
            assert cli_main(["stability", "--config", str(cfg_path), "--out", str(out)]) == summary.exit_code == code
            assert strict_json(out.read_bytes())["samples"] == summary.sample_rows
            summaries.append(summary)
        certified, diverged = summaries
        assert all(list(r) == list(RUN_ROW_KEYS) for r in diverged.sample_rows)
        assert all(list(r) == list(CERTIFIED_ROW_KEYS) for r in certified.sample_rows)
        assert diverged.checks == []  # no check is judged

    def test_calibration_error_keeps_the_sample_rows(self, tmp_path):
        # a power-3 defect outgrows a power-1.5 control: the fit at ten times the
        # norm cap is more than 1.5 times the first one
        raw = json.loads((README.parent / "configs" / "stability_forward_power.json").read_text())
        raw["map"]["perturbation"]["power"] = 3.0
        raw["bound"] = {"kind": "power", "coeff": 0.0, "exp1": 1.5, "exp2": 1.5, "exp3": 1.5}
        raw["sampling"]["samples"] = 20
        raw["calibration"] = {"sweep_factor": 10}
        summary = cmd_stability(parse_config(raw))
        assert (summary.exit_code, summary.checks) == (EXIT_VIOLATED, [])
        assert "calibration_error" in summary.meta
        assert [r["sample_id"] for r in summary.sample_rows] == list(range(20))
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["stability", "--config", str(cfg_path), "--out", str(out)]) == EXIT_VIOLATED
        report = strict_json(out.read_bytes())
        assert report["checks"] == []  # no check is judged
        assert [r["sample_id"] for r in report["samples"]] == list(range(20))
        assert all(r.keys() == set(RUN_ROW_KEYS) for r in report["samples"])

class TestSuperstabilityCommand:
    def test_exact_map_all_zero_sequence(self):
        cfg = parse_config(
            minimal_config(superstability={"n_max": 16}, sampling={"seed": 3, "samples": 10})
        )
        summary = cmd_superstability(cfg)
        assert summary.exit_code == EXIT_OK
        names = [c.name for c in summary.checks]
        assert "terminal_decay" in names
        assert all(r["slope"] is None for r in summary.sample_rows)  # no fit: null, never a bare NaN

    def test_report_without_fits_is_strict_json(self):
        # every row at noise scale: each slope is null, never a bare NaN
        cfg = parse_config(minimal_config(superstability={"n_max": 8}, sampling={"seed": 1, "samples": 5}))
        rows = strict_json(report_json_bytes(cmd_superstability(cfg)))["samples"]
        assert [r["slope"] for r in rows] == [None] * 5

    def test_shortest_decay_is_strict_json(self):
        # n_max 5 leaves the fit its two points; at 4 it failed and wrote Infinity
        cfg = parse_config(set_path(copy.deepcopy(POWER_DECAY), "superstability.n_max", 5))
        report = strict_json(report_json_bytes(cmd_superstability(cfg)))
        assert all(r["slope"] is not None for r in report["samples"])

    def test_constructed_defect_slope_checked(self):
        cfg = parse_config(
            {
                "schema": 1,
                "algebra": {"dim": 3},
                "map": {
                    "kind": "perturbed",
                    "base": {"kind": "zero"},
                    "perturbation": {"mode": "power", "size": 1e-2, "power": 0.9, "direction": "corner"},
                },
                "sampling": {"seed": 4, "samples": 10, "norm_cap": 2.0},
                "superstability": {"n_max": 64, "terminal_tol": 1e-2},
            }
        )
        summary = cmd_superstability(cfg)
        assert summary.exit_code == EXIT_OK
        slopes = [r["slope"] for r in summary.sample_rows]
        assert all(abs(s - (-0.2)) < 0.05 for s in slopes)
        assert summary.meta["variant"] == "growing"

    def test_large_exponent_uses_shrinking_variant(self):
        cfg = parse_config(
            {
                "schema": 1,
                "algebra": {"dim": 3},
                "map": {
                    "kind": "perturbed",
                    "base": {"kind": "zero"},
                    "perturbation": {"mode": "power", "size": 1e-2, "power": 2.0, "direction": "corner"},
                },
                "sampling": {"seed": 5, "samples": 8, "norm_cap": 2.0},
                "superstability": {"n_max": 32, "terminal_tol": 1e-2},
            }
        )
        summary = cmd_superstability(cfg)
        assert summary.meta["variant"] == "shrinking"
        assert summary.exit_code == EXIT_OK

    def test_slope_without_target_is_violated(self):
        # a constant defect has no exponent to aim at: decay_slope judges each
        # row's largest defect against the noise floor that decides its fit
        raw = json.loads(P05_CONFIG.read_text())
        raw["map"]["perturbation"] = {"mode": "constant", "size": 0.01}
        raw["sampling"]["samples"] = 20
        summary = cmd_superstability(parse_config(raw))
        assert summary.exit_code == EXIT_VIOLATED
        assert "slope_target" not in summary.meta and "steepest_slope" not in summary.meta
        check = summary.checks[-1]
        assert (check.name, check.verdict, check.num_samples) == ("decay_slope", "violated", 20)
        peaks = [max(r["sequence"]) for r in summary.sample_rows]
        witness = check.worst_witness
        assert check.max_residual == max(peaks) and witness.residual == peaks[witness.sample_index]
        assert witness.input_norms == {"a": summary.sample_rows[witness.sample_index]["norm_a"]}
        # every row is fitted, and its slope stays in the rows
        assert all(r["slope"] == pytest.approx(-2.0, abs=1e-12) for r in summary.sample_rows)

    def test_slope_beyond_target_plus_margin_violates(self):
        # On an identity base the cross terms a eps(a) + eps(a) a dominate the
        # power-0.5 decay: every slope lies near -0.5, above the target -1 plus SLOPE_MARGIN.
        raw = json.loads(P05_CONFIG.read_text())
        raw["map"]["base"] = {"kind": "identity"}
        summary = cmd_superstability(parse_config(raw))
        assert summary.meta["slope_target"] == -1.0
        steepest = max(r["slope"] for r in summary.sample_rows)
        assert -0.75 < steepest < -0.25
        check = summary.checks[-1]
        assert (summary.exit_code, check.name, check.verdict) == (EXIT_VIOLATED, "decay_slope", "violated")
        assert check.max_residual == pytest.approx(steepest - (-1.0 + SLOPE_MARGIN), abs=1e-12)

    def test_a_config_naming_the_slope_margin_exits_config_error(self, tmp_path, capsys):
        # the margin is a constant of the decay_slope check, not a config field
        raw = json.loads(P05_CONFIG.read_text())
        raw["superstability"]["slope_margin"] = 0.1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, err = run_cli(capsys, ["superstability", "--config", str(cfg_path)])
        assert (code, err) == (EXIT_CONFIG, ["config error: config.superstability.slope_margin: unknown field"])


class TestNormCount:
    """Matrices normed by one run of a shipped config; a per-call SVD of a carried norm fails these.

    The lemma and stability counts are exact, so any change to which
    residuals extreme_norms refines (lemma) or which matrices a stability run
    norms moves them.
    """

    @staticmethod
    def normed_matrices(monkeypatch, command, config_name):
        count = [0]
        real = algebra.spectral_norms

        def counted(mats):
            norms = real(mats)
            count[0] += norms.size
            return norms

        for name, module in list(sys.modules.items()):
            if name == "stablab" or name.startswith("stablab."):
                if getattr(module, "spectral_norms", None) is real:
                    monkeypatch.setattr(module, "spectral_norms", counted)
        assert command(load_config(str(README.parent / "configs" / config_name))).exit_code == EXIT_OK
        return count[0]

    def test_backward_constant_stability(self, monkeypatch):
        # 55401 when every perturbed evaluation normed its input, 27881 when
        # the exactness runs normed every Cauchy residual, 8368 when the
        # samples' own run normed the residuals of finished samples too, 8157
        # when zero residuals and every Jordan *-law value were normed, 8109
        # when the sampler and stabilize_batch normed each drawn sample, 7071
        # when the samples' run normed every running residual for its trace and
        # the exactness run normed its points, 2730 when extreme_norms refined
        # the Jordan *-laws in one round, every phase of a candidate, 2405 in
        # two rounds, 2778 when every law value was normed (864 law matrices)
        # and the stabilization runs refined residuals their Frobenius
        # brackets left open; the entrywise brackets settle those now
        assert self.normed_matrices(monkeypatch, cmd_stability, "stability_backward_constant.json") == 1961

    def test_forward_power_stability(self, monkeypatch):
        # 25001 when the exactness runs normed every Cauchy residual, 8284 when
        # the samples' own run normed the residuals of finished samples too, 8009
        # when zero residuals and every Jordan *-law value were normed, 7234
        # when the sampler and stabilize_batch normed each drawn sample, 6085
        # when the samples' run normed every running residual for its trace and
        # the exactness run normed its points, 2578 when extreme_norms refined
        # the Jordan *-laws in one round, every phase of a candidate, 2471 in
        # two rounds, 3281 when every law value was normed (864 law matrices)
        # and the stabilization runs refined residuals their Frobenius
        # brackets left open; the entrywise brackets settle those now
        assert self.normed_matrices(monkeypatch, cmd_stability, "stability_forward_power.json") == 2761

    @pytest.mark.parametrize("config_name", ["stability_backward_constant.json", "stability_forward_power.json"])
    def test_stabilization_norms_nothing(self, monkeypatch, config_name):
        # the one stabilization run of a shipped config, over the samples and the exactness points, settles
        # every residual decision with its Frobenius and entrywise brackets, and is handed its points' norms
        runs, inside, normed = [], [False], []  # normed: the stacks spectral_norms gets inside stabilize_batch
        real_norms, real_stabilize = algebra.spectral_norms, harness.stabilize_batch

        def counted(mats):
            if inside[0]:
                normed.append(mats.shape)
            return real_norms(mats)

        def stabilize(f, A, *args, **kwargs):
            runs.append(len(A))
            inside[0] = True
            try:
                return real_stabilize(f, A, *args, **kwargs)
            finally:
                inside[0] = False

        for module in (algebra, stabilizer):
            monkeypatch.setattr(module, "spectral_norms", counted)
        monkeypatch.setattr(harness, "stabilize_batch", stabilize)
        config = load_config(str(README.parent / "configs" / config_name))
        assert cmd_stability(config).exit_code == EXIT_OK
        points = (4 + len(unit_circle_grid(config.phase_grid_size))) * config.exactness_samples
        assert runs == [config.samples + points] and normed == []

    def test_superstability_p05(self, monkeypatch):
        # 4851 when every perturbed evaluation normed its input, 1676 when the
        # sampler and the decay batch normed each drawn sample (1626 now)
        assert self.normed_matrices(monkeypatch, cmd_superstability, "superstability_p05.json") <= 1650

    def test_lemma_transpose(self, monkeypatch):
        # every asserted lemma row is a matrix stack, so extreme_norms norms only its extremes' candidates;
        # 269 when it kept each row's minimum exact too
        assert self.normed_matrices(monkeypatch, cmd_lemma_check, "lemma_transpose.json") == 265

    def test_lemma_unitary(self, monkeypatch):
        # every asserted lemma row is a matrix stack, so extreme_norms norms only its extremes' candidates;
        # 454 when it kept each row's minimum exact too
        assert self.normed_matrices(monkeypatch, cmd_lemma_check, "lemma_unitary.json") == 427


class TestExactnessNorms:
    """The exactness points carry their drawn norms into the stabilization run: only A^2 and A + B are normed, then the laws."""

    @pytest.mark.parametrize("path", [BACKWARD_CONSTANT_CONFIG, FORWARD_POWER_CONFIG], ids=lambda p: p.stem)
    def test_exactness_run_norms_two_inputs_per_sample(self, monkeypatch, path):
        config = load_config(str(path))
        # input matrices normed in mappings (A^2 and A + B, or a point in apply_array) or by stabilize_batch
        inputs, exactness = [], []
        for module in (mappings, stabilizer):
            real = module.spectral_norms
            monkeypatch.setattr(module, "spectral_norms", lambda mats, real=real: inputs.append(mats.shape) or real(mats))
        runs, real_stabilize = [], stabilizer.stabilize_batch

        def recorded(f, xs, cfg, *, norms=None):
            runs.append((f, xs, cfg, norms, real_stabilize(f, xs, cfg, norms=norms)))
            return runs[-1][-1]

        def exactness_stage(real):
            def stage(*args, **kwargs):
                inputs.clear()
                result = real(*args, **kwargs)
                exactness.extend(inputs)
                return result

            return stage

        monkeypatch.setattr(harness, "stabilize_batch", recorded)
        for name in ("jordan_star_points", "jordan_star_laws"):
            monkeypatch.setattr(harness, name, exactness_stage(getattr(harness, name)))
        assert cmd_stability(config).exit_code == EXIT_OK
        # two input norms per sample (not 20) in the draw, then 3 + G - 1 law matrices per sample in the laws
        laws, samples = 3 + len(unit_circle_grid(config.phase_grid_size)) - 1, config.exactness_samples
        assert [math.prod(shape[:-2]) for shape in exactness] == [2 * samples, laws * samples]
        ((f, xs, cfg, norms, results),) = runs  # one run: the samples, then the exactness points
        xs, norms, results = xs[config.samples :], norms[config.samples :], results[config.samples :]
        assert xs.shape[0] == 20 * config.exactness_samples
        monkeypatch.undo()
        np.testing.assert_allclose(norms, algebra.spectral_norms(xs), rtol=2e-15, atol=0.0)
        plain = real_stabilize(f, xs, cfg)  # normed here
        assert [r.status for r in plain] == [r.status for r in results] == ["converged"] * xs.shape[0]
        np.testing.assert_allclose(
            np.stack([r.limit for r in results]), np.stack([r.limit for r in plain]), rtol=2e-15, atol=0.0
        )


class TestBoundsTableCommand:
    def test_default_grid_agrees(self):
        cfg = parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})
        summary = cmd_bounds_table(cfg)
        assert summary.exit_code == EXIT_OK
        assert len(summary.sample_rows) == 54
        assert all(r["rel_err"] <= 1e-9 for r in summary.sample_rows)

    @pytest.mark.parametrize("terms", [2, 10, 20, 30])
    def test_short_series_agrees_with_its_tail(self, terms):
        # the truncated series alone falls short of the closed form; its tail closes the gap
        cfg = parse_config(set_path(copy.deepcopy(BOUNDS_TABLE), "bounds_table.terms", terms))
        summary = cmd_bounds_table(cfg)
        assert summary.exit_code == EXIT_OK
        assert all(r["rel_err"] <= 1e-9 for r in summary.sample_rows)

    def test_reference_cells(self):
        cfg = parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})
        summary = cmd_bounds_table(cfg)
        rows = summary.sample_rows
        def cell(direction, coeff, exp, norm):
            return next(
                r
                for r in rows
                if r["direction"] == direction and r["coeff"] == coeff and r["exponent"] == exp and r["norm_a"] == norm
            )
        assert cell("backward", 1.0, 0.0, 1.0)["closed_form"] == pytest.approx(1.0, abs=1e-12)
        assert cell("forward", 1.0, 2.0, 1.0)["closed_form"] == pytest.approx(7.5, abs=1e-12)
        assert cell("forward", 1.0, 2.0, 2.0)["closed_form"] == pytest.approx(30.0, abs=1e-12)
        consistency = summary.checks[1]  # the profile of degree 2 against the power control (2, 2, 2)
        assert (consistency.name, consistency.num_samples, consistency.verdict) == (
            "profile_power_consistency", 9, "satisfied"
        )
        assert consistency.max_residual <= 1e-12

    def test_each_control_cell_is_listed_once(self):
        rows = cmd_bounds_table(load_config(str(DEFAULT_TABLE_CONFIG))).sample_rows
        keys = [(r["direction"], r["coeff"], r["exponent"], r["norm_a"]) for r in rows]
        assert len(keys) == len(set(keys)) == 54

    def test_profile_power_consistency_reads_the_catalog(self, capsys, monkeypatch):
        # a profile whose middle slot is fixed at 3.0 is not the power control of the profile degree 2.0
        monkeypatch.setitem(stabilizer.BOUND_KINDS, "profile", ("degree", 3.0, "degree"))
        summary = cmd_bounds_table(load_config(str(DEFAULT_TABLE_CONFIG)))
        consistency = next(c for c in summary.checks if c.name == "profile_power_consistency")
        assert consistency.verdict == "violated" and consistency.max_residual > 1e-12
        code, _ = run_cli(capsys, ["bounds-table", "--config", str(DEFAULT_TABLE_CONFIG)])
        assert code == EXIT_VIOLATED

    @staticmethod
    def per_control_rows(config):
        """The table as one scalar-coefficient call per control made it, in the (group, coeff, norm) order."""
        norms_a = np.array(config.table_norms, dtype=float)
        controls = [
            (direction, coeff, exp)
            for direction, exps in (("backward", config.table_exps_backward), ("forward", config.table_exps_forward))
            for exp in exps
            for coeff in config.table_coeffs
        ]
        rows = []
        for direction, coeff, exp in controls:
            spec = PowerControl(coeff, exp, exp, exp)
            closed = bound_closed_form(spec, norms_a, direction)
            series, tail = bound_series_truncated(spec, norms_a, direction, config.table_terms)
            rel = np.abs(closed - (series + tail)) / np.maximum(np.abs(closed), 1e-300)
            for i, norm in enumerate(norms_a.tolist()):
                row = {"direction": direction, "coeff": coeff, "exponent": exp, "norm_a": norm}
                row |= {"closed_form": float(closed[i]), "series": float(series[i]), "tail_estimate": float(tail[i])}
                row["rel_err"] = float(rel[i])
                rows.append(row)
        return rows

    @pytest.mark.parametrize("terms", [2, 3, 60, 200])
    @pytest.mark.parametrize(
        "grid",
        [
            {},  # the built-in default
            # special exponents and norms, a zero coefficient, an exponent listed twice
            {"coeffs": [0.0, 1.0, 0.37], "exps_backward": [0.0, 0.5, 0.5], "exps_forward": [2.0, 3.0, 4.0, 2.0],
             "norms": [0.0, 1e-8, 1.0, 1e6], "profile_degree": 2.0},
            {"coeffs": [10.0], "exps_backward": [0.999], "exps_forward": [1.0000001], "norms": [1e6, 0.0],
             "profile_degree": 4.0},
            {"coeffs": [1e-3, 5.0], "exps_backward": [0.25, 0.0], "exps_forward": [1.5, 3.0], "norms": [1e-8],
             "profile_degree": 3.0},
        ],
        ids=["default", "special", "edges", "one_norm"],
    )
    def test_grid_rows_equal_the_per_control_calls(self, grid, terms):
        raw = copy.deepcopy(BOUNDS_TABLE)
        for key, value in (grid | {"terms": terms}).items():
            set_path(raw, f"bounds_table.{key}", value)
        config = parse_config(raw)
        summary = cmd_bounds_table(config)
        expected = self.per_control_rows(config)
        assert len(summary.sample_rows) == len(expected) == summary.checks[0].num_samples
        for got, want in zip(summary.sample_rows, expected):
            assert list(got) == list(want)
            for key, value in want.items():  # bit for bit (repr keeps a float's every bit and -0.0), types included
                assert (type(got[key]), repr(got[key])) == (type(value), repr(value)), key
        rel_errs = [r["rel_err"] for r in expected]
        agreement = summary.checks[0]
        assert agreement.max_residual == max(0.0, max(rel_errs))
        assert agreement.worst_witness.sample_index == int(np.argmax(np.array(rel_errs) - 1e-9))

    @pytest.mark.parametrize("budget, code", [(54 * 60, EXIT_OK), (54 * 60 - 1, EXIT_CONFIG)])
    def test_work_budget_bounds_cells_times_terms(self, capsys, monkeypatch, budget, code):
        monkeypatch.setattr(harness, "TABLE_WORK_BUDGET", budget)  # the default grid: 54 cells × 60 terms
        got, err = run_cli(capsys, ["bounds-table", "--config", str(DEFAULT_TABLE_CONFIG)])
        assert got == code
        if code == EXIT_CONFIG:
            assert err == [
                "config error: config.bounds_table: 54 cells × 60 terms exceed the work budget of 3239 series terms"
            ]

    def test_huge_terms_exit_before_any_evaluation(self, capsys, monkeypatch, tmp_path):
        # 10**12 terms would need (coeffs, norms, 10**12) temporaries: refused at parse, past SERIES_TERMS_MAX
        def refused(*args, **kwargs):
            raise AssertionError("the config must be refused before the grid is evaluated")

        for name in ("bound_closed_form", "bound_series_truncated"):
            monkeypatch.setattr(harness, name, refused)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(set_path(copy.deepcopy(BOUNDS_TABLE), "bounds_table.terms", 10**12)))
        code, err = run_cli(capsys, ["bounds-table", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert err == [f"config error: config.bounds_table.terms: must be in [2, 646], got {10**12}"]

    @pytest.mark.parametrize(
        "table,code,line",
        [
            # 3^646 is the last finite power of three; 2 * 2.0 * 3^646 overflows on the default norms
            ({"terms": 646}, EXIT_NUMERIC, "numerical error: NonFiniteError: backward bound series of 646 terms"),
            ({"terms": 647}, EXIT_CONFIG, "config error: config.bounds_table.terms: must be in [2, 646], got 647"),
            (
                {"norms": [1e300], "exps_backward": [0.9], "terms": 600},
                EXIT_NUMERIC,
                "numerical error: NonFiniteError: backward bound series of 600 terms",
            ),
            (
                {"norms": [1e3], "coeffs": [1e300], "exps_backward": [0.0], "exps_forward": [3.0]},
                EXIT_NUMERIC,
                "numerical error: NonFiniteError: forward closed-form bound",
            ),
        ],
    )
    def test_overflow_exits_with_one_line(self, capsys, tmp_path, table, code, line):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({**BOUNDS_TABLE, "bounds_table": table}))
        got, err = run_cli(capsys, ["bounds-table", "--config", str(path)])
        assert got == code
        assert len(err) == 1 and err[0].startswith(line), err
        assert "Warning" not in err[0] and "Traceback" not in err[0]

    def test_two_terms_is_strict_json(self):
        # two terms give the tail its ratio; one term wrote an Infinity tail in every row
        cfg = parse_config(set_path(copy.deepcopy(BOUNDS_TABLE), "bounds_table.terms", 2))
        rows = strict_json(report_json_bytes(cmd_bounds_table(cfg)))["samples"]
        assert len(rows) == 54
        assert all(math.isfinite(r["tail_estimate"]) for r in rows)


NAN, INF = float("nan"), float("inf")


class TestOutOfRangeValues:
    """Values that pass the type check but not the field's range: exit 3, never a traceback."""

    @pytest.mark.parametrize(
        "command, overrides, argv, path",
        [
            ("lemma-check", {"sampling.seed": -1}, [], "sampling.seed"),
            ("lemma-check", {}, ["--seed", "-1"], "sampling.seed"),
            ("lemma-check", {"map": {"kind": "unitary_conjugation", "seed": -3}}, [], "map.seed"),
            ("lemma-check", {"sampling.norm_cap": NAN}, [], "sampling.norm_cap"),
            ("lemma-check", {"sampling.norm_cap": INF}, [], "sampling.norm_cap"),
            ("lemma-check", {"checks.tol": NAN}, [], "checks.tol"),
            (
                "lemma-check",
                {"map": {"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "constant", "size": NAN}}},
                [],
                "map.perturbation.size",
            ),
            (
                "lemma-check",
                {"map": {"kind": "perturbed", "base": {"kind": "zero"}, "perturbation": {"mode": "power", "size": 1, "power": NAN}}},
                [],
                "map.perturbation.power",
            ),
            ("stability", {"calibration.sweep_factor": 0.5}, [], "calibration.sweep_factor"),
            ("stability", {"calibration.sweep_factor": 1}, [], "calibration.sweep_factor"),
            ("bounds-table", {"bounds_table.coeffs": [-1]}, [], "bounds_table.coeffs"),
            ("bounds-table", {"bounds_table.norms": [-1]}, [], "bounds_table.norms"),
            ("bounds-table", {"bounds_table.exps_forward": [0.5]}, [], "bounds_table.exps_forward"),
            ("bounds-table", {"bounds_table.exps_backward": [1.5]}, [], "bounds_table.exps_backward"),
            ("bounds-table", {"bounds_table.profile_degree": 0.5}, [], "bounds_table.profile_degree"),
            ("lemma-check", {"algebra.dim": 0}, [], "algebra.dim"),
            # values the map classes refuse once the map is built
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "unitary_conjugation", "matrix": [[2, 0], [0, 1]]}},
                [],
                "map.matrix",
            ),
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "constant", "size": 0.1, "direction": [[2, 0], [0, 0]]}}},
                [],
                "map.perturbation.direction",
            ),
            (
                "lemma-check",
                {"algebra.dim": 1, "map": {"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "constant", "size": 0.1, "direction": "corner"}}},
                [],
                "map.perturbation.direction",
            ),
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "perturbed", "base": {"kind": "unitary_conjugation", "matrix": [[2, 0], [0, 1]]}, "perturbation": {"mode": "constant", "size": 0.1}}},
                [],
                "map.base.matrix",
            ),
            # ranges that keep every report strict JSON: a slope fit needs two points, a series tail a ratio
            ("superstability", {"superstability.n_max": 4}, [], "superstability.n_max"),
            ("bounds-table", {"bounds_table.terms": 1}, [], "bounds_table.terms"),
            # u*u overflows: refused without a RuntimeWarning
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "unitary_conjugation", "matrix": [[1e200, 0], [0, 1]]}},
                [],
                "map.matrix",
            ),
            # a suite reports each dimension once
            ("lemma-check", {"sampling.dims": [2, 2]}, [], "sampling.dims"),
            # a unitary map gives exactly one of seed and matrix, at the top and as a base
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "unitary_conjugation", "seed": 3, "matrix": [[0, 1], [1, 0]]}},
                [],
                "map: expected exactly one of seed and matrix",
            ),
            (
                "lemma-check",
                {"algebra.dim": 2, "map": {"kind": "perturbed", "base": {"kind": "unitary_conjugation", "seed": 3, "matrix": [[0, 1], [1, 0]]}, "perturbation": {"mode": "constant", "size": 0.1}}},
                [],
                "map.base: expected exactly one of seed and matrix",
            ),
            # a tolerance below rounding would read an exact map as a counterexample
            ("lemma-check", {"checks.tol": 1e-16}, [], "checks.tol: must be in [1e-13, inf), got 1e-16"),
            ("stability", {"exactness.tol": 1e-16}, [], "exactness.tol: must be in [1e-13, inf), got 1e-16"),
            # an integer beyond the float range reads as inf
            ("lemma-check", {"sampling.norm_cap": 10**400}, [], "sampling.norm_cap: expected a finite number, got inf"),
            # where a report goes is a run option (--out), not part of the experiment
            ("bounds-table", {"outputs.path": "x.json"}, [], "outputs: unknown field"),
            # calibration draws at sampling.norm_cap
            ("stability", {"calibration.norm_cap": 5.0}, [], "calibration.norm_cap: unknown field"),
            # stability and superstability run at algebra.dim only
            ("stability", {"sampling.dims": [2, 3]}, [], "sampling.dims: this command runs at algebra.dim only"),
            ("superstability", {"sampling.dims": [2]}, [], "sampling.dims: this command runs at algebra.dim only"),
            # the decay sequences of 5 samples × 10**9 terms exceed the sampled-entry budget
            (
                "superstability",
                {"superstability.n_max": 10**9},
                [],
                f"superstability.n_max: {5 * 10**9} decay-sequence matrices × 9 entries exceed the work budget",
            ),
        ],
    )
    def test_cli_exits_config_error(self, tmp_path, capsys, command, overrides, argv, path):
        base = {
            "lemma-check": minimal_config(),
            "stability": BACKWARD_CONSTANT,
            "superstability": POWER_DECAY,
            "bounds-table": BOUNDS_TABLE,
        }
        raw = copy.deepcopy(base[command])
        for key, value in overrides.items():
            set_path(raw, key, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main([command, "--config", str(cfg_path), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.{path}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestSeedRange:
    """The seed is a Philox key word: [0, 2^64) runs, 2^64 is a config error rather than a numerical one."""

    @staticmethod
    def _run(tmp_path, capsys, seed, via):
        raw = copy.deepcopy(BACKWARD_CONSTANT)
        argv = ["--seed", str(seed)] if via == "--seed" else []
        if via == "config":
            raw["sampling"]["seed"] = seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        return run_cli(capsys, ["stability", "--config", str(cfg_path), *argv])

    @pytest.mark.parametrize("via", ["config", "--seed"])
    def test_seed_beyond_a_key_word_exits_config_error(self, tmp_path, capsys, via):
        code, err = self._run(tmp_path, capsys, 2**64, via)
        assert code == EXIT_CONFIG
        assert err == [f"config error: config.sampling.seed: must be in [0, 18446744073709551616), got {2**64}"]

    @pytest.mark.parametrize("via", ["config", "--seed"])
    def test_largest_seed_runs(self, tmp_path, capsys, via):
        assert self._run(tmp_path, capsys, 2**64 - 1, via) == (EXIT_OK, [])

    def test_seed_flag_does_not_stand_in_for_a_missing_config_seed(self, tmp_path, capsys):
        raw = copy.deepcopy(BACKWARD_CONSTANT)
        del raw["sampling"]["seed"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, err = run_cli(capsys, ["stability", "--config", str(cfg_path), "--seed", "5"])
        assert code == EXIT_CONFIG
        assert err == ["config error: config.sampling.seed: required field missing"]


class TestNumericalFailure:
    """Overflow and non-finite values end in exit 4 with a `numerical error:` line, never a traceback."""

    @pytest.mark.parametrize(
        "command, raw, error",
        [
            (
                "superstability",
                set_path(json.loads(P05_CONFIG.read_text()), "sampling.norm_cap", 1e60),
                "DecayOverflowError",
            ),
            ("bounds-table", {**BOUNDS_TABLE, "bounds_table": {"exps_forward": [2000.0], "norms": [2.0]}}, "NonFiniteError"),
            (
                "lemma-check",
                minimal_config(
                    algebra={"dim": 2},
                    map={"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "power", "size": 0.1, "power": -400}},
                ),
                "NonFiniteError",
            ),
            (
                "stability",
                set_path(json.loads(BACKWARD_CONSTANT_CONFIG.read_text()), "sampling.norm_cap", 1e300),
                "NonFiniteError",
            ),
        ],
    )
    def test_cli_exits_numerical_error(self, tmp_path, capsys, command, raw, error):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, err = run_cli(capsys, [command, "--config", str(cfg_path)])
        assert code == EXIT_NUMERIC
        assert len(err) == 1, err
        assert err[0].startswith(f"numerical error: {error}: ")

    def test_perturbation_overflow_names_the_power(self, tmp_path, capsys):
        raw = minimal_config(
            algebra={"dim": 2},
            map={"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "power", "size": 0.1, "power": -400}},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, err = run_cli(capsys, ["lemma-check", "--config", str(cfg_path)])
        assert code == EXIT_NUMERIC
        assert err == ["numerical error: NonFiniteError: perturbation power -400.0: ||x||^power is beyond the float range"]

    def test_overflowing_square_exits_at_the_guard(self, tmp_path, capsys):
        # a norm cap of 1e160 overflows a^2 itself; numpy must not warn on the way to exit 4
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(set_path(json.loads(P05_CONFIG.read_text()), "sampling.norm_cap", 1e160)))
        code, err = run_cli(capsys, ["superstability", "--config", str(cfg_path)])
        assert code == EXIT_NUMERIC
        assert err == ["numerical error: DecayOverflowError: decay argument norm inf exceeds 1e+100 at n=1"]

    @pytest.mark.parametrize(
        "command, config",
        [("superstability", P05_CONFIG), ("lemma-check", README.parent / "configs" / "lemma_transpose.json")],
    )
    def test_svd_that_does_not_converge_exits_four(self, capsys, monkeypatch, command, config):
        # the first SVD is the map's direction check in one config and a sampling norm in the other
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        code, err = run_cli(capsys, [command, "--config", str(config)])
        assert code == EXIT_NUMERIC
        assert err == ["numerical error: LinAlgError: SVD did not converge"]

    def test_control_overflow_names_the_exponent(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BOUNDS_TABLE, "bounds_table": {"exps_forward": [2000.0], "norms": [2.0]}}))
        code, err = run_cli(capsys, ["bounds-table", "--config", str(cfg_path)])
        assert code == EXIT_NUMERIC
        assert err == ["numerical error: NonFiniteError: control exponent 2000.0: ||x||^power is beyond the float range"]


class TestRunFailures:
    """Exhausted samples exit 1, an exhausted exactness run exits 2 and an unwritable output exits 3."""

    @staticmethod
    def _exhausted_run(tmp_path, capsys, max_iter, unconverged):
        raw = set_path(json.loads(FORWARD_POWER_CONFIG.read_text()), "stabilizer.max_iter", max_iter)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        code, err = run_cli(capsys, ["stability", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert err == [f"diverged: exactness check: {unconverged} of 960 limit evaluations did not converge"]
        report = json.loads(out.read_text())
        assert (report["verdict"], report["exit_code"]) == ("diverged", EXIT_DIVERGED)
        assert report["meta"]["exactness_error"] == f"{unconverged} of 960 limit evaluations did not converge"
        return report

    def test_exhausted_exactness_run_exits_diverged_with_report(self, tmp_path, capsys):
        report = self._exhausted_run(tmp_path, capsys, 5, 957)
        assert len(report["samples"]) == 200
        assert report["meta"]["exhausted_samples"] == 199
        # Only the one converged sample is certified; its witness keeps its sample id.
        converged = [row["sample_id"] for row in report["samples"] if row["status"] == "converged"]
        assert converged == [134]
        checks = {c["name"]: c for c in report["checks"]}
        assert sorted(checks) == ["bound_certificate", "declared_bound"]
        for check in checks.values():
            assert check["num_samples"] == 1
            assert check["worst_witness"]["sample_index"] == 134

    def test_no_converged_sample_gets_no_certificate(self, tmp_path, capsys):
        report = self._exhausted_run(tmp_path, capsys, 2, 960)
        assert report["meta"]["exhausted_samples"] == len(report["samples"]) == 200
        assert report["checks"] == []

    def test_exhausted_samples_are_reported_and_left_out_of_the_certificates(self, tmp_path, capsys):
        # 39 of 50 samples exhaust 18 iterations; the run still judges the 11 that converged
        raw = json.loads(FORWARD_POWER_CONFIG.read_text())
        for path, value in {"sampling.samples": 50, "sampling.norm_cap": 10, "stabilizer.max_iter": 18}.items():
            set_path(raw, path, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert run_cli(capsys, ["stability", "--config", str(cfg_path), "--out", str(out)]) == (EXIT_VIOLATED, [])
        report = json.loads(out.read_text())
        assert (report["verdict"], report["meta"]["exhausted_samples"]) == ("violated", 39)
        checks = {c["name"]: c for c in report["checks"]}
        # all_samples_converged is the stabilizer's stopping rule r_last <= tol * (1 + ||a||) over every
        # sample: it reads each row's status, and its witness is an exhausted sample
        rows = report["samples"]
        assert all((r["status"] == "exhausted") == (r["r_last"] > 1e-10 * (1 + r["norm_a"])) for r in rows)
        unconverged = checks["all_samples_converged"]
        witness = unconverged["worst_witness"]
        assert (unconverged["verdict"], unconverged["num_samples"]) == ("violated", 50)
        assert unconverged["max_residual"] == max(r["r_last"] for r in rows)
        assert rows[witness["sample_index"]]["status"] == "exhausted"
        assert witness["residual"] == rows[witness["sample_index"]]["r_last"]
        assert checks["bound_certificate"]["num_samples"] == checks["declared_bound"]["num_samples"] == 11
        # four laws on each of the 48 exactness samples, plus uniqueness on each converged sample
        assert checks["recovered_exactness"]["num_samples"] == 4 * 48 + 11
        certified = ("bound_certificate", "declared_bound", "recovered_exactness")
        assert all(checks[name]["verdict"] == "satisfied" for name in certified)

    def test_unwritable_output_exits_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, err = run_cli(capsys, ["bounds-table", "--config", str(DEFAULT_TABLE_CONFIG), "--out", str(target)])
        assert code == EXIT_CONFIG
        assert err == [f"config error: --out: cannot write {target}: No such file or directory"]


def _valid_values(kind, allowed):
    """Strategy for in-range values of one schema row."""
    if get_origin(kind) is list:
        return st.lists(_valid_values(get_args(kind)[0], allowed), min_size=1, max_size=3)
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.sampled_from(allowed) if allowed else st.text(max_size=8)
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    if kind is int:
        top = int(lo) + 1000 if math.isinf(hi) else min(int(lo) + 1000, int(hi) - (allowed[-1] == ")"))
        return st.integers(min_value=int(lo), max_value=top)
    return st.floats(
        min_value=lo,
        max_value=min(hi, 1e6),
        exclude_min=allowed[0] == "(",
        exclude_max=allowed[-1] == ")" and hi <= 1e6,
    )


MAPS = [
    None,
    {"kind": "transpose"},
    {"kind": "unitary_conjugation", "seed": 5},
    {"kind": "unitary_conjugation", "matrix": [[0, 1], [1, 0]]},
    {
        "kind": "perturbed",
        "base": {"kind": "negation"},
        "perturbation": {"mode": "power", "size": 0.3, "power": 1.5, "direction": [[0, [0, 1]], [0, 0]]},
    },
]
BOUNDS = [
    None,
    {"kind": "constant", "coeff": 0.5},
    {"kind": "power", "coeff": 1, "exp1": 2, "exp2": 2, "exp3": 2},
    {"kind": "profile", "coeff": 0.1, "degree": 2.0},
]
ABSENT = object()


@st.composite
def valid_configs(draw):
    raw = {"schema": 1}
    for key, choices in (("map", MAPS), ("bound", BOUNDS)):
        value = draw(st.sampled_from(choices + [ABSENT]))
        if value is not ABSENT:
            raw[key] = copy.deepcopy(value)
    for path, _, kind, default, allowed in CONFIG_FIELDS:
        values = _valid_values(kind, allowed)
        if path == "sampling.dims":  # a dimension is listed at most once
            values = values.map(lambda dims: list(dict.fromkeys(dims)))
        if default is not REQUIRED:
            values = st.one_of(st.just(ABSENT), st.none(), values)
        value = draw(values)
        if value is not ABSENT:
            set_path(raw, path, value)
    return raw


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FUZZ_BASE = minimal_config(
    map={
        "kind": "perturbed",
        "base": {"kind": "unitary_conjugation", "seed": 1},
        "perturbation": {"mode": "power", "size": 0.1, "power": 2.0, "direction": "corner", "odd": False},
    },
    bound={"kind": "power", "coeff": 1.0, "exp1": 2.0, "exp2": 2.0, "exp3": 2.0},
)
# Every CONFIG_FIELDS path and every key of the map, perturbation and bound
# tables, so a new row is fuzzed too; map keys of any kind go on the map and
# on its (unitary) base.
MAP_KEYS = list(dict.fromkeys(key for rows in MAP_FIELDS.values() for key, *_ in rows))
FUZZ_PATHS = [path for path, *_ in CONFIG_FIELDS] + [
    "schema",
    "sampler",
    "sampling",
    "map",
    *(f"map.{key}" for key in MAP_KEYS),
    *(f"map.base.{key}" for key in MAP_KEYS),
    *(f"map.perturbation.{key}" for key, *_ in PERTURBATION_FIELDS),
    "bound",
    *dict.fromkeys(f"bound.{key}" for rows in BOUND_FIELDS.values() for key, *_ in rows),
]


class TestSchemaTable:
    @settings(max_examples=150, deadline=None)
    @given(valid_configs())
    def test_canonical_dict_is_a_fixed_point(self, raw):
        cfg = parse_config(raw)
        again = parse_config(cfg.canonical)
        assert again.canonical == cfg.canonical
        assert config_digest(again) == config_digest(cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_PATHS), JSON)
    def test_arbitrary_json_raises_only_config_error(self, path, value):
        raw = set_path(copy.deepcopy(FUZZ_BASE), path, value)
        try:
            parse_config(raw)
        except ConfigError as exc:
            assert str(exc).startswith("config")

    def test_readme_lists_every_field(self):
        def cells(kind, default, allowed):
            shown_default = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
            if kind is harness._direction:  # the one parser row a table shows
                names = ", ".join(f"`{json.dumps(name)}`" for name in UNIT_DIRECTIONS)
                return f"str or matrix | {shown_default} | {names} or a matrix of operator norm at most 1 |"
            if get_origin(kind) is list:
                type_name = f"list of {get_args(kind)[0].__name__}"
            else:
                type_name = kind.__name__
            if allowed is None:
                shown_allowed = "any"
            elif isinstance(allowed, tuple):
                shown_allowed = ", ".join(f"`{json.dumps(choice)}`" for choice in allowed)
            else:
                shown_allowed = f"`{allowed}`"
            return f"{type_name} | {shown_default} | {shown_allowed} |"

        bound_rows = {}  # key -> (row, kinds that read it)
        for kind, rows in BOUND_FIELDS.items():
            for row in rows:
                bound_rows.setdefault(row[0], (row, []))[1].append(f"`{kind}`")
        expected = [f"| `{path}` | {cells(kind, default, allowed)}" for path, _, kind, default, allowed in CONFIG_FIELDS]
        expected += [f"| `map.perturbation.{key}` | {cells(*spec)}" for key, *spec in PERTURBATION_FIELDS]
        expected += [
            f"| `bound.{key}` | {', '.join(kinds)} | {cells(*spec)}" for (key, *spec), kinds in bound_rows.values()
        ]
        lines = README.read_text(encoding="utf-8").splitlines()
        missing = [line for line in expected if line not in lines]
        assert not missing, "README.md schema tables are out of date:\n" + "\n".join(missing)
        documented, header = [], None  # the body rows of every README table headed "| path |"
        for line in lines:
            if not line.startswith("|"):
                header = None
            elif header is None:
                header = line
            elif header.startswith("| path |") and not line.startswith("| ---"):
                documented.append(line)
        stale = [line for line in documented if line not in expected]
        assert not stale, "README.md schema tables document fields no table holds:\n" + "\n".join(stale)

    def test_readme_json_examples_parse(self):
        blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
        assert blocks
        for block in blocks:
            parse_config(json.loads(block))

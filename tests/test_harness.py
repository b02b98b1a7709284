"""Harness and CLI tests: config validation, exit codes, determinism, formats."""

import copy
import json
import warnings
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablab.cli import main as cli_main
from stablab.harness import (
    CONFIG_FIELDS,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VIOLATED,
    REQUIRED,
    ConfigError,
    build_map,
    checks_to_csv,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    config_digest,
    parse_config,
    report_dict,
    report_json_bytes,
    rows_to_csv,
)
from stablab.mappings import (
    DIM_ONLY_ACTIONS,
    MAP_KINDS,
    PERTURBATION_MODES,
    UNIT_DIRECTIONS,
    Perturbed,
    Transpose,
    UnitaryConjugation,
)
from stablab.stabilizer import BOUND_KINDS, PowerControl


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

BOUNDS_TABLE = {"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}}

README = Path(__file__).resolve().parent.parent / "README.md"
P05_CONFIG = README.parent / "configs" / "superstability_p05.json"
FORWARD_POWER_CONFIG = README.parent / "configs" / "stability_forward_power.json"


def run_cli(capsys, argv):
    """Exit code and stderr lines of one CLI run; a Python warning counts as the line it would print."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(argv)
    return code, capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]


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
ROUND_TRIP_MAPS = [
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

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="config.schema"):
            parse_config(minimal_config(schema=2))

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

    def test_defaults_applied(self):
        cfg = parse_config(minimal_config())
        assert cfg.stabilizer.max_iter == 64
        assert cfg.phase_grid_size == 16
        assert cfg.dims == [3]
        assert cfg.output_format == "json"
        nulls = minimal_config(bound=None, calibration={"norm_cap": None}, outputs={"path": None})
        nulls["sampling"]["dims"] = None
        assert parse_config(nulls).canonical == cfg.canonical

    def test_seed_override_changes_digest(self):
        base = parse_config(minimal_config())
        overridden = parse_config(minimal_config(), seed_override=1234)
        assert overridden.seed == 1234
        assert config_digest(base) != config_digest(overridden)


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

    def test_map_round_trips_through_config_form(self):
        from stablab.algebra import random_element
        from stablab.harness import map_to_config
        from stablab.mappings import apply_array

        assert {raw["kind"] for raw in ROUND_TRIP_MAPS} == set(MAP_KINDS)
        for raw in ROUND_TRIP_MAPS:
            f = build_map(parse_config(minimal_config(map=raw)).map_cfg, 3)
            serialized = map_to_config(f)
            g = build_map(parse_config(minimal_config(map=serialized)).map_cfg, 3)
            assert map_to_config(g) == serialized
            for seed in range(5):
                a = random_element(seed, 3, 2.0).entries[np.newaxis]
                assert np.allclose(apply_array(f, a), apply_array(g, a), atol=1e-14)



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

    def test_lemma_phase_sweep_flag_adds_report_only_checks(self):
        cfg = parse_config(minimal_config(checks={"tol": 1e-9, "phase_sweep": True}))
        summary = cmd_lemma_check(cfg)
        sweeps = [c for c in summary.checks if "phase_sweep" in c.name]
        assert len(sweeps) == 2
        assert all(c.verdict == "vacuous" for c in sweeps)
        # the swept residuals are nonzero for exact maps yet do not fail the run
        assert summary.exit_code == EXIT_OK

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
        assert all(r["slack"] >= 0 for r in summary.sample_rows)

    def test_stability_divergence_exit_two(self):
        cfg = dict(BACKWARD_CONSTANT)
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
        cfg = dict(BACKWARD_CONSTANT)
        cfg["stabilizer"] = {"direction": "forward"}
        divergent.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert cli_main(["stability", "--config", str(divergent)]) == EXIT_DIVERGED
        assert capsys.readouterr().err.splitlines() == ["diverged: 30 of 30 stabilization runs diverged"]


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
    def test_csv_uses_dot_decimal_17_digits(self):
        rows = [{"x": 1.0 / 3.0, "n": 4}]
        body = rows_to_csv(rows)
        assert "0.33333333333333331" in body
        assert "," in body  # delimiter only
        round_tripped = float(body.splitlines()[1].split(",")[0])
        assert round_tripped == 1.0 / 3.0

    def test_checks_csv_has_witness_norms(self):
        summary = cmd_lemma_check(parse_config(minimal_config()))
        body = checks_to_csv(summary.checks)
        header = body.splitlines()[0]
        assert header.split(",") == [
            "name",
            "max_residual",
            "max_slack",
            "num_samples",
            "verdict",
            "witness_norms",
        ]

    def test_report_json_contains_witness_matrices(self):
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
        entries = witness["inputs"]["c"]
        assert len(entries) == 3 and len(entries[0]) == 3 and len(entries[0][0]) == 2

    def test_config_outputs_path_honoured(self, tmp_path):
        out = tmp_path / "from_config.json"
        raw = minimal_config(outputs={"format": "json", "path": str(out)})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main(["lemma-check", "--config", str(cfg_path)]) == EXIT_OK
        assert out.exists()
        assert json.loads(out.read_text())["command"] == "lemma-check"

    def test_csv_output_via_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(BACKWARD_CONSTANT)))
        out = tmp_path / "rows.csv"
        assert (
            cli_main(
                ["stability", "--config", str(cfg_path), "--out", str(out), "--format", "csv"]
            )
            == EXIT_OK
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sample_id,norm_a,iterations")
        assert len(lines) == 31


class TestSuperstabilityCommand:
    def test_exact_map_all_zero_sequence(self):
        cfg = parse_config(
            minimal_config(superstability={"n_max": 16}, sampling={"seed": 3, "samples": 10})
        )
        summary = cmd_superstability(cfg)
        assert summary.exit_code == EXIT_OK
        names = [c.name for c in summary.checks]
        assert "terminal_decay" in names
        assert all(np.isnan(r["slope"]) for r in summary.sample_rows)

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


class TestBoundsTableCommand:
    def test_default_grid_agrees(self):
        cfg = parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})
        summary = cmd_bounds_table(cfg)
        assert summary.exit_code == EXIT_OK
        assert len(summary.sample_rows) == 63
        assert all(r["agree"] for r in summary.sample_rows)

    def test_reference_cells(self):
        cfg = parse_config({"schema": 1, "algebra": {"dim": 2}, "sampling": {"seed": 0, "samples": 1}})
        rows = cmd_bounds_table(cfg).sample_rows
        def cell(kind, direction, coeff, exp, norm):
            return next(
                r
                for r in rows
                if r["kind"] == kind
                and r["direction"] == direction
                and r["coeff"] == coeff
                and r["exponent"] == exp
                and r["norm_a"] == norm
            )
        assert cell("power", "backward", 1.0, 0.0, 1.0)["closed_form"] == pytest.approx(1.0, abs=1e-12)
        assert cell("power", "forward", 1.0, 2.0, 1.0)["closed_form"] == pytest.approx(7.5, abs=1e-12)
        assert cell("power", "forward", 1.0, 2.0, 2.0)["closed_form"] == pytest.approx(30.0, abs=1e-12)
        prof = cell("profile", "forward", 1.0, 2.0, 1.0)
        assert prof["power_rel_err"] <= 1e-12


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
        ],
    )
    def test_cli_exits_config_error(self, tmp_path, capsys, command, overrides, argv, path):
        base = {"lemma-check": minimal_config(), "stability": BACKWARD_CONSTANT, "bounds-table": BOUNDS_TABLE}
        raw = copy.deepcopy(base[command])
        for key, value in overrides.items():
            set_path(raw, key, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli_main([command, "--config", str(cfg_path), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.{path}")
        assert "Traceback" not in err


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
            ("bounds-table", {**BOUNDS_TABLE, "bounds_table": {"exps_forward": [2000.0], "norms": [2.0]}}, "OverflowError"),
            (
                "lemma-check",
                minimal_config(
                    algebra={"dim": 2},
                    map={"kind": "perturbed", "base": {"kind": "identity"}, "perturbation": {"mode": "power", "size": 0.1, "power": -400}},
                ),
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


class TestRunFailures:
    """An exhausted exactness run exits 2 and an unwritable output exits 3, each with one stderr line."""

    def test_exhausted_exactness_run_exits_diverged_with_report(self, tmp_path, capsys):
        raw = set_path(json.loads(FORWARD_POWER_CONFIG.read_text()), "stabilizer.max_iter", 3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        code, err = run_cli(capsys, ["stability", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert err == ["diverged: exactness check: 960 of 960 limit evaluations did not converge"]
        report = json.loads(out.read_text())
        assert (report["verdict"], report["exit_code"]) == ("diverged", EXIT_DIVERGED)
        assert report["meta"]["exactness_error"] == "960 of 960 limit evaluations did not converge"
        assert report["meta"]["exhausted_samples"] == len(report["samples"]) == 200

    @pytest.mark.parametrize("via", ["--out", "config.outputs.path"])
    def test_unwritable_output_exits_config_error(self, tmp_path, capsys, via):
        target = tmp_path / "missing" / "x.json"
        raw = copy.deepcopy(BOUNDS_TABLE)
        argv = ["--out", str(target)]
        if via != "--out":
            raw["outputs"] = {"path": str(target)}
            argv = []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, err = run_cli(capsys, ["bounds-table", "--config", str(cfg_path), *argv])
        assert code == EXIT_CONFIG
        assert err == [f"config error: {via}: cannot write {target}: No such file or directory"]


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
        return st.integers(min_value=int(lo), max_value=int(lo) + 1000)
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
FUZZ_PATHS = [path for path, *_ in CONFIG_FIELDS] + [
    "schema",
    "sampling",
    "map",
    "map.base",
    "map.base.seed",
    "map.perturbation",
    *(f"map.perturbation.{key}" for key in FUZZ_BASE["map"]["perturbation"]),
    "bound",
    *(f"bound.{key}" for key in FUZZ_BASE["bound"]),
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
        def row(path, attr, kind, default, allowed):
            if get_origin(kind) is list:
                type_name = f"list of {get_args(kind)[0].__name__}"
            else:
                type_name = kind.__name__
            shown_default = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
            if allowed is None:
                shown_allowed = "any"
            elif isinstance(allowed, tuple):
                shown_allowed = ", ".join(f"`{json.dumps(choice)}`" for choice in allowed)
            else:
                shown_allowed = f"`{allowed}`"
            return f"| `{path}` | {type_name} | {shown_default} | {shown_allowed} |"

        lines = README.read_text(encoding="utf-8").splitlines()
        missing = [row(*field) for field in CONFIG_FIELDS if row(*field) not in lines]
        assert not missing, "README.md schema table is out of date:\n" + "\n".join(missing)

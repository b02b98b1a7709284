"""Acceptance suite: one test per release criterion, one pass line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each criterion pins its tolerance here; nothing is deferred to calibration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from stablab.algebra import random_element
from stablab.checkers import fit_loglog_slope, superstability_decay_batch
from stablab.harness import (
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_VIOLATED,
    build_map,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    parse_config,
    report_json_bytes,
)
from stablab.mappings import Perturbation, Perturbed, ZeroMap, unit_direction
from stablab.stabilizer import (
    FORWARD,
    PowerControl,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    verify_uniqueness,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Endpoint comparisons on computed norms allow one part in 1e12 of rounding;
# every comparison is tolerance-relative, never exact.
REL_EPS = 1e-12


def load(name):
    return parse_config(json.loads((CONFIG_DIR / name).read_text()))


def report(line):
    print(f"\n[PASS] {line}")


class TestCriterion1BackwardConstantBoundAttained:
    def test_bound_attained_and_limit_exact(self):
        config = load("stability_backward_constant.json")
        start = time.perf_counter()
        summary = cmd_stability(config)
        elapsed = time.perf_counter() - start

        assert summary.exit_code == EXIT_OK
        assert len(summary.sample_rows) == 200
        dists = np.array([row["dist"] for row in summary.sample_rows])
        assert np.all(dists <= 0.5 * (1.0 + REL_EPS))
        assert 0.499 <= float(np.max(dists)) <= 0.5 * (1.0 + REL_EPS)

        exactness = next(c for c in summary.checks if c.name == "recovered_exactness")
        assert config.exactness_tol == 1e-8
        assert exactness.verdict == "satisfied"
        assert max(summary.meta["recovered_defects"].values()) <= 1e-8

        assert elapsed <= 5.0
        report(
            "criterion 1: backward constant-perturbation distance attains its bound "
            f"(max {np.max(dists):.12f} in [0.499, 0.5], limit exact at 1e-8, {elapsed:.2f}s)"
        )


class TestCriterion2ForwardPowerBound:
    def test_closed_form_series_and_certificates(self):
        spec = PowerControl(1.0, 2.0, 2.0, 2.0)
        closed = bound_closed_form(spec, 1.0, FORWARD)
        assert closed == pytest.approx(7.5, abs=1e-12)
        series, _ = bound_series_truncated(spec, 1.0, FORWARD, 60)
        assert series == pytest.approx(7.5, abs=1e-9)

        config = load("stability_forward_power.json")
        start = time.perf_counter()
        summary = cmd_stability(config)
        elapsed = time.perf_counter() - start

        assert summary.exit_code == EXIT_OK
        assert len(summary.sample_rows) == 200
        assert all(row["status"] == "converged" for row in summary.sample_rows)
        assert all(row["slack"] >= 0.0 for row in summary.sample_rows)
        assert all(row["declared_slack"] >= 0.0 for row in summary.sample_rows)
        assert elapsed <= 10.0
        report(
            "criterion 2: forward square-exponent bound is 7.5 (closed form and 60-term series) "
            f"and all 200 samples certify with nonnegative slack ({elapsed:.2f}s)"
        )


class TestCriterion3BoundDualityGrid:
    def test_grid_agreement_and_profile_consistency(self):
        config = load("bounds_table.json")
        summary = cmd_bounds_table(config)
        assert summary.exit_code == EXIT_OK
        power_rows = [r for r in summary.sample_rows if r["kind"] == "power"]
        assert len(power_rows) == 3 * 3 * 3 * 2
        assert all(r["rel_err"] <= 1e-9 for r in power_rows)

        profile_rows = [r for r in summary.sample_rows if r["kind"] == "profile"]
        assert len(profile_rows) == 9
        for row in profile_rows:
            assert row["rel_err"] <= 1e-9  # series vs closed form
            assert row["power_rel_err"] <= 1e-12  # cell-for-cell against power exp 2
        report(
            "criterion 3: closed form and 60-term series agree to 1e-9 on all "
            f"{len(power_rows)} grid cells; square profile matches power cells to 1e-12"
        )


class TestCriterion4AdditivityLadder:
    def test_exact_witnesses_pass_and_affine_shift_rejected(self):
        for name in ("lemma_transpose.json", "lemma_unitary.json"):
            config = load(name)
            assert config.samples == 1000 and config.dims == [2, 3, 4]
            summary = cmd_lemma_check(config)
            assert summary.exit_code == EXIT_OK
            asserted = [c for c in summary.checks if c.verdict != "vacuous"]
            assert all(c.verdict == "satisfied" for c in asserted)
            ladder_names = {"zero_at_zero", "oddness", "doubling", "tripling", "three_term_zero", "additivity"}
            for dim in (2, 3, 4):
                present = {c.name.split("/")[1] for c in summary.checks if c.name.startswith(f"dim{dim}/")}
                assert ladder_names | {"telescoping_equality"} <= present

        counter = cmd_lemma_check(load("lemma_affine_counterexample.json"))
        assert counter.exit_code == EXIT_VIOLATED
        first = counter.checks[0]
        assert first.name == "dim3/zero_at_zero"
        assert first.verdict == "violated"
        assert first.max_residual == pytest.approx(1.0, abs=1e-12)
        report(
            "criterion 4: transpose and unitary-conjugation pass all ladder steps and the "
            "telescoping equality at 1e-9 scale over 1000 samples in dims 2-4; the affine "
            "shift is rejected at the zero-value step with witness residual exactly 1"
        )


class TestCriterion5SuperstabilityDecay:
    def test_slopes_and_terminal_ratio(self):
        for power in (0.5, 0.9):
            f = Perturbed(
                ZeroMap(3),
                Perturbation(size=1e-2, power=power, direction=unit_direction(3, "corner"), mode="power"),
            )
            target = 2.0 * power - 2.0
            for i in range(25):
                a = random_element(900 + i, 3, 2.0)
                seq = superstability_decay_batch(f, a.entries[np.newaxis], 64)[0]
                slope = fit_loglog_slope(seq, start_n=4)
                assert slope == pytest.approx(target, abs=0.05)
                assert seq[63] <= seq[0] * 64.0**target * 1.1
        report(
            "criterion 5: constructed defect maps with exponents 0.5 and 0.9 decay with "
            "log-log slopes 2p-2 within 0.05 over n=4..64, terminal ratio within 1.1x"
        )


class TestCriterion6DivergenceDichotomy:
    def test_forward_diverges_backward_converges(self):
        raw = json.loads((CONFIG_DIR / "stability_backward_constant.json").read_text())
        raw["stabilizer"] = {"direction": "forward"}
        forward = cmd_stability(parse_config(raw))
        assert forward.exit_code == EXIT_DIVERGED
        assert forward.verdict == "diverged"
        for row in forward.sample_rows:
            trace = row["trace"]
            ratios = [trace[i + 1] / trace[i] for i in range(len(trace) - 1)][-5:]
            assert len(ratios) >= 1
            assert all(r >= 2.5 for r in ratios)

        backward = cmd_stability(load("stability_backward_constant.json"))
        assert backward.exit_code == EXIT_OK
        report(
            "criterion 6: forward run with a constant perturbation diverges (exit 2, residual "
            "growth factor 3 per step); the backward run on the same input converges (exit 0)"
        )


class TestCriterion7Uniqueness:
    def test_scale_shifted_runs_agree(self):
        # h(3a)/3 and h(a) stop the rescaled sequence at different points, so
        # their agreement can fail; a rerun at doubled max_iter cannot (a
        # converged sample stops before max_iter is read) and is not checked
        cfg = StabilizerConfig(max_iter=64, tol=1e-10, direction="auto")
        backward_map = build_map(load("stability_backward_constant.json").map_cfg, 3)
        fwd_config = load("stability_forward_power.json")
        forward_map = build_map(fwd_config.map_cfg, 3)
        r1 = verify_uniqueness(backward_map, cfg, seed=501, samples=50, norm_cap=10.0, tol=1e-9)
        r2 = verify_uniqueness(forward_map, cfg, seed=502, samples=50, norm_cap=1.0, tol=1e-9)
        assert r1.verdict == "satisfied"
        assert r2.verdict == "satisfied"
        report(
            "criterion 7: scale-shifted stabilizations h(3a)/3 agree with h(a) to 1e-9 scale on all "
            f"samples (worst discrepancies {r1.max_residual:.2e}, {r2.max_residual:.2e}); no doubled-depth "
            "rerun, which is bit-identical for converged samples"
        )


class TestCriterion8Determinism:
    def test_reports_byte_identical(self):
        for loader, cmd in (
            ("lemma_affine_counterexample.json", cmd_lemma_check),
            ("stability_backward_constant.json", cmd_stability),
            ("superstability_p05.json", cmd_superstability),
            ("bounds_table.json", cmd_bounds_table),
        ):
            first = report_json_bytes(cmd(load(loader)), timestamp="T")
            second = report_json_bytes(cmd(load(loader)), timestamp="T")
            assert first == second
        report(
            "criterion 8: repeated runs of every command produce byte-identical reports "
            "(timestamp excluded)"
        )

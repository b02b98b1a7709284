"""Stabilizer tests: control functions, iteration, bounds, uniqueness.

Closed-form bounds are cross-checked against high-precision partial sums
computed with mpmath (and exact rationals where exponents allow), written
independently of the implementation's own series code.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from stablab.algebra import random_element, spectral_norms
from stablab.mappings import (
    Identity,
    Perturbation,
    Perturbed,
    Transpose,
    ZeroMap,
    apply_array,
    unit_direction,
)
from stablab.stabilizer import (
    BACKWARD,
    FORWARD,
    BOUND_KINDS,
    CalibrationError,
    ControlDirectionError,
    DivergedError,
    PowerControl,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    calibrate_control,
    control_value,
    make_control,
    resolve_direction,
    stabilize_batch,
    verify_uniqueness,
)


# Each catalog kind by its definition: the config fields for a grid value x,
# the exponent of the one-argument function the oracle sums (t^x for power
# and profile, 1 per nonzero argument for constant) and its admissible
# directions.
CATALOG_ORACLE = {
    "power": (lambda x: {"exp1": x, "exp2": x, "exp3": x}, lambda x: x, (FORWARD, BACKWARD)),
    "profile": (lambda x: {"degree": x}, lambda x: x, (FORWARD, BACKWARD)),
    "constant": (lambda x: {}, lambda x: 0, (BACKWARD,)),
}
GRID_EXPONENTS = {FORWARD: (1.5, 2.0, 3.0), BACKWARD: (0.0, 0.25, 0.5)}


def mp_series(coeff, exponent, norm_a, direction, terms=200):
    """High-precision partial sum of the error series for a pure power control."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        na = mpmath.mpf(norm_a)
        c = mpmath.mpf(coeff)
        for i in range(terms):
            if direction == FORWARD:
                f = mpmath.mpf(3) ** i
                args = (na / f, 2 * na / f)
                weight = f
            else:
                f = mpmath.mpf(3) ** (i + 1)
                args = (na * f, 2 * na * f)
                weight = 1 / f
            term = c * sum(x**exponent if x > 0 else mpmath.mpf(0) for x in args)
            total += weight * term
        return float(total)


class TestControlValues:
    def test_power_control(self):
        spec = PowerControl(2.0, 1.0, 2.0, 3.0)
        assert control_value(spec, 1.0, 2.0, 3.0) == pytest.approx(2.0 * (1 + 4 + 27))

    def test_zero_to_any_exponent_is_zero(self):
        spec = PowerControl(1.0, 0.0, -1.0, 2.0)
        assert control_value(spec, 0.0, 0.0, 0.0) == 0.0

    def test_constant_counts_nonzero_arguments(self):
        spec = make_control("constant", 0.5, {})
        assert control_value(spec, 1.0, 2.0, 0.0) == pytest.approx(1.0)
        assert control_value(spec, 1.0, 2.0, 3.0) == pytest.approx(1.5)
        assert control_value(spec, 0.0, 0.0, 0.0) == 0.0

    def test_constant_agrees_with_zero_exponent_power(self):
        const = make_control("constant", 0.7, {})
        power = PowerControl(0.7, 0.0, 0.0, 0.0)
        assert const == power
        for args in [(1.0, 2.0, 0.0), (0.5, 0.0, 0.0), (3.0, 1.0, 2.0)]:
            assert control_value(const, *args) == control_value(power, *args)

    def test_profile_control(self):
        spec = make_control("profile", 1.0, {"degree": 2.0})
        assert spec == PowerControl(1.0, 2.0, 2.0, 2.0)
        assert control_value(spec, 2.0, 0.0, 3.0) == pytest.approx(4.0 + 9.0)


class TestDirectionValidation:
    def test_power_forward_needs_large_exponents(self):
        with pytest.raises(ControlDirectionError, match="forward"):
            bound_closed_form(PowerControl(1.0, 0.5, 2.0, 2.0), 1.0, FORWARD)

    def test_power_backward_needs_small_exponents(self):
        with pytest.raises(ControlDirectionError, match="backward"):
            bound_closed_form(PowerControl(1.0, 2.0, 2.0, 2.0), 1.0, BACKWARD)

    def test_constant_forward_rejected(self):
        with pytest.raises(ControlDirectionError, match="forward series needs exponents > 1"):
            bound_closed_form(make_control("constant", 1.0, {}), 1.0, FORWARD)

    def test_profile_conditions(self):
        with pytest.raises(ControlDirectionError, match="forward series needs exponents > 1"):
            bound_closed_form(make_control("profile", 1.0, {"degree": 0.5}), 1.0, FORWARD)
        with pytest.raises(ControlDirectionError, match="backward series needs exponents < 1"):
            bound_closed_form(make_control("profile", 1.0, {"degree": 2.0}), 1.0, BACKWARD)


class TestClosedForms:
    def test_forward_square_exponent_reference_value(self):
        assert bound_closed_form(PowerControl(1.0, 2.0, 2.0, 2.0), 1.0, FORWARD) == pytest.approx(
            7.5, abs=1e-12
        )

    def test_backward_zero_exponent_matches_constant(self):
        assert bound_closed_form(PowerControl(1.0, 0.0, 0.0, 0.0), 1.0, BACKWARD) == pytest.approx(
            1.0, abs=1e-12
        )
        assert bound_closed_form(make_control("constant", 0.7, {}), 1.0, BACKWARD) == pytest.approx(0.7)

    def test_profile_square_matches_power(self):
        assert bound_closed_form(make_control("profile", 1.0, {"degree": 2.0}), 1.0, FORWARD) == pytest.approx(
            7.5, abs=1e-12
        )

    def test_closed_forms_match_high_precision_series(self):
        assert set(CATALOG_ORACLE) == set(BOUND_KINDS)
        for kind, (fields, oracle_exponent, directions) in CATALOG_ORACLE.items():
            for direction in directions:
                for exp in GRID_EXPONENTS[direction]:
                    for coeff in (1e-3, 1.0, 10.0):
                        for norm_a in (0.0, 0.5, 1.0, 2.0):
                            spec = make_control(kind, coeff, fields(exp))
                            got = bound_closed_form(spec, norm_a, direction)
                            ref = mp_series(coeff, oracle_exponent(exp), norm_a, direction)
                            assert got == pytest.approx(ref, rel=1e-12), (kind, direction, exp, coeff, norm_a)

    def test_backward_rational_oracle(self):
        # exponent 0 admits an exact rational series: sum 3^-i * 2c = c
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(2, 3**i)
        assert float(total) == pytest.approx(1.0, abs=1e-15)
        assert bound_closed_form(make_control("constant", 1.0, {}), 5.0, BACKWARD) == pytest.approx(
            float(total), abs=1e-12
        )


class TestSeriesTruncated:
    def test_zero_control(self):
        assert bound_series_truncated(PowerControl(0.0, 2.0, 2.0, 2.0), 1.0, FORWARD, 10) == (0.0, 0.0)

    def test_backward_constant_forty_terms(self):
        value, tail = bound_series_truncated(make_control("constant", 1.0, {}), 1.0, BACKWARD, 40)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= tail < 1e-18

    def test_forward_square_sixty_terms(self):
        value, tail = bound_series_truncated(PowerControl(1.0, 2.0, 2.0, 2.0), 1.0, FORWARD, 60)
        assert value == pytest.approx(7.5, abs=1e-9)
        assert tail < 1e-12

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError, match="norm_a"):
            bound_series_truncated(make_control("constant", 1.0, {}), -1.0, BACKWARD, 10)

    def test_divergent_series_reports_infinite_tail(self):
        value, tail = bound_series_truncated(make_control("constant", 1.0, {}), 1.0, FORWARD, 10)
        assert tail == np.inf
        assert value > 1.0

    def test_consistency_grid_against_closed_form(self):
        for direction, exps in ((FORWARD, (1.5, 2.0, 3.0)), (BACKWARD, (0.0, 0.25, 0.5))):
            for exp in exps:
                for coeff in (1e-3, 1.0, 10.0):
                    spec = PowerControl(coeff, exp, exp, exp)
                    closed = bound_closed_form(spec, 1.0, direction)
                    series, _ = bound_series_truncated(spec, 1.0, direction, 60)
                    assert abs(series - closed) <= 1e-9 * closed


class TestStabilizePoint:
    """A single point is stabilized as a one-matrix stack."""

    def test_linear_map_is_fixed_point(self):
        a = random_element(200, 3, 2.0).entries[np.newaxis]
        res = stabilize_batch(Transpose(3), a, StabilizerConfig())[0]
        assert res.status == "converged"
        assert res.iterations_used == 1
        gap = spectral_norms(res.limit.entries - apply_array(Transpose(3), a))[0]
        assert gap <= 1e-14 * (1.0 + spectral_norms(a)[0])

    def test_backward_constant_recovers_base(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        a = random_element(201, 3, 2.0).entries[np.newaxis]
        res = stabilize_batch(f, a, StabilizerConfig())[0]
        assert res.status == "converged"
        assert res.direction == BACKWARD
        assert spectral_norms(res.limit.entries - a)[0] <= 1e-9 * (1.0 + spectral_norms(a)[0])
        assert spectral_norms(res.limit.entries - apply_array(f, a))[0] == pytest.approx(0.3, abs=1e-8)

    def test_forward_power_converges_fast(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-2, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        a = random_element(202, 3, 1.0).entries[np.newaxis]
        res = stabilize_batch(f, a, StabilizerConfig(tol=1e-14, max_iter=40))[0]
        assert res.status == "converged"
        assert res.direction == FORWARD
        assert res.iterations_used <= 30
        assert spectral_norms(res.limit.entries - a)[0] <= 1e-12

    def test_forward_constant_diverges_with_trace(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        a = random_element(203, 3, 2.0).entries[np.newaxis]
        res = stabilize_batch(f, a, StabilizerConfig(direction=FORWARD))[0]
        assert res.status == "diverged"
        assert res.limit is None
        ratios = [
            res.cauchy_residuals[i + 1] / res.cauchy_residuals[i]
            for i in range(len(res.cauchy_residuals) - 1)
        ]
        assert all(r == pytest.approx(3.0, rel=1e-9) for r in ratios)

    def test_zero_map_stabilizes_to_zero(self):
        res = stabilize_batch(ZeroMap(2), random_element(204, 2, 1.0).entries[np.newaxis], StabilizerConfig())[0]
        assert res.status == "converged"
        assert spectral_norms(res.limit.entries[np.newaxis])[0] == 0.0

    def test_auto_direction_resolution(self):
        power_high = Perturbed(
            Identity(2),
            Perturbation(size=0.1, power=2.0, direction=unit_direction(2, "identity"), mode="power"),
        )
        power_low = Perturbed(
            Identity(2),
            Perturbation(size=0.1, power=0.5, direction=unit_direction(2, "identity"), mode="power"),
        )
        const = Perturbed(
            Identity(2),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        cfg = StabilizerConfig()
        assert resolve_direction(power_high, cfg) == FORWARD
        assert resolve_direction(power_low, cfg) == BACKWARD
        assert resolve_direction(const, cfg) == BACKWARD
        assert resolve_direction(Transpose(2), cfg) is None
        assert resolve_direction(const, StabilizerConfig(direction=FORWARD)) == FORWARD

    def test_probe_picks_a_convergent_direction(self):
        res = stabilize_batch(Transpose(3), random_element(205, 3, 1.0).entries[np.newaxis], StabilizerConfig())[0]
        assert res.status == "converged"

    def test_batch_matches_point(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.2, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        A = np.stack([random_element(210 + i, 3, 2.0).entries for i in range(5)])
        batch = stabilize_batch(f, A, StabilizerConfig())
        for i in range(5):
            single = stabilize_batch(f, A[i : i + 1], StabilizerConfig())[0]
            assert batch[i].iterations_used == single.iterations_used
            assert np.allclose(batch[i].limit.entries, single.limit.entries, atol=1e-14)


class TestCalibration:
    def test_exact_map_calibrates_to_zero(self):
        spec = calibrate_control(Transpose(3), PowerControl(1.0, 2.0, 2.0, 2.0), seed=50, samples=100)
        assert spec.coeff <= 1e-9

    def test_zero_map_calibrates_to_zero(self):
        spec = calibrate_control(ZeroMap(3), make_control("constant", 1.0, {}), seed=51, samples=50)
        assert spec.coeff == 0.0

    def test_power_defect_calibrated_range(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-3, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        spec = calibrate_control(f, PowerControl(0.0, 2.0, 2.0, 2.0), seed=52, samples=300, norm_cap=1.0)
        assert 1e-3 <= spec.coeff <= 8e-3

    def test_sweep_detects_growth_for_square_defect(self):
        # the master-equation residual carries ||c||^4-order terms, so the
        # fitted coefficient grows with the cap and the sweep must flag it
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-3, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        with pytest.raises(CalibrationError):
            calibrate_control(
                f, PowerControl(0.0, 2.0, 2.0, 2.0), seed=53, samples=100, norm_cap=1.0, sweep_factor=3.0
            )

    def test_sweep_passes_for_exact_map(self):
        spec = calibrate_control(
            Transpose(3), PowerControl(1.0, 2.0, 2.0, 2.0), seed=54, samples=100, sweep_factor=3.0
        )
        assert spec.coeff <= 1e-9

    def test_needs_ten_samples(self):
        with pytest.raises(ValueError):
            calibrate_control(Transpose(2), make_control("constant", 1.0, {}), seed=55, samples=5)


class TestUniqueness:
    def test_exact_map_discrepancy_zero(self):
        report = verify_uniqueness(Transpose(3), StabilizerConfig(), seed=60, samples=20)
        assert report.verdict == "satisfied"
        assert report.max_residual <= 1e-12

    def test_backward_constant(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.4, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        report = verify_uniqueness(f, StabilizerConfig(), seed=61, samples=20)
        assert report.verdict == "satisfied"
        assert report.max_residual <= 1e-9

    def test_forward_power(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-2, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        report = verify_uniqueness(f, StabilizerConfig(), seed=62, samples=20, norm_cap=1.0)
        assert report.verdict == "satisfied"

    def test_divergence_propagates(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.4, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        with pytest.raises(DivergedError):
            verify_uniqueness(f, StabilizerConfig(direction=FORWARD), seed=63, samples=5)

"""Stabilizer tests: control functions, iteration, bounds, calibration.

Closed-form bounds are cross-checked against high-precision partial sums
computed with mpmath (and exact rationals where exponents allow), written
independently of the implementation's own series code.
"""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from stablab import algebra, checkers, harness, mappings, stabilizer
from stablab.algebra import NonFiniteError, random_element, random_elements, spectral_norms
from stablab.checkers import _stability_equation_values, superstability_decay_batch, superstability_shrinking_batch
from stablab.harness import EXIT_DIVERGED, _stopping_residuals, build_map, cmd_stability, load_config, parse_config
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
    DIVERGENCE_GROWTH_STEPS,
    FORWARD,
    BOUND_KINDS,
    ITERATE_OVERFLOW_LIMIT,
    CalibrationError,
    ControlDirectionError,
    PowerControl,
    StabilizerConfig,
    bound_closed_form,
    bound_series_truncated,
    calibrate_control,
    control_value,
    make_control,
    resolve_direction,
    stabilize_batch,
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


def reference_stabilize(f, a, cfg):
    """The stopping rules as a scalar loop over one (1, d, d) point: (status, iterations, trace, limit).

    The norm of 3^±n a is carried as ||a|| * 3^±n, as the iteration does.
    """
    norm = spectral_norms(a)
    scale = 1.0 + norm[0]
    h_prev = apply_array(f, a, norm)
    trace, grow, last = [], 0, float("inf")
    for n in range(1, cfg.max_iter + 1):
        factor = 3.0**n
        if resolve_direction(f, cfg) == FORWARD:
            h = factor * apply_array(f, a / factor, norm / factor)
        else:
            h = apply_array(f, a * factor, norm * factor) / factor
        r = float(spectral_norms(h - h_prev)[0])
        trace.append(r)
        if r <= cfg.tol * scale:
            return "converged", n, trace, h[0]
        grow = grow + 1 if r > last else 0
        last = r
        if np.max(np.abs(h)) > ITERATE_OVERFLOW_LIMIT or (grow >= DIVERGENCE_GROWTH_STEPS and r > trace[0]):
            return "diverged", n, trace, None
        h_prev = h
    return "exhausted", cfg.max_iter, trace, h[0]


def assert_matches_reference(f, A, cfg, results):
    """Each run equals reference_stabilize on its row: status, iterations and limit, and its stopping
    residuals (r_prev, r_last) are the last two entries of the reference trace, bit for bit.  Returns the traces."""
    r_prev, r_last = _stopping_residuals(results)
    traces = []
    for i, r in enumerate(results):
        status, iterations, trace, limit = reference_stabilize(f, A[i : i + 1], cfg)
        assert (r.status, r.iterations_used) == (status, iterations), i
        assert (r_prev[i], r_last[i]) == (trace[-2] if len(trace) > 1 else None, trace[-1]), i
        if limit is None:
            assert r.limit is None, i
        else:
            assert r.limit.tobytes() == limit.tobytes(), i
        traces.append(trace)
    return traces


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

    def test_norm_arrays_match_scalar_calls(self):
        spec = PowerControl(0.5, 0.25, 1.5, 0.0)
        na, nb, nc = np.array([0.0, 0.5, 2.0]), np.array([1.0, 0.0, 3.0]), np.array([0.0, 4.0, 0.0])
        values = control_value(spec, na, nb, nc)
        assert values.shape == (3,)
        for i in range(3):
            assert values[i] == pytest.approx(control_value(spec, na[i], nb[i], nc[i]), rel=1e-15)


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
                        spec = make_control(kind, coeff, fields(exp))
                        norms = (0.0, 0.5, 1.0, 2.0)
                        column = bound_closed_form(spec, np.array(norms), direction)
                        assert column.shape == (4,)
                        for norm_a, from_column in zip(norms, column):
                            got = bound_closed_form(spec, norm_a, direction)
                            ref = mp_series(coeff, oracle_exponent(exp), norm_a, direction)
                            assert got == pytest.approx(ref, rel=1e-12), (kind, direction, exp, coeff, norm_a)
                            assert from_column == pytest.approx(ref, rel=1e-12), (kind, direction, exp, coeff, norm_a)

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

    def test_norm_column_matches_scalar_calls(self):
        norms = np.array([0.0, 0.5, 1.0, 2.0])
        for direction, spec in ((FORWARD, PowerControl(2.0, 1.5, 3.0, 2.0)), (BACKWARD, make_control("constant", 1.0, {}))):
            values, tails = bound_series_truncated(spec, norms, direction, 30)
            assert values.shape == tails.shape == (4,)
            for i, norm_a in enumerate(norms):
                value, tail = bound_series_truncated(spec, float(norm_a), direction, 30)
                assert (values[i], tails[i]) == pytest.approx((value, tail), rel=1e-15)

    @pytest.mark.parametrize("direction, exp", [(FORWARD, 2.0), (FORWARD, 3.0), (BACKWARD, 0.0), (BACKWARD, 0.5)])
    def test_coefficient_column_matches_scalar_calls(self, direction, exp):
        # a (k, 1) coefficient column over (n,) norms: each cell equals its scalar-coefficient call bit for bit
        coeffs, norms = [0.0, 1e-3, 0.37, 10.0], np.array([0.0, 1e-8, 0.5, 1e6])
        column = PowerControl(np.array(coeffs)[:, np.newaxis], exp, exp, exp)
        closed = bound_closed_form(column, norms, direction)
        values, tails = bound_series_truncated(column, norms, direction, 40)
        assert closed.shape == values.shape == tails.shape == (4, 4)
        for k, coeff in enumerate(coeffs):
            spec = PowerControl(coeff, exp, exp, exp)
            assert np.array_equal(closed[k], bound_closed_form(spec, norms, direction))
            value, tail = bound_series_truncated(spec, norms, direction, 40)
            assert np.array_equal(values[k], value) and np.array_equal(tails[k], tail)

    def test_negative_coefficient_entry_rejected(self):
        with pytest.raises(ValueError, match="coeff"):
            PowerControl(np.array([[1.0], [-1e-300]]), 2.0, 2.0, 2.0)

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
        a = random_element(200, 3, 2.0)[np.newaxis]
        res = stabilize_batch(Transpose(3), a, StabilizerConfig(direction=FORWARD))[0]
        assert res.status == "converged"
        assert res.iterations_used == 1
        gap = spectral_norms(res.limit - apply_array(Transpose(3), a))[0]
        assert gap <= 1e-14 * (1.0 + spectral_norms(a)[0])

    def test_backward_constant_recovers_base(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        a = random_element(201, 3, 2.0)[np.newaxis]
        res = stabilize_batch(f, a, StabilizerConfig())[0]
        assert res.status == "converged"
        assert resolve_direction(f, StabilizerConfig()) == BACKWARD
        assert spectral_norms(res.limit - a)[0] <= 1e-9 * (1.0 + spectral_norms(a)[0])
        assert spectral_norms(res.limit - apply_array(f, a))[0] == pytest.approx(0.3, abs=1e-8)

    def test_forward_power_converges_fast(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-2, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        a = random_element(202, 3, 1.0)[np.newaxis]
        res = stabilize_batch(f, a, StabilizerConfig(tol=1e-14, max_iter=40))[0]
        assert res.status == "converged"
        assert resolve_direction(f, StabilizerConfig()) == FORWARD
        assert res.iterations_used <= 30
        assert spectral_norms(res.limit - a)[0] <= 1e-12

    def test_forward_constant_diverges_with_trace(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        a = random_element(203, 3, 2.0)[np.newaxis]
        cfg = StabilizerConfig(direction=FORWARD)
        results = stabilize_batch(f, a, cfg)
        assert results[0].status == "diverged"
        assert results[0].limit is None
        (trace,) = assert_matches_reference(f, a, cfg, results)
        ratios = [trace[i + 1] / trace[i] for i in range(len(trace) - 1)]
        assert len(ratios) >= DIVERGENCE_GROWTH_STEPS
        assert all(r == pytest.approx(3.0, rel=1e-9) for r in ratios)

    def test_zero_map_stabilizes_to_zero(self):
        a = random_element(204, 2, 1.0)[np.newaxis]
        res = stabilize_batch(ZeroMap(2), a, StabilizerConfig(direction=FORWARD))[0]
        assert res.status == "converged"
        assert spectral_norms(res.limit[np.newaxis])[0] == 0.0

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

    @pytest.mark.parametrize(
        "f",
        [
            Transpose(3),
            Perturbed(
                Identity(3),
                Perturbation(size=0.1, power=1.0, direction=unit_direction(3, "identity"), mode="power"),
            ),
        ],
        ids=["exact", "power_one"],
    )
    def test_unresolved_auto_direction_raises(self, f):
        with pytest.raises(ValueError, match="does not resolve"):
            stabilize_batch(f, random_element(205, 3, 1.0)[np.newaxis], StabilizerConfig())

    def test_batch_matches_point(self):
        """Each row of a stack, whatever its status, equals the row run alone and the scalar reference,
        stopping residuals included."""
        seeded = np.stack([random_element(210 + i, 3, 2.0) for i in range(5)])
        zero_row = seeded.copy()
        zero_row[2] = 0.0
        # norms from 0.02 to 200: the rows converge at different iterations
        spread = seeded * np.array([0.01, 0.1, 1.0, 10.0, 100.0])[:, np.newaxis, np.newaxis]
        cases = [
            ("constant", 0.0, 0.2, seeded, StabilizerConfig(direction=BACKWARD), {"converged"}),
            ("constant", 0.0, 0.2, spread, StabilizerConfig(direction=BACKWARD), {"converged"}),
            ("constant", 0.0, 0.2, zero_row, StabilizerConfig(direction=FORWARD), {"converged", "diverged"}),
            ("power", 0.5, 0.2, zero_row, StabilizerConfig(direction=FORWARD), {"converged", "diverged"}),
            # these samples need 20 or 21 iterations: max_iter 20 leaves two exhausted
            (
                "constant",
                0.0,
                0.3,
                random_elements(5, 6, 3, 2.0, stream=1),
                StabilizerConfig(max_iter=20, direction=BACKWARD),
                {"converged", "exhausted"},
            ),
        ]
        first_step_stops = 0
        for mode, power, size, A, cfg, statuses in cases:
            f = Perturbed(
                Identity(3),
                Perturbation(size=size, power=power, direction=unit_direction(3, "identity"), mode=mode),
            )
            batch = stabilize_batch(f, A, cfg)
            assert {r.status for r in batch} == statuses
            assert_matches_reference(f, A, cfg, batch)
            for i in range(len(A)):
                assert_matches_reference(f, A[i : i + 1], cfg, stabilize_batch(f, A[i : i + 1], cfg))
            first_step_stops += sum(r.iterations_used == 1 for r in batch)
        assert first_step_stops > 0  # a zero row stops at n = 1, with r_prev None

    @staticmethod
    def assert_same_results(got, expected):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert (g.status, g.iterations_used) == (e.status, e.iterations_used)
            assert (g.limit is None) == (e.limit is None)
            if g.limit is not None:
                assert g.limit.tobytes() == e.limit.tobytes()
            assert g.differences.tobytes() == e.differences.tobytes()

    def test_stopped_row_does_not_break_its_batch(self):
        # alone, 1e300 I converges at n = 1 and 0.5 I at n = 21; a stopped row that kept
        # being scaled by 3^n overflowed its carried norm and broke the batch
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.5, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        cfg = StabilizerConfig(tol=1e-10, direction=BACKWARD)
        A = np.stack([1e300 * np.eye(3), 0.5 * np.eye(3)]).astype(np.complex128)
        norms = np.array([1e300, 0.5])
        kept_a, kept_norms = A.copy(), norms.copy()
        batch = stabilize_batch(f, A, cfg, norms=norms)
        assert [(r.status, r.iterations_used) for r in batch] == [("converged", 1), ("converged", 21)]
        alone = [stabilize_batch(f, A[i : i + 1], cfg, norms=norms[i : i + 1])[0] for i in range(2)]
        self.assert_same_results(batch, alone)
        assert np.array_equal(A, kept_a) and np.array_equal(norms, kept_norms)  # the caller's arrays stay as given

    @pytest.mark.parametrize(
        "mode, power, direction, statuses",
        [
            ("power", 2.0, FORWARD, {"converged", "exhausted"}),
            ("power", 0.5, BACKWARD, {"converged", "exhausted"}),
            ("constant", 0.0, BACKWARD, {"converged", "exhausted"}),
            ("constant", 0.0, FORWARD, {"converged", "diverged"}),
        ],
    )
    def test_mixed_batch_equals_its_parts(self, mode, power, direction, statuses):
        # rows of norm 0 to 1e5 stop at different n, or not at all; the batch and any split of it
        # give each row its own result, bit for bit
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.3, power=power, direction=unit_direction(3, "identity"), mode=mode),
        )
        scales = np.array([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5])
        A = random_elements(12, 2 * len(scales), 3, 1.0) * np.tile(scales, 2)[:, np.newaxis, np.newaxis]
        cfg = StabilizerConfig(max_iter=20, direction=direction)
        batch = stabilize_batch(f, A, cfg)
        assert {r.status for r in batch} == statuses
        self.assert_same_results(batch, stabilize_batch(f, A[:5], cfg) + stabilize_batch(f, A[5:], cfg))
        self.assert_same_results(batch, [stabilize_batch(f, A[i : i + 1], cfg)[0] for i in range(len(A))])


class TestCarriedNorms:
    """Every norm the stabilizer and the decay sequences carry into apply_array equals a fresh SVD to a few ulps."""

    @staticmethod
    def recorded_calls(monkeypatch, module):
        calls = []
        real = module.apply_array

        def spy(f, xs, norms=None):
            calls.append((np.array(xs), norms))
            return real(f, xs, norms)

        monkeypatch.setattr(module, "apply_array", spy)
        return calls

    @staticmethod
    def assert_carried_norms_fresh(calls, expected_calls):
        assert len(calls) == expected_calls
        for xs, norms in calls:
            assert norms is not None
            np.testing.assert_allclose(norms, spectral_norms(xs), rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("direction,power", [(FORWARD, 2.0), (BACKWARD, 0.5)])
    def test_stabilizer_carries_scaled_norms(self, monkeypatch, direction, power):
        # a zero base keeps every residual above tol: all rows run n = 1..64
        f = Perturbed(ZeroMap(3), Perturbation(size=0.01, power=power, direction=unit_direction(3, "corner")))
        calls = self.recorded_calls(monkeypatch, stabilizer)
        results = stabilize_batch(f, random_elements(70, 20, 3, 4.0), StabilizerConfig(tol=1e-300, direction=direction))
        assert {r.status for r in results} == {"exhausted"}
        self.assert_carried_norms_fresh(calls, 1 + 64)

    @pytest.mark.parametrize("run", [superstability_decay_batch, superstability_shrinking_batch])
    def test_decay_carries_scaled_norms(self, monkeypatch, run):
        f = Perturbed(ZeroMap(3), Perturbation(size=0.01, power=0.5, direction=unit_direction(3, "corner")))
        calls = self.recorded_calls(monkeypatch, checkers)
        run(f, random_elements(71, 20, 3, 4.0), 32)
        self.assert_carried_norms_fresh(calls, 2 * (32 // checkers.DECAY_BLOCK))  # two calls per block of n

    def test_stabilizer_takes_the_drawn_norms(self, monkeypatch):
        # a sampled stack comes with its drawn norms, so stabilize_batch never norms it
        f = Perturbed(ZeroMap(3), Perturbation(size=0.01, power=2.0, direction=unit_direction(3, "corner")))
        drawn = np.empty(20)
        A = random_elements(70, 20, 3, 4.0, norms_out=drawn)
        cfg = StabilizerConfig(direction=FORWARD)
        plain = stabilize_batch(f, A, cfg)
        given = stabilize_batch(f, A, cfg, norms=spectral_norms(A))
        assert [r.limit.tobytes() for r in given] == [r.limit.tobytes() for r in plain]  # the same norms, bit for bit
        calls = self.recorded_calls(monkeypatch, stabilizer)

        def refused(mats):
            raise AssertionError("a stack with drawn norms is normed again")

        monkeypatch.setattr(stabilizer, "spectral_norms", refused)
        carried = stabilize_batch(f, A, cfg, norms=drawn)
        assert calls[0][1] is drawn
        self.assert_carried_norms_fresh(calls, 1 + max(r.iterations_used for r in plain))
        assert [(r.status, r.iterations_used) for r in carried] == [(r.status, r.iterations_used) for r in plain]

    @pytest.mark.parametrize("run", [superstability_decay_batch, superstability_shrinking_batch])
    def test_decay_takes_the_drawn_norms(self, monkeypatch, run):
        f = Perturbed(ZeroMap(3), Perturbation(size=0.01, power=0.5, direction=unit_direction(3, "corner")))
        drawn = np.empty(20)
        A = random_elements(71, 20, 3, 4.0, norms_out=drawn)
        assert np.array_equal(run(f, A, 32, norms=spectral_norms(A)), run(f, A, 32))
        normed = []
        real = checkers.spectral_norms
        monkeypatch.setattr(checkers, "spectral_norms", lambda mats: normed.append(mats.shape) or real(mats))
        calls = self.recorded_calls(monkeypatch, checkers)
        run(f, A, 32, norms=drawn)
        assert np.array_equal(calls[0][1][0], drawn)  # f(n a) at n = 1 reads the drawn norms
        self.assert_carried_norms_fresh(calls, 2 * (32 // checkers.DECAY_BLOCK))
        assert len(normed) == 1 + 32 // checkers.DECAY_BLOCK  # a^2 once, then one call per block; never a itself


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

    def test_matches_scalar_reference_loop(self):
        # the worst residual-to-control ratio, written one sample at a time
        f = Perturbed(Identity(3), Perturbation(size=0.2, power=0.5, direction=unit_direction(3, "corner"), mode="power"))
        exps = (0.5, 0.25, 1.5)
        spec = calibrate_control(f, PowerControl(1.0, *exps), seed=56, samples=40, norm_cap=3.0)
        A, B, C = (random_elements(56, 40, 3, 3.0, stream=40 + k) for k in range(3))
        residuals = spectral_norms(_stability_equation_values(f, A, B, C))
        worst = 0.0
        for a, b, c, r in zip(A, B, C, residuals):
            norms = spectral_norms(np.stack([a, b, c]))
            base = sum(float(n) ** e for n, e in zip(norms, exps) if n > 0.0)
            if base > 0.0:
                worst = max(worst, float(r) / base)
        assert worst > 0.0
        assert spec.coeff == pytest.approx(worst, rel=1e-14)

    def test_needs_ten_samples(self):
        with pytest.raises(ValueError):
            calibrate_control(Transpose(2), make_control("constant", 1.0, {}), seed=55, samples=5)


class TestUniqueness:
    """The stabilized limit of a perturbed identity is its exact base, whatever the run's stopping point."""

    @staticmethod
    def limits_and_gaps(f, cfg, seed, samples, norm_cap):
        norms = np.empty(samples)
        A = random_elements(seed, samples, 3, norm_cap, stream=50, norms_out=norms)
        results = stabilize_batch(f, A, cfg)
        assert all(r.converged for r in results)
        h = np.stack([r.limit for r in results])
        shifted = stabilize_batch(f, 3.0 * A, cfg)
        assert all(r.converged for r in shifted)
        h_shift = np.stack([r.limit for r in shifted]) / 3.0
        scales = 1.0 + norms
        return spectral_norms(h - apply_array(f.base, A)) / scales, spectral_norms(h_shift - h) / scales

    def test_backward_constant(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.4, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        to_base, to_shift = self.limits_and_gaps(f, StabilizerConfig(), seed=61, samples=20, norm_cap=10.0)
        assert np.max(to_base) <= 1e-9
        assert np.max(to_shift) <= 1e-9

    def test_forward_power(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1e-2, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        to_base, to_shift = self.limits_and_gaps(f, StabilizerConfig(), seed=62, samples=20, norm_cap=1.0)
        assert np.max(to_base) <= 1e-9
        assert np.max(to_shift) <= 1e-9

    def test_divergence_propagates(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.4, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        A = random_elements(63, 5, 3, 10.0, stream=50)
        results = stabilize_batch(f, A, StabilizerConfig(direction=FORWARD))
        assert all(r.status == "diverged" and r.limit is None for r in results)
        # the stability command stops at the diverged samples and judges no law on them
        raw = {
            "schema": 1,
            "algebra": {"dim": 3},
            "map": {
                "kind": "perturbed",
                "base": {"kind": "identity"},
                "perturbation": {"mode": "constant", "size": 0.4, "direction": "identity"},
            },
            "bound": {"kind": "profile", "coeff": 0.4, "degree": 2.0},  # a control that can certify forward
            "sampling": {"seed": 63, "samples": 5, "norm_cap": 10.0},
            "stabilizer": {"direction": "forward"},
        }
        summary = cmd_stability(parse_config(raw))
        assert summary.exit_code == EXIT_DIVERGED
        assert summary.meta["diverged_samples"] == 5
        assert "recovered_defects" not in summary.meta


def perturbed_identity(d, mode, power, size=0.3, odd=False):
    return Perturbed(
        Identity(d), Perturbation(size=size, power=power, direction=unit_direction(d, "identity"), mode=mode, odd=odd)
    )


def criterion6_forward_run():
    """The shipped backward-constant config's map and samples, iterated forward (acceptance criterion 6)."""
    config = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "stability_backward_constant.json"))
    A = random_elements(config.seed, config.samples, config.dim, config.norm_cap, stream=60)
    return build_map(config.map_cfg, config.dim), A, StabilizerConfig(direction=FORWARD)


class TestTracelessRuns:
    """A run decides on Frobenius brackets and keeps no trace; its statuses, iterations, limits and
    stopping residuals are those of the exactly normed scalar reference, bit for bit."""

    @staticmethod
    def assert_same_runs(f, A, cfg):
        """The run's results, checked against reference_stabilize, and the reference traces."""
        results = stabilize_batch(f, A, cfg)
        return results, assert_matches_reference(f, A, cfg, results)

    def test_converged_exhausted_and_diverged(self):
        spread = random_elements(80, 40, 3, 2.0, stream=1) * np.logspace(-3, 3, 40)[:, None, None]
        spread[7] = 0.0
        cases = [
            (perturbed_identity(3, "constant", 0.0), spread, StabilizerConfig(direction=BACKWARD), {"converged"}),
            (
                perturbed_identity(3, "power", 2.0, size=1e-2, odd=True),
                random_elements(81, 40, 3, 1.0, stream=1),
                StabilizerConfig(tol=1e-14),
                {"converged"},
            ),
            # these samples need 20 or 21 iterations: max_iter 20 leaves two exhausted
            (
                perturbed_identity(3, "constant", 0.0),
                random_elements(5, 6, 3, 2.0, stream=1),
                StabilizerConfig(max_iter=20, direction=BACKWARD),
                {"converged", "exhausted"},
            ),
            (
                perturbed_identity(3, "power", 0.5),
                spread,
                StabilizerConfig(direction=FORWARD),
                {"converged", "diverged"},
            ),
            (*criterion6_forward_run(), {"diverged"}),
        ]
        for f, A, cfg, statuses in cases:
            assert {r.status for r in self.assert_same_runs(f, A, cfg)[0]} == statuses

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_open_growth_comparison(self, d):
        # Forward, a power-0.9 defect grows by 3^0.1 per step, and each residual
        # is a multiple of the identity direction, whose Frobenius norm is
        # sqrt(d) times its spectral norm: consecutive brackets overlap, so
        # every growth step is decided only by norming both residuals.
        f = perturbed_identity(d, "power", 0.9)
        A = random_elements(82, 20, d, 4.0, stream=1)
        results, traces = self.assert_same_runs(f, A, StabilizerConfig(direction=FORWARD))
        for r, trace in zip(results, traces, strict=True):
            assert r.status == "diverged" and r.iterations_used == 1 + DIVERGENCE_GROWTH_STEPS
            ratios = np.divide(trace[1:], trace[:-1])
            assert np.all((ratios > 1.0) & (ratios < np.sqrt(d)))

    def test_first_residual_is_normed_when_the_divergence_rule_needs_it(self, monkeypatch):
        # A scripted backward run on one norm-1 sample: h_n = H[n], so the
        # residuals are the norms of D[1], D[2], ...  The drop at step 2 is
        # decided by the brackets alone, so nothing norms the first residual
        # before step 7 asks whether the fifth growth ends above it: the
        # rank-one D[7] (norm 1.2, bracket [1.2/sqrt(2), 1.2]) against the
        # identity D[1] (norm 1, bracket [1/sqrt(2), sqrt(2)]).
        d = 2
        eye, corner = np.eye(d), np.diag([1.0, 0.0])
        steps = [0.0 * eye, eye, *(0.01 * 2.0**k * eye for k in range(5)), 1.2 * corner, 0.0 * eye, 0.0 * eye]
        H = np.cumsum(steps, axis=0).astype(complex)

        def scripted(f, xs, norms=None):
            n = round(math.log(norms[0]) / math.log(3.0))  # backward, xs = 3^n a with ||a|| = 1
            return 3.0**n * H[n][np.newaxis]

        monkeypatch.setattr(stabilizer, "apply_array", scripted)
        monkeypatch.setitem(globals(), "apply_array", scripted)  # the reference runs the same script
        sample = np.eye(d, dtype=complex)[np.newaxis]
        results, _ = self.assert_same_runs(Identity(d), sample, StabilizerConfig(direction=BACKWARD))
        assert (results[0].status, results[0].iterations_used) == ("diverged", 7)

    def test_overflow_with_both_parts_below_the_limit(self, monkeypatch):
        # A scripted backward run on one norm-1 sample whose third iterate has
        # the entry 0.75e150 (1 + 1j): its modulus, about 1.06e150, passes
        # ITERATE_OVERFLOW_LIMIT while its real and imaginary parts stay below
        # it, so the run diverges at step 3 only if the modulus is tested.
        d = 2
        eye, corner = np.eye(d), np.diag([1.0, 0.0])
        H = np.stack([0.0 * eye, eye, 2.0 * eye, 2.0 * eye + 0.75e150 * (1.0 + 1.0j) * corner, 2.0 * eye])

        def scripted(f, xs, norms=None):
            n = round(math.log(norms[0]) / math.log(3.0))  # backward, xs = 3^n a with ||a|| = 1
            return 3.0**n * H[n][np.newaxis]

        monkeypatch.setattr(stabilizer, "apply_array", scripted)
        monkeypatch.setitem(globals(), "apply_array", scripted)  # the reference runs the same script
        sample = np.eye(d, dtype=complex)[np.newaxis]
        results, _ = self.assert_same_runs(Identity(d), sample, StabilizerConfig(max_iter=4, direction=BACKWARD))
        assert (results[0].status, results[0].iterations_used) == ("diverged", 3)

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    @pytest.mark.parametrize("mode,power", [("constant", 0.0), ("affine", 0.0), ("power", 0.5), ("power", 2.0)])
    def test_differences_at_extreme_scales(self, direction, mode, power):
        # norms from 1e-200 to 1e140: residuals with subnormal entries, or whose
        # squares overflow, get the unbounded bracket and are normed exactly
        A = random_elements(83, 40, 3, 2.0, stream=1) * np.logspace(-200, 140, 40)[:, None, None]
        self.assert_same_runs(perturbed_identity(3, mode, power), A, StabilizerConfig(max_iter=20, direction=direction))


class TestTracedRuns:
    """The samples' own run in `stability`, whose report shows each row's stopping residuals: the run norms
    each sample once, reads a residual's entries (tighten) or norms it (refine) only where the bracket
    leaves a decision open, never after its row stops; the report then norms every row's last two
    differences in one call."""

    @pytest.mark.parametrize(
        "mode,power,cfg,statuses",
        [
            ("constant", 0.0, StabilizerConfig(max_iter=20, direction=BACKWARD), {"converged", "exhausted"}),
            ("power", 0.5, StabilizerConfig(direction=FORWARD), {"converged", "diverged"}),
        ],
    )
    def test_traced_run_norms_only_running_rows(self, monkeypatch, mode, power, cfg, statuses):
        spread = random_elements(80, 40, 3, 2.0, stream=1) * np.logspace(-3, 3, 40)[:, None, None]
        spread[7] = 0.0  # converges at the first iteration
        f = perturbed_identity(3, mode, power)
        calls = []
        real = stabilizer.spectral_norms

        def counted(mats):
            norms = real(mats)
            calls.append(norms.size)
            return norms

        # the samples are normed in stabilizer, the residuals in NormBracket.refine, the stopping residuals in harness
        for module in (algebra, stabilizer, mappings, harness):
            monkeypatch.setattr(module, "spectral_norms", counted)
        # the open rows each stage reads, with the iteration it reads them at: the brackets made so far
        brackets, reads = [], {"tighten": [], "refine": []}

        class Recorded(algebra.NormBracket):
            def __init__(self, mats):
                super().__init__(mats)
                brackets.append(self)

            def tighten(self, rows):
                reads["tighten"].append((len(brackets), rows & (self.lo < self.hi)))
                super().tighten(rows)

            def refine(self, rows):
                reads["refine"].append((len(brackets), rows & (self.lo < self.hi)))
                super().refine(rows)

        monkeypatch.setattr(stabilizer, "NormBracket", Recorded)
        results = stabilize_batch(f, spread, cfg)
        in_run = sum(calls)
        iterations = np.array([r.iterations_used for r in results])
        assert {r.status for r in results} == statuses and len(set(iterations)) > 1
        # neither stage reads a row at an iteration after the one where it stopped
        for stage in reads.values():
            assert all(np.all(iterations[rows] >= n) for n, rows in stage)
        # at most each running row's residual once (sample 7's first residual is the exact zero bracket)
        assert in_run <= len(results) + sum(iterations) - 1
        # 775 (constant) and 274 (power) when every running row's residual was normed for a trace, 54 and
        # 274 when the Frobenius bracket alone settled decisions; the entrywise bracket settles every
        # decision of both runs now, so only the 40 samples are normed, and 14 (constant) and 234
        # (power) residuals are tightened
        assert in_run == len(results)
        tightened = sum(int(rows.sum()) for _, rows in reads["tighten"])
        assert tightened == {"constant": 14, "power": 234}[mode]
        before = len(calls)
        _stopping_residuals(results)
        assert calls[before:] == [2 * len(results)]

    @pytest.mark.parametrize("given_norms", [True, False])
    def test_non_finite_difference_raises(self, monkeypatch, given_norms):
        # a map value that turns NaN at the second iterate leaves a non-finite residual,
        # whether the caller passes the sample's norm or the stack is normed here
        def jump(f, xs, norms=None):
            return np.full(xs.shape, np.nan if norms[0] > 5.0 else 1.0, dtype=complex)

        monkeypatch.setattr(stabilizer, "apply_array", jump)
        sample = np.eye(2, dtype=complex)[np.newaxis]
        norms = np.ones(1) if given_norms else None
        with pytest.raises(NonFiniteError):
            stabilize_batch(Identity(2), sample, StabilizerConfig(direction=BACKWARD), norms=norms)

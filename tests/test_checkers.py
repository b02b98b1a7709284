"""Residual checker tests with independent oracles.

Expected values for the twisted residuals come from symbolic expansion of
the expressions for linear maps (computed here with plain numpy, never with
the checker under test).
"""

import numpy as np
import pytest

from stablab.algebra import Element, element, identity, op_norm, random_element, random_elements, spectral_norms
from stablab.checkers import (
    DecayOverflowError,
    _split_values,
    _stability_equation_values,
    additivity_ladder,
    fit_loglog_slope,
    phase_substitution_checks,
    phase_sweep_report,
    superstability_decay_batch,
    superstability_shrinking_batch,
    telescoping_check,
)
from stablab.mappings import (
    Identity,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    _conj_t,
    apply_array,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)


def sample_triple(seed, dim=3, cap=5.0):
    """Three seeded one-matrix stacks, the shape every batched kernel takes."""
    return tuple(random_element(seed + k, dim, cap).entries[np.newaxis] for k in range(3))


def constant_perturbed(dim=3, size=0.5, direction="identity"):
    return Perturbed(
        Identity(dim),
        Perturbation(size=size, power=0.0, direction=unit_direction(dim, direction), mode="constant"),
    )


class TestTripleSplit:
    def test_arguments_telescope_to_a(self):
        a, b, c = sample_triple(60)
        total = (b - a) / 3.0 + (a - 3.0 * c) / 3.0 + (3.0 * a + 3.0 * c - b) / 3.0
        assert np.allclose(total, a, atol=1e-14)

    def test_identity_map_gives_equality(self):
        a, b, c = sample_triple(61)
        lhs, rhs = _split_values(Identity(3), a, b, c)
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-12)
        assert rhs[0] == pytest.approx(spectral_norms(a)[0], rel=1e-12)

    def test_zero_map_gives_zero_pair(self):
        a, b, c = sample_triple(62)
        lhs, rhs = _split_values(ZeroMap(3), a, b, c)
        assert (lhs[0], rhs[0]) == (0.0, 0.0)

    def test_constant_perturbation_stays_within_triangle_budget(self):
        # each of the three evaluated terms moves by at most size*||dir||
        f = constant_perturbed(size=0.5)
        for seed in range(63, 75):
            lhs, rhs = _split_values(f, *sample_triple(seed))
            assert abs(lhs[0] - rhs[0]) <= 3 * 0.5 * 1.0 + 1e-9

    def test_phase_one_reduces_bitwise(self):
        f = Transpose(3)
        a, b, c = sample_triple(80)
        phased = _split_values(f, a, b, c, phase=complex(1.0))
        plain = _split_values(f, a, b, c)
        assert all(np.array_equal(x, y) for x, y in zip(phased, plain))

    def test_proof_substitution_vanishes(self):
        # a = b = 0 collapses the twisted inequality to f(-mu c) + mu f(c)
        c = random_element(90, 3, 2.0).entries[np.newaxis]
        z = np.zeros_like(c)
        lhs, _ = _split_values(Identity(3), z, z, c, phase=1j)
        assert lhs[0] <= 1e-14

    def test_phase_minus_one_expansion_oracle(self):
        # for the identity map the twisted sum collapses to (1-mu)b/3 + mu*a
        a, b, c = sample_triple(91)
        lhs, _ = _split_values(Identity(3), a, b, c, phase=complex(-1.0))
        expected = op_norm(Element(2.0 * b[0] / 3.0 - a[0]))
        assert lhs[0] == pytest.approx(expected, rel=1e-10)


class TestStabilityEquation:
    def test_exact_jordan_map_vanishes(self):
        f = Transpose(3)
        for seed in (100, 103, 106):
            a, b, c = sample_triple(seed)
            scale = 1.0 + max(spectral_norms(x)[0] for x in (a, b, c))
            assert _stability_equation_values(f, a, b, c)[0] <= 1e-9 * scale

    def test_key_substitution_doubles_argument(self):
        # b = 2a, c = 0 collapses the equation to 3 f(a/3) - f(a)
        a = random_element(110, 3, 3.0).entries[np.newaxis]
        r = _stability_equation_values(Identity(3), a, 2.0 * a, np.zeros_like(a))[0]
        assert r <= 1e-14 * (1.0 + spectral_norms(a)[0])

    def test_imaginary_phase_expansion_oracle(self):
        # for the identity with c = 0 the expression equals (mu - 1) a
        a, b, _ = sample_triple(111)
        r = _stability_equation_values(Identity(3), a, b, np.zeros_like(a), phase=1j)[0]
        assert r == pytest.approx(abs(1j - 1.0) * spectral_norms(a)[0], rel=1e-10)

    def test_argument_forms_agree(self):
        # (3a - b)/3 + c and (3a + 3c - b)/3 are the same up to rounding
        a, b, c = sample_triple(112)
        form_a = (3.0 * a - b) / 3.0 + c
        form_b = (3.0 * a + 3.0 * c - b) / 3.0
        assert np.allclose(form_a, form_b, atol=1e-13)


class TestDefects:
    """The square defect is column 0 of the decay sequence; the star defect is written out."""

    def test_exact_map_square_defect_vanishes(self):
        for seed in range(120, 126):
            a = random_element(seed, 3, 5.0)
            defect = superstability_decay_batch(Transpose(3), a.entries[np.newaxis], 2)[0, 0]
            assert defect <= 1e-10 * (1.0 + op_norm(a) ** 2)

    def test_zero_map_square_defect_zero(self):
        A = random_element(5, 3, 2.0).entries[np.newaxis]
        assert superstability_decay_batch(ZeroMap(3), A, 2)[0, 0] == 0.0

    def test_power_perturbation_square_defect_budget(self):
        # expansion oracle: f(a^2)-f(a)^2 = eps(a^2) - {a, eps(a)} - eps(a)^2
        size, power = 1e-3, 2.0
        f = Perturbed(
            Identity(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(130, 140):
            a = random_element(seed, 3, 2.0)
            na = op_norm(a)
            nasq = op_norm(Element(a.entries @ a.entries))
            budget = size * nasq**power + 2 * size * na ** (power + 1) + size**2 * na ** (2 * power)
            assert superstability_decay_batch(f, a.entries[np.newaxis], 2)[0, 0] <= budget + 1e-12

    def test_star_defect_unitary_conjugation(self):
        u = phase_permutation_unitary(3, seed=3)
        f = UnitaryConjugation(u)
        # oracle: (u a u*)* == u a* u*
        a = random_element(140, 3, 2.0)
        lhs = (u.entries @ a.entries @ u.entries.conj().T).conj().T
        rhs = u.entries @ a.entries.conj().T @ u.entries.conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)
        A = a.entries[np.newaxis]
        defect = spectral_norms(apply_array(f, _conj_t(A)) - _conj_t(apply_array(f, A)))[0]
        assert defect <= 1e-10 * (1.0 + op_norm(a))

    def test_star_defect_self_adjoint_direction_and_point(self):
        f = constant_perturbed(size=0.3)
        sym = element([[1, 2], [2, -1]])
        pad = np.pad(sym.entries, ((0, 1), (0, 1)))[np.newaxis]
        assert spectral_norms(apply_array(f, _conj_t(pad)) - _conj_t(apply_array(f, pad)))[0] <= 1e-13

    def test_star_defect_skew_direction_value(self):
        # f = id + 0.4 * e01 on a = I: defect is 0.4 * ||e01 - e10|| = 0.4
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.4, power=0.0, direction=element([[0, 1], [0, 0]]), mode="constant"),
        )
        eye = identity(2).entries[np.newaxis]
        defect = spectral_norms(apply_array(f, _conj_t(eye)) - _conj_t(apply_array(f, eye)))[0]
        assert defect == pytest.approx(0.4, rel=1e-11)


class TestAdditivityLadder:
    def test_exact_map_passes_all_steps(self):
        reports = additivity_ladder(Identity(3), seed=7, samples=200, tol=1e-9)
        assert [r.name for r in reports] == [
            "zero_at_zero",
            "oddness",
            "doubling",
            "tripling",
            "three_term_zero",
            "additivity",
        ]
        assert all(r.verdict == "satisfied" for r in reports)
        assert max(r.max_residual for r in reports) <= 1e-10 * 40

    def test_affine_shift_fails_at_zero_with_exact_residual(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1.0, power=0.0, direction=unit_direction(3, "identity"), mode="affine"),
        )
        reports = additivity_ladder(f, seed=8, samples=50, tol=1e-9)
        assert reports[0].name == "zero_at_zero"
        assert reports[0].verdict == "violated"
        assert reports[0].max_residual == pytest.approx(op_norm(identity(3)), abs=1e-12)

    def test_small_power_defect_doubling_budget(self):
        # expansion oracle: f(2c) - 2f(c) = eps(2c) - 2 eps(c), so the
        # doubling residual is at most size * (2^power + 2) * ||c||^power
        size, power = 1e-3, 2.0
        f = Perturbed(
            Identity(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(160, 190):
            c = random_element(seed, 3, 10.0)
            C = c.entries[np.newaxis]
            residual = spectral_norms(apply_array(f, 2.0 * C) - 2.0 * apply_array(f, C))[0]
            assert residual <= size * (2.0**power + 2.0) * op_norm(c) ** power + 1e-12

    def test_telescoping_check(self):
        report = telescoping_check(UnitaryConjugation(phase_permutation_unitary(3, 11)), seed=10, samples=200, tol=1e-9)
        assert report.verdict == "satisfied"

    def test_split_inequality_check_for_exact_map(self):
        # lhs <= rhs at scale-relative tolerance on the sampled triples
        A, B, C = (random_elements(12, 200, 2, 10.0, stream=s) for s in (30, 31, 32))
        lhs, rhs = _split_values(Transpose(2), A, B, C)
        scales = 1.0 + np.maximum(np.maximum(spectral_norms(A), spectral_norms(B)), spectral_norms(C))
        assert np.all(lhs - rhs <= 1e-9 * scales)


class TestPhaseChecks:
    def test_substitution_patterns_for_exact_maps(self):
        grid = unit_circle_grid(16)
        for f in (Identity(3), Transpose(3)):
            reports = phase_substitution_checks(f, grid, seed=13, samples=100, tol=1e-9)
            assert [r.name for r in reports] == ["phase_oddness", "phase_homogeneity"]
            assert all(r.verdict == "satisfied" for r in reports)

    def test_sweep_reports_do_not_assert(self):
        grid = unit_circle_grid(8)
        reports = phase_sweep_report(Identity(3), grid, seed=14, samples=30)
        assert all(r.verdict == "vacuous" for r in reports)
        # for exact maps the swept residual is genuinely nonzero away from 1
        assert reports[1].max_residual > 0.1


class TestSuperstabilityDecay:
    def test_exact_map_sequence_vanishes(self):
        a = random_element(150, 3, 2.0)
        seq = superstability_decay_batch(Transpose(3), a.entries[np.newaxis], 16)[0]
        assert max(seq) <= 1e-9 * (1.0 + op_norm(a) ** 2)

    def test_first_term_is_square_defect(self):
        f = constant_perturbed(size=0.2)
        A = random_element(151, 3, 2.0).entries[np.newaxis]
        seq = superstability_decay_batch(f, A, 4)[0]
        fa = apply_array(f, A)
        assert seq[0] == spectral_norms(apply_array(f, A @ A) - fa @ fa)[0]

    def test_constructed_defect_exponent_half(self):
        # zero base + nilpotent direction: the square defect is exactly
        # size * ||x^2||^power, so d_n = size * ||a^2||^p * n^(2p-2)
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        a = random_element(152, 3, 2.0)
        seq = superstability_decay_batch(f, a.entries[np.newaxis], 64)[0]
        nasq = op_norm(Element(a.entries @ a.entries))
        expected = [size * nasq**power * n ** (2 * power - 2) for n in range(1, 65)]
        assert np.allclose(seq, expected, rtol=1e-9)
        slope = fit_loglog_slope(seq, start_n=4)
        assert slope == pytest.approx(2 * power - 2, abs=0.05)

    def test_pointwise_domination(self):
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        for seed in (153, 154):
            a = random_element(seed, 3, 2.0)
            na = op_norm(a)
            seq = superstability_decay_batch(f, a.entries[np.newaxis], 32)[0]
            for n, d in enumerate(seq, start=1):
                assert d <= size * n ** (2 * power - 2) * na ** (2 * power) + 1e-12

    def test_shrinking_variant_for_large_exponent(self):
        size, power = 1e-2, 2.0
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        a = random_element(155, 3, 2.0)
        seq = superstability_shrinking_batch(f, a.entries[np.newaxis], 64)[0]
        slope = fit_loglog_slope(seq, start_n=4)
        assert slope == pytest.approx(2 - 2 * power, abs=0.05)

    def test_star_decay_slope(self):
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        # s_n = ||f(n a*) - f(n a)*|| / n, the involution-defect decay
        A = random_element(156, 3, 2.0).entries[np.newaxis]
        seq = [spectral_norms(apply_array(f, n * _conj_t(A)) - _conj_t(apply_array(f, n * A)))[0] / n for n in range(1, 65)]
        slope = fit_loglog_slope(seq, start_n=4)
        assert slope == pytest.approx(power - 1, abs=0.05)

    def test_overflow_guard(self):
        big = np.eye(2)[np.newaxis] * 1e60
        with pytest.raises(DecayOverflowError):
            superstability_decay_batch(Identity(2), big, 8)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            superstability_decay_batch(Identity(2), identity(2).entries[np.newaxis], 1)


class TestExactMapDefectSweep:
    def test_defect_residuals_over_thousand_samples(self):
        # both defect functionals stay at noise scale for exact maps across
        # dims 2-4 on a thousand seeded samples each
        for dim in (2, 3, 4):
            f = Transpose(dim)
            A = random_elements(777, 1000, dim, 10.0, stream=dim)
            scales = 1.0 + spectral_norms(A) ** 2
            jordan = superstability_decay_batch(f, A, 2)[:, 0]
            assert np.all(jordan <= 1e-9 * scales)
            astar = np.conj(np.swapaxes(A, -1, -2))
            fa = apply_array(f, A)
            star = spectral_norms(apply_array(f, astar) - np.conj(np.swapaxes(fa, -1, -2)))
            assert np.all(star <= 1e-9 * (1.0 + spectral_norms(A)))


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        values = [3.5 * n**-1.25 for n in range(1, 40)]
        assert fit_loglog_slope(values, start_n=4) == pytest.approx(-1.25, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 0.0, 1.0, 1.0, 0.0, 0.5], start_n=4)

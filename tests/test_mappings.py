"""Map catalog tests: evaluation, Jordan *-law checks, perturbation shapes.

Single points are evaluated as one-matrix stacks (x[np.newaxis]) through
apply_array, the path every command runs.
"""

import numpy as np
import pytest

from stablab.algebra import (
    element,
    identity,
    random_element,
    random_elements,
    spectral_norms,
    zeros,
)
from stablab.mappings import (
    Identity,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    apply_array,
    jordan_star_defects,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)


class TestEvaluate:
    def test_identity(self):
        x = random_element(3, 3, 1.0).entries[np.newaxis]
        assert np.array_equal(apply_array(Identity(3), x), x)

    def test_transpose_forced(self):
        got = apply_array(Transpose(2), element([[0, 1], [0, 0]]).entries[np.newaxis])[0]
        assert np.array_equal(got, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_constant_perturbation_adds_offset(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.5, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        x = element([[1, 2], [3, 4]]).entries[np.newaxis]
        expected = x + 0.5 * np.eye(2)
        assert np.allclose(apply_array(f, x), expected, atol=1e-15)
        # the constant mode vanishes at zero by convention
        z = zeros(2).entries[np.newaxis]
        assert np.array_equal(apply_array(f, z), z)

    def test_affine_perturbation_keeps_offset_at_zero(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=1.0, power=0.0, direction=unit_direction(2, "identity"), mode="affine"),
        )
        assert np.allclose(apply_array(f, zeros(2).entries[np.newaxis])[0], np.eye(2), atol=1e-15)

    def test_power_perturbation_magnitude(self):
        # defect norm identity: ||f(a) - a|| == size * ||a||^power up to rounding
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.25, power=1.5, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(10):
            a = random_element(seed, 3, 2.0).entries[np.newaxis]
            gap = spectral_norms(apply_array(f, a) - a)[0]
            expected = 0.25 * spectral_norms(a)[0] ** 1.5
            assert gap == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_power_perturbation_zero_at_zero_for_any_exponent(self):
        for power in (-1.0, 0.0, 2.0):
            f = Perturbed(
                Identity(2),
                Perturbation(size=1.0, power=power, direction=unit_direction(2, "corner"), mode="power"),
            )
            z = zeros(2).entries[np.newaxis]
            assert np.array_equal(apply_array(f, z), z)

    def test_odd_field_is_odd(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        for seed in range(8):
            a = random_element(seed + 50, 3, 1.0).entries[np.newaxis]
            eps_pos = apply_array(f, a) - a
            eps_neg = apply_array(f, -a) + a
            assert np.allclose(eps_neg, -eps_pos, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            apply_array(Identity(2), identity(3).entries[np.newaxis])


class TestValidation:
    def test_unitary_conjugation_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryConjugation(element([[1, 0], [0, 2]]))

    def test_perturbed_does_not_nest(self):
        inner = Perturbed(
            Identity(2),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        with pytest.raises(ValueError):
            Perturbed(inner, inner.perturbation)

    def test_direction_norm_capped(self):
        with pytest.raises(ValueError):
            Perturbation(size=1.0, power=0.0, direction=element([[2, 0], [0, 0]]), mode="constant")

    def test_direction_dimension_checked(self):
        with pytest.raises(Exception):
            Perturbed(
                Identity(3),
                Perturbation(size=0.1, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
            )


class TestUnitCircleGrid:
    def test_contains_mandatory_scalars_once(self):
        grid = unit_circle_grid(16)
        for needed in (1, -1, 1j, -1j):
            assert sum(1 for v in grid if abs(v - needed) < 1e-12) == 1
        assert len(grid) == 16  # the four mandatory scalars sit on the grid

    def test_all_unit_modulus(self):
        for v in unit_circle_grid(10):
            assert abs(abs(v) - 1.0) <= 1e-12

    def test_no_extra_phases(self):
        assert sorted(unit_circle_grid(0), key=lambda z: (z.real, z.imag)) == sorted(
            [1, -1, 1j, -1j], key=lambda z: (z.real, z.imag)
        )


class TestJordanStar:
    def test_transpose_is_jordan_star(self):
        # oracle: entrywise identities (a*)^T == (a^T)* and (a^2)^T == (a^T)^2
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose((a.conj().T).T, (a.T).conj().T)
        assert np.allclose((a @ a).T, a.T @ a.T)
        defects, _ = jordan_star_defects(lambda xs: apply_array(Transpose(3), xs), 3, 100, 31)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-9

    def test_unitary_conjugation_is_jordan_star(self):
        u = phase_permutation_unitary(3, seed=6)
        # oracle: u a u* u a u* == u a^2 u* because u* u == I
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ua = u.entries @ a @ u.entries.conj().T
        assert np.allclose(ua @ ua, u.entries @ (a @ a) @ u.entries.conj().T, atol=1e-12)
        f = UnitaryConjugation(u)
        defects, _ = jordan_star_defects(lambda xs: apply_array(f, xs), 3, 100, 32)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-9

    def test_zero_map_is_jordan_star(self):
        defects, _ = jordan_star_defects(lambda xs: apply_array(ZeroMap(3), xs), 3, 20, 33)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-12

    def test_constant_perturbation_fails_with_witness(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        defects, A = jordan_star_defects(lambda xs: apply_array(f, xs), 3, 100, 34)
        worst = max(defects, key=lambda name: np.max(defects[name]))
        assert float(np.max(defects[worst])) > 1e-6
        # the witness replays: its square defect recomputed alone is the sampled one
        i = int(np.argmax(defects["squares"]))
        fa = apply_array(f, A[i : i + 1])
        assert spectral_norms(apply_array(f, A[i : i + 1] @ A[i : i + 1]) - fa @ fa)[0] == defects["squares"][i]
        # the defect is on the 0.1 scale of the perturbation
        assert 0.01 <= float(np.max(defects[worst])) <= 1.0

    def test_negation_is_additive_but_not_jordan(self):
        defects, _ = jordan_star_defects(lambda xs: apply_array(Negation(3), xs), 3, 100, 35)
        assert float(np.max(defects["squares"])) > 1e-9
        assert max(defects, key=lambda name: np.max(defects[name])) == "squares"
        assert np.max(defects["additivity"]) <= 1e-12
        assert np.max(defects["involution"]) <= 1e-12
        assert np.max(defects["homogeneity"]) <= 1e-12

    def test_exact_kinds_additive_and_homogeneous(self):
        for f in (Identity(3), Transpose(3), Negation(3), UnitaryConjugation(phase_permutation_unitary(3, 1))):
            defects, _ = jordan_star_defects(lambda xs: apply_array(f, xs), 3, 150, 36)
            assert np.max(defects["additivity"]) <= 1e-10
            assert np.max(defects["homogeneity"]) <= 1e-10

    def test_transpose_not_multiplicative(self):
        # Jordan but not multiplicative: a sampled pair with ||f(ab) - f(a)f(b)|| > 0.1
        for dim in (2, 3, 4):
            f = Transpose(dim)
            A, B = (random_elements(40, 200, dim, 10.0, stream=s) for s in (5, 6))
            residuals = spectral_norms(apply_array(f, A @ B) - apply_array(f, A) @ apply_array(f, B))
            i = int(np.argmax(residuals))
            assert residuals[i] > 0.1
            # replay the witness against a direct computation
            a, b = A[i], B[i]
            direct = np.linalg.svd((a @ b).T - a.T @ b.T, compute_uv=False)[0]
            assert direct == pytest.approx(residuals[i], rel=1e-9)

    def test_unitary_conjugation_is_multiplicative(self):
        f = UnitaryConjugation(phase_permutation_unitary(3, seed=2))
        A, B = (random_elements(41, 200, 3, 10.0, stream=s) for s in (5, 6))
        residuals = spectral_norms(apply_array(f, A @ B) - apply_array(f, A) @ apply_array(f, B))
        assert np.max(residuals) <= 0.1

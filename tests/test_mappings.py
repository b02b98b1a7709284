"""Map catalog tests: evaluation, Jordan *-law checks, perturbation shapes.

Single points are evaluated as one-matrix stacks (x[np.newaxis]) through
apply_array, the path every command runs.
"""

import numpy as np
import pytest

from stablab import mappings
from stablab.algebra import NonFiniteError, random_element, random_elements, spectral_norms
from stablab.mappings import (
    PERTURBATION_MODES,
    Identity,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    apply_array,
    jordan_star_laws,
    jordan_star_points,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)
from test_algebra import haar_unitary


class TestEvaluate:
    def test_identity(self):
        x = random_element(3, 3, 1.0)[np.newaxis]
        assert np.array_equal(apply_array(Identity(3), x), x)

    def test_transpose_forced(self):
        got = apply_array(Transpose(2), np.array([[0, 1], [0, 0]], dtype=complex)[np.newaxis])[0]
        assert np.array_equal(got, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_constant_perturbation_adds_offset(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.5, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        x = np.array([[1, 2], [3, 4]], dtype=complex)[np.newaxis]
        expected = x + 0.5 * np.eye(2)
        assert np.allclose(apply_array(f, x), expected, atol=1e-15)
        # the constant mode vanishes at zero by convention
        z = np.zeros((2, 2), dtype=complex)[np.newaxis]
        assert np.array_equal(apply_array(f, z), z)

    def test_affine_perturbation_keeps_offset_at_zero(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=1.0, power=0.0, direction=unit_direction(2, "identity"), mode="affine"),
        )
        assert np.allclose(apply_array(f, np.zeros((2, 2), dtype=complex)[np.newaxis])[0], np.eye(2), atol=1e-15)

    def test_power_perturbation_magnitude(self):
        # defect norm identity: ||f(a) - a|| == size * ||a||^power up to rounding
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.25, power=1.5, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(10):
            a = random_element(seed, 3, 2.0)[np.newaxis]
            gap = spectral_norms(apply_array(f, a) - a)[0]
            expected = 0.25 * spectral_norms(a)[0] ** 1.5
            assert gap == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_power_perturbation_zero_at_zero_for_any_exponent(self):
        for power in (-1.0, 0.0, 2.0):
            f = Perturbed(
                Identity(2),
                Perturbation(size=1.0, power=power, direction=unit_direction(2, "corner"), mode="power"),
            )
            z = np.zeros((2, 2), dtype=complex)[np.newaxis]
            assert np.array_equal(apply_array(f, z), z)

    def test_odd_field_is_odd(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=2.0, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        for seed in range(8):
            a = random_element(seed + 50, 3, 1.0)[np.newaxis]
            eps_pos = apply_array(f, a) - a
            eps_neg = apply_array(f, -a) + a
            assert np.allclose(eps_neg, -eps_pos, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            apply_array(Identity(2), np.eye(3, dtype=complex)[np.newaxis])

    def test_constant_mode_counts_a_subnormal_entry_as_nonzero(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.5, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        x = np.zeros((2, 2, 2), dtype=complex)
        x[0, 1, 0] = 5e-324
        got = apply_array(f, x)
        assert np.array_equal(got[0], x[0] + 0.5 * np.eye(2))
        assert np.array_equal(got[1], np.zeros((2, 2)))

    def test_carried_norms_give_the_fresh_value(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.25, power=1.5, direction=unit_direction(3, "identity"), mode="power", odd=True),
        )
        x = random_elements(60, 8, 3, 2.0)
        assert np.array_equal(apply_array(f, x, spectral_norms(x)), apply_array(f, x))

    def test_carried_norms_must_match_the_stack(self):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.25, power=1.5, direction=unit_direction(2, "identity"), mode="power"),
        )
        with pytest.raises(ValueError, match="norms of shape"):
            apply_array(f, np.zeros((3, 2, 2)), np.zeros(1))

    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", PERTURBATION_MODES)
    def test_non_finite_input_raises(self, mode, bad, carried):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.5, power=0.5, direction=unit_direction(2, "identity"), mode=mode),
        )
        x = random_elements(61, 3, 2, 1.0)
        x[1, 0, 1] = bad
        with pytest.raises(NonFiniteError):
            apply_array(f, x, np.ones(3) if carried else None)

    @pytest.mark.parametrize("mode", PERTURBATION_MODES)
    def test_infinite_carried_norm_raises(self, mode):
        f = Perturbed(
            Identity(2),
            Perturbation(size=0.5, power=0.5, direction=unit_direction(2, "identity"), mode=mode),
        )
        x = random_elements(62, 3, 2, 1.0)
        with pytest.raises(NonFiniteError):
            apply_array(f, x, np.array([1.0, np.inf, 1.0]))


class TestValidation:
    def test_unitary_conjugation_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryConjugation(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_perturbed_does_not_nest(self):
        inner = Perturbed(
            Identity(2),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
        )
        with pytest.raises(ValueError):
            Perturbed(inner, inner.perturbation)

    def test_direction_norm_capped(self):
        with pytest.raises(ValueError):
            Perturbation(size=1.0, power=0.0, direction=np.array([[2, 0], [0, 0]], dtype=complex), mode="constant")

    def test_direction_dimension_checked(self):
        with pytest.raises(Exception):
            Perturbed(
                Identity(3),
                Perturbation(size=0.1, power=0.0, direction=unit_direction(2, "identity"), mode="constant"),
            )


class TestPhasePermutationUnitary:
    @pytest.mark.parametrize("dim,seed", [(1, 0), (3, 11), (8, 3)])
    def test_matches_the_column_loop(self, dim, seed):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        perm = rng.permutation(dim)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, dim))
        ref = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            ref[perm[col], col] = phases[col]
        assert phase_permutation_unitary(dim, seed).tobytes() == ref.tobytes()


class TestPhasePermutationGather:
    """A unitary with one nonzero entry per row and column conjugates as a gather; any other by matmul."""

    MONOMIAL = np.array([[0, 1j, 0], [0, 0, -1], [1, 0, 0]], dtype=np.complex128)

    @staticmethod
    def stacks(dim: int, seed: int) -> list[np.ndarray]:
        # 3-D and 4-D (phase-grid) stacks, with norms over 200 decades
        x = random_elements(seed, 60, dim, 3.0, stream=7) * np.logspace(-100, 100, 60)[:, None, None]
        return [x, np.asarray(unit_circle_grid(), dtype=np.complex128)[:, None, None, None] * x]

    def test_seed_built_and_monomial_matrices_take_the_gather(self):
        for dim in (1, 2, 3, 4, 8):
            f = UnitaryConjugation(phase_permutation_unitary(dim, 5))
            assert f.perm is not None and f.ph is not None
        f = UnitaryConjugation(self.MONOMIAL)
        assert f.perm.tolist() == [1, 2, 0]
        assert f.ph.tolist() == [1j, -1, 1]

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gather_agrees_with_the_matmul(self, dim, seed):
        u = phase_permutation_unitary(dim, seed)
        f = UnitaryConjugation(u)
        for xs in self.stacks(dim, seed):
            got, ref = apply_array(f, xs), u @ xs @ u.conj().T
            assert got.shape == xs.shape
            # each entry is one product ph[i] x conj(ph[j]); |ph| = 1, so it keeps the entry's size
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref)), (dim, seed)

    def test_monomial_matrix_agrees_with_the_matmul(self):
        u = self.MONOMIAL
        for xs in self.stacks(3, 9):
            got = apply_array(UnitaryConjugation(u), xs)
            assert np.all(np.abs(got - u @ xs @ u.conj().T) <= 4 * np.finfo(float).eps * np.abs(got))

    @pytest.mark.parametrize("dim,seed", [(3, None), (3, 4), (4, 1), (8, 2)])
    def test_entries_follow_the_product_order(self, dim, seed):
        # (u x u*)[i, j] = (u[i, p(i)] x[p(i), p(j)]) conj(u[j, p(j)]), the order of (u @ x) @ u*;
        # the monomial matrix's p = (1, 2, 0) is a 3-cycle, so p and its inverse differ
        u = self.MONOMIAL if seed is None else phase_permutation_unitary(dim, seed)
        p = np.argmax(u != 0, axis=1)
        for xs in self.stacks(dim, 9):
            got = apply_array(UnitaryConjugation(u), xs)
            for i in range(dim):
                for j in range(dim):
                    left = np.full(xs.shape[:-2], u[i, p[i]])
                    right = np.full(xs.shape[:-2], np.conj(u[j, p[j]]))
                    assert np.array_equal(got[..., i, j], (left * xs[..., p[i], p[j]]) * right), (i, j)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_general_unitary_keeps_the_matmul(self, dim):
        u = haar_unitary(np.random.default_rng(dim), dim)
        f = UnitaryConjugation(u)
        assert f.perm is None and f.ph is None
        for xs in self.stacks(dim, 11):
            assert np.array_equal(apply_array(f, xs), f.u @ xs @ f.u.conj().T)


class TestUnitCircleGrid:
    @pytest.mark.parametrize("extra", [0, 1, 2, 6, 10, 16])
    def test_contains_mandatory_scalars_once(self, extra):
        grid = unit_circle_grid(extra)
        for needed in (1, -1, 1j, -1j):
            assert sum(1 for v in grid if abs(v - needed) < 1e-12) == 1
        quarter_turns = sum(1 for m in range(4) if extra and m * extra % 4 == 0)  # m/4 turns on the grid
        assert len(grid) == 4 + extra - quarter_turns
        assert all(abs(v - w) >= 1e-12 for i, v in enumerate(grid) for w in grid[:i])

    def test_all_unit_modulus(self):
        for v in unit_circle_grid(10):
            assert abs(abs(v) - 1.0) <= 1e-12

    def test_no_extra_phases(self):
        assert sorted(unit_circle_grid(0), key=lambda z: (z.real, z.imag)) == sorted(
            [1, -1, 1j, -1j], key=lambda z: (z.real, z.imag)
        )


def jordan_star(f, dim, samples, seed, phases=None):
    """The Jordan *-law residuals of f at freshly drawn points, and their sample stack A."""
    points, _ = jordan_star_points(dim, samples, seed, phases=phases)
    return jordan_star_laws(apply_array(f, points), phases), points[:samples]


class TestJordanStar:
    def test_points_carry_their_norms(self):
        # A, A^2, A*, A + B, B and mu A for each of the G - 1 twists, each with its operator norm
        phases = unit_circle_grid(8)
        points, norms = jordan_star_points(3, 25, 30, phases=phases)
        assert points.shape == ((4 + len(phases)) * 25, 3, 3)
        np.testing.assert_allclose(norms, spectral_norms(points), rtol=2e-15, atol=0.0)
        A, B = random_elements(30, 25, 3, 1.0, stream=(1, 2)).reshape(2, 25, 3, 3)
        assert np.array_equal(points[:25], A) and np.array_equal(points[100:125], B)

    def test_transpose_is_jordan_star(self):
        # oracle: entrywise identities (a*)^T == (a^T)* and (a^2)^T == (a^T)^2
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose((a.conj().T).T, (a.T).conj().T)
        assert np.allclose((a @ a).T, a.T @ a.T)
        defects, _ = jordan_star(Transpose(3), 3, 100, 31)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-9

    def test_unitary_conjugation_is_jordan_star(self):
        u = phase_permutation_unitary(3, seed=6)
        # oracle: u a u* u a u* == u a^2 u* because u* u == I
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        ua = u @ a @ u.conj().T
        assert np.allclose(ua @ ua, u @ (a @ a) @ u.conj().T, atol=1e-12)
        f = UnitaryConjugation(u)
        defects, _ = jordan_star(f, 3, 100, 32)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-9

    def test_zero_map_is_jordan_star(self):
        defects, _ = jordan_star(ZeroMap(3), 3, 20, 33)
        assert max(float(np.max(v)) for v in defects.values()) <= 1e-12

    def test_constant_perturbation_fails_with_witness(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        defects, A = jordan_star(f, 3, 100, 34)
        worst = max(defects, key=lambda name: np.max(defects[name]))
        assert float(np.max(defects[worst])) > 1e-6
        # the witness replays: its square defect recomputed alone is the sampled one
        i = int(np.argmax(defects["squares"]))
        fa = apply_array(f, A[i : i + 1])
        assert spectral_norms(apply_array(f, A[i : i + 1] @ A[i : i + 1]) - fa @ fa)[0] == defects["squares"][i]
        # the defect is on the 0.1 scale of the perturbation
        assert 0.01 <= float(np.max(defects[worst])) <= 1.0

    def test_negation_is_additive_but_not_jordan(self):
        defects, _ = jordan_star(Negation(3), 3, 100, 35)
        assert float(np.max(defects["squares"])) > 1e-9
        assert max(defects, key=lambda name: np.max(defects[name])) == "squares"
        assert np.max(defects["additivity"]) <= 1e-12
        assert np.max(defects["involution"]) <= 1e-12
        assert np.max(defects["homogeneity"]) <= 1e-12

    def test_exact_kinds_additive_and_homogeneous(self):
        for f in (Identity(3), Transpose(3), Negation(3), UnitaryConjugation(phase_permutation_unitary(3, 1))):
            defects, _ = jordan_star(f, 3, 150, 36)
            assert np.max(defects["additivity"]) <= 1e-10
            assert np.max(defects["homogeneity"]) <= 1e-10

    def test_homogeneity_is_the_worst_twist(self):
        # oracle: one norm per twist, folded one phase at a time
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=0.5, direction=unit_direction(3, "corner"), mode="power"),
        )
        phases = unit_circle_grid(8)
        defects, A = jordan_star(f, 3, 30, 37, phases=phases)
        fa = apply_array(f, A)
        worst = np.zeros(30)
        for mu in phases[1:]:
            worst = np.maximum(worst, spectral_norms(apply_array(f, mu * A) - mu * fa))
        assert np.max(worst) > 1e-3
        assert np.array_equal(defects["homogeneity"], worst)

    def test_laws_exact_at_their_extremes(self):
        # exact at every sample, extremes included: each law value equals its own spectral_norms
        # call bit for bit, so the one stacked call over all law matrices moves none of them
        f = Perturbed(
            Transpose(3),
            Perturbation(size=0.1, power=0.5, direction=unit_direction(3, "corner"), mode="power", odd=True),
        )
        phases = unit_circle_grid(8)
        defects, A = jordan_star(f, 3, 200, 39, phases=phases)
        B = random_elements(39, 200, 3, 1.0, stream=2)
        fa, fb = apply_array(f, A), apply_array(f, B)
        mus = np.array(phases[1:])[:, None, None, None]
        full = {
            "squares": spectral_norms(apply_array(f, A @ A) - fa @ fa),
            "involution": spectral_norms(apply_array(f, mappings._conj_t(A)) - mappings._conj_t(fa)),
            "additivity": spectral_norms(apply_array(f, A + B) - fa - fb),
            "homogeneity": np.max(spectral_norms(apply_array(f, mus * A) - mus * fa), axis=0),
        }
        assert sorted(defects) == sorted(full) and full["squares"].max() > 1e-3
        for name, ref in full.items():
            assert defects[name].tobytes() == ref.tobytes(), name

    def test_unit_phase_only_gives_zero_homogeneity(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=0.1, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
        )
        points, _ = jordan_star_points(3, 20, 38, phases=[1.0])
        assert points.shape == (5 * 20, 3, 3)
        defects = jordan_star_laws(apply_array(f, points), phases=[1.0])
        assert np.array_equal(defects["homogeneity"], np.zeros(20))
        assert np.max(defects["additivity"]) > 1e-3

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

"""Algebra carrier tests: stack arithmetic, involution, spectral norm, sampling.

The spectral norm (LAPACK SVD) is checked against the top eigenvalue of the
Gram matrix, a separate LAPACK route, and against matrices built with a known
singular spectrum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablab.algebra import (
    Element,
    element,
    identity,
    op_norm,
    random_element,
    random_elements,
    spectral_norms,
    zeros,
)
from stablab.mappings import _conj_t


def gram_norm(arr: np.ndarray) -> float:
    """sqrt of the top eigenvalue of x*x, with x prescaled by its largest entry."""
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        return 0.0
    x = arr / peak
    return float(np.sqrt(np.linalg.eigvalsh(x.conj().T @ x)[-1])) * peak


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed by R."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def loop_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Triple-loop product oracle, independent of numpy matmul."""
    d = x.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            acc = 0j
            for k in range(d):
                acc += x[i, k] * y[k, j]
            out[i, j] = acc
    return out


@st.composite
def small_matrices(draw, max_dim=4, magnitude=1e3):
    d = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.complex_numbers(
                max_magnitude=magnitude, allow_nan=False, allow_infinity=False, allow_subnormal=False
            ),
            min_size=d * d,
            max_size=d * d,
        )
    )
    return np.array(entries, dtype=complex).reshape(d, d)


class TestElement:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Element(np.zeros((2, 3), dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            element([[np.nan, 0], [0, 0]])
        with pytest.raises(ValueError):
            element([[np.inf * 1j, 0], [0, 0]])

    def test_entries_read_only(self):
        x = identity(2)
        with pytest.raises(ValueError):
            x.entries[0, 0] = 5.0


class TestArithmetic:
    """The algebra's operations are numpy operations on entry stacks."""

    def test_add_identity_and_zero(self):
        assert np.array_equal(identity(2).entries + zeros(2).entries, identity(2).entries)

    def test_add_matrix_units_gives_identity(self):
        lhs = element([[1, 0], [0, 0]]).entries + element([[0, 0], [0, 1]]).entries
        assert np.array_equal(lhs, identity(2).entries)

    def test_add_neg_cancels_entrywise(self):
        x = random_element(101, 3, 5.0)
        total = x.entries + (-x.entries)
        for i in range(3):
            for j in range(3):
                assert total[i, j] == 0

    def test_mul_identity(self):
        x = random_element(7, 3, 2.0)
        assert np.array_equal(identity(3).entries @ x.entries, x.entries)

    def test_mul_nilpotent_square_is_zero(self):
        n = element([[0, 1], [0, 0]])
        assert np.array_equal(n.entries @ n.entries, zeros(2).entries)

    def test_mul_matches_triple_loop_oracle(self):
        x = random_element(11, 3, 2.0)
        y = random_element(12, 3, 2.0)
        expected = loop_matmul(x.entries, y.entries)
        assert np.allclose((x.entries[np.newaxis] @ y.entries[np.newaxis])[0], expected, atol=1e-13)

    def test_scale_one_and_zero(self):
        x = random_element(13, 2, 1.0)
        assert np.array_equal(1.0 * x.entries, x.entries)
        assert np.array_equal(0.0 * x.entries, zeros(2).entries)

    def test_scale_imaginary_unit_twice_negates(self):
        x = random_element(14, 2, 1.0)
        assert np.allclose(1j * (1j * x.entries), -x.entries, atol=1e-15)


class TestInvolution:
    """The involution is the batched conjugate transpose the Jordan *-law checks run."""

    def test_identity_self_adjoint(self):
        assert np.array_equal(_conj_t(identity(2).entries[np.newaxis])[0], identity(2).entries)

    def test_forced_by_definition(self):
        got = _conj_t(element([[0, 1j], [0, 0]]).entries[np.newaxis])[0]
        assert np.array_equal(got, np.array([[0, 0], [-1j, 0]], dtype=complex))

    def test_product_reversal(self):
        x = random_element(21, 3, 2.0).entries[np.newaxis]
        y = random_element(22, 3, 2.0).entries[np.newaxis]
        lhs = _conj_t(x @ y)[0]
        rhs = loop_matmul(_conj_t(y)[0], _conj_t(x)[0])
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_involution_is_period_two(self):
        x = random_element(23, 4, 3.0).entries[np.newaxis]
        assert np.array_equal(_conj_t(_conj_t(x)), x)


class TestOpNorm:
    def test_identity_norm_one(self):
        assert op_norm(identity(3)) == 1.0

    def test_nilpotent_norm_two(self):
        # x*x = [[0,0],[0,4]]; char poly t^2 - 4t has roots {0, 4}, so the
        # largest singular value is 2.
        assert op_norm(element([[0, 2], [0, 0]])) == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_norm(self):
        assert op_norm(element([[3, 0], [0, -1]])) == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix(self):
        assert op_norm(zeros(4)) == 0.0

    def test_matches_svd_on_seeded_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert op_norm(Element(x)) == pytest.approx(gram_norm(x), rel=1e-9)

    def test_batch_matches_single(self):
        # exact equality: a stack may be normed in one call without moving
        # any value a per-matrix call would give
        rng = np.random.default_rng(5)
        for d in range(2, 17):
            stack = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
            batch = spectral_norms(stack)
            for i in range(stack.shape[0]):
                assert np.array_equal(batch[i], op_norm(Element(stack[i])))

    def test_extreme_scales(self):
        x = element([[1e200, 0], [0, 0]])
        assert op_norm(x) == pytest.approx(1e200, rel=1e-10)
        y = element([[1e-200, 0], [0, 0]])
        assert op_norm(y) == pytest.approx(1e-200, rel=1e-10)

    @pytest.mark.parametrize("d", [3, 8, 16])
    @pytest.mark.parametrize("delta", [1e-5, 1e-7, 1e-9])
    def test_near_degenerate_top_singular_values(self, d, delta):
        rng = np.random.default_rng(d)
        s = np.concatenate([[1.0], np.linspace(1.0 - delta, 0.1, d - 1)])
        x = (haar_unitary(rng, d) * s) @ haar_unitary(rng, d).conj().T
        assert abs(float(spectral_norms(x[np.newaxis])[0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_non_finite_entries_raise(self, bad):
        stack = np.zeros((4, 3, 3), dtype=complex)
        stack[2, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norms(stack)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_against_svd_property(self, arr):
        ref = gram_norm(arr)
        got = op_norm(Element(arr))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-280)


def seeded_stack(first_seed: int, count: int, dim: int, norm_cap: float) -> np.ndarray:
    return np.stack([random_element(first_seed + i, dim, norm_cap).entries for i in range(count)])


class TestAlgebraInvariants:
    def test_cstar_identity(self):
        for dim in (2, 3, 4):
            X = seeded_stack(1000, 60, dim, 10.0)
            n = spectral_norms(X)
            lhs = spectral_norms(_conj_t(X) @ X)
            assert np.all(np.abs(lhs - n * n) <= 1e-8 * (1.0 + n * n))

    def test_submultiplicative(self):
        X = seeded_stack(2000, 60, 3, 10.0)
        Y = seeded_stack(3000, 60, 3, 10.0)
        nx, ny = spectral_norms(X), spectral_norms(Y)
        assert np.all(spectral_norms(X @ Y) <= nx * ny + 1e-8 * (1.0 + nx * ny))

    def test_involution_isometric(self):
        X = seeded_stack(4000, 60, 4, 10.0)
        n = spectral_norms(X)
        assert np.all(np.abs(spectral_norms(_conj_t(X)) - n) <= 1e-9 * (1.0 + n))

    def test_triangle_inequality(self):
        X = seeded_stack(5000, 60, 3, 10.0)
        Y = seeded_stack(6000, 60, 3, 10.0)
        bound = spectral_norms(X) + spectral_norms(Y)
        assert np.all(spectral_norms(X + Y) <= bound + 1e-9 * (1.0 + bound))


class TestRandomElement:
    def test_deterministic(self):
        a = random_element(42, 4, 2.5)
        b = random_element(42, 4, 2.5)
        assert np.array_equal(a.entries, b.entries)

    def test_norm_cap_respected_over_seeds(self):
        for seed in range(100):
            assert op_norm(random_element(seed, 4, 1.0)) <= 1.0

    def test_zero_cap_gives_zero(self):
        assert np.array_equal(random_element(9, 2, 0.0).entries, zeros(2).entries)

    def test_distinct_seeds_differ(self):
        a = random_element(1, 3, 1.0)
        b = random_element(2, 3, 1.0)
        assert not np.array_equal(a.entries, b.entries)

    def test_batch_replays_single(self):
        batch = random_elements(77, 5, 3, 2.0, stream=4)
        from stablab.algebra import derived_seed

        for i in range(5):
            single = random_element(derived_seed(77, 4, i), 3, 2.0)
            assert np.array_equal(batch[i], single.entries)

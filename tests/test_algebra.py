"""Algebra carrier tests: stack arithmetic, involution, spectral norm, sampling.

The spectral norm (LAPACK SVD) is checked against the top eigenvalue of the
Gram matrix, a separate LAPACK route, and against matrices built with a known
singular spectrum.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablab import algebra
from stablab.algebra import (
    NonFiniteError,
    NormBracket,
    extreme_norms,
    random_element,
    random_elements,
    spectral_norms,
)
from stablab.mappings import Perturbation, UnitaryConjugation, _conj_t


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


def holders(matrix):
    """Builders of the two map classes that hold a matrix: a unitary to conjugate by, a perturbation direction."""
    return (
        lambda: UnitaryConjugation(matrix),
        lambda: Perturbation(size=0.1, power=0.0, direction=matrix, mode="constant"),
    )


class TestElement:
    """An element is a plain (d, d) array; the map classes validate the matrices they hold."""

    def test_rejects_non_square(self):
        for build in holders(np.zeros((2, 3), dtype=complex)):
            with pytest.raises(ValueError):
                build()

    def test_rejects_non_finite(self):
        for rows in ([[np.nan, 0], [0, 0]], [[np.inf * 1j, 0], [0, 0]]):
            for build in holders(np.array(rows, dtype=complex)):
                with pytest.raises(ValueError):
                    build()

    def test_entries_read_only(self):
        x = np.eye(2, dtype=complex)
        held = [
            UnitaryConjugation(x).u,
            Perturbation(size=0.1, power=0.0, direction=x, mode="constant").direction,
        ]
        x[0, 0] = 5.0  # the built maps hold copies
        for m in held:
            assert m.dtype == np.complex128 and np.array_equal(m, np.eye(2))
            with pytest.raises(ValueError):
                m[0, 0] = 5.0


class TestArithmetic:
    """The algebra's operations are numpy operations on entry stacks."""

    def test_add_identity_and_zero(self):
        assert np.array_equal(np.eye(2, dtype=complex) + np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))

    def test_add_matrix_units_gives_identity(self):
        lhs = np.array([[1, 0], [0, 0]], dtype=complex) + np.array([[0, 0], [0, 1]], dtype=complex)
        assert np.array_equal(lhs, np.eye(2, dtype=complex))

    def test_add_neg_cancels_entrywise(self):
        x = random_element(101, 3, 5.0)
        total = x + (-x)
        for i in range(3):
            for j in range(3):
                assert total[i, j] == 0

    def test_mul_identity(self):
        x = random_element(7, 3, 2.0)
        assert np.array_equal(np.eye(3, dtype=complex) @ x, x)

    def test_mul_nilpotent_square_is_zero(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(n @ n, np.zeros((2, 2), dtype=complex))

    def test_mul_matches_triple_loop_oracle(self):
        x = random_element(11, 3, 2.0)
        y = random_element(12, 3, 2.0)
        expected = loop_matmul(x, y)
        assert np.allclose((x[np.newaxis] @ y[np.newaxis])[0], expected, atol=1e-13)

    def test_scale_one_and_zero(self):
        x = random_element(13, 2, 1.0)
        assert np.array_equal(1.0 * x, x)
        assert np.array_equal(0.0 * x, np.zeros((2, 2), dtype=complex))

    def test_scale_imaginary_unit_twice_negates(self):
        x = random_element(14, 2, 1.0)
        assert np.allclose(1j * (1j * x), -x, atol=1e-15)


class TestInvolution:
    """The involution is the batched conjugate transpose the Jordan *-law checks run."""

    def test_identity_self_adjoint(self):
        assert np.array_equal(_conj_t(np.eye(2, dtype=complex)[np.newaxis])[0], np.eye(2, dtype=complex))

    def test_forced_by_definition(self):
        got = _conj_t(np.array([[0, 1j], [0, 0]], dtype=complex)[np.newaxis])[0]
        assert np.array_equal(got, np.array([[0, 0], [-1j, 0]], dtype=complex))

    def test_product_reversal(self):
        x = random_element(21, 3, 2.0)[np.newaxis]
        y = random_element(22, 3, 2.0)[np.newaxis]
        lhs = _conj_t(x @ y)[0]
        rhs = loop_matmul(_conj_t(y)[0], _conj_t(x)[0])
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_involution_is_period_two(self):
        x = random_element(23, 4, 3.0)[np.newaxis]
        assert np.array_equal(_conj_t(_conj_t(x)), x)


class TestOpNorm:
    def test_identity_norm_one(self):
        assert spectral_norms(np.eye(3, dtype=complex)[np.newaxis])[0] == 1.0

    def test_nilpotent_norm_two(self):
        # x*x = [[0,0],[0,4]]; char poly t^2 - 4t has roots {0, 4}, so the
        # largest singular value is 2.
        x = np.array([[0, 2], [0, 0]], dtype=complex)
        assert spectral_norms(x[np.newaxis])[0] == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_norm(self):
        x = np.array([[3, 0], [0, -1]], dtype=complex)
        assert spectral_norms(x[np.newaxis])[0] == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norms(np.zeros((4, 4), dtype=complex)[np.newaxis])[0] == 0.0

    def test_matches_svd_on_seeded_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert spectral_norms(x[np.newaxis])[0] == pytest.approx(gram_norm(x), rel=1e-9)

    def test_batch_matches_single(self):
        # exact equality: a stack may be normed in one call without moving
        # any value a per-matrix call would give
        rng = np.random.default_rng(5)
        for d in range(2, 17):
            stack = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
            batch = spectral_norms(stack)
            for i in range(stack.shape[0]):
                assert np.array_equal(batch[i], spectral_norms(stack[i][np.newaxis])[0])

    def test_zero_rows_skip_without_moving_a_value(self):
        # zero, -0.0-only, subnormal-entry and random rows mixed in one stack: zero rows
        # go through the one SVD with the rest, and no row's value moves from a per-matrix call
        rng = np.random.default_rng(13)
        stack = rng.normal(size=(9, 3, 3)) + 1j * rng.normal(size=(9, 3, 3))
        stack[1] = 0.0
        stack[4] = complex(-0.0, -0.0)
        stack[5] = 0.0
        stack[5, 2, 1] = complex(0.0, 5e-324)
        stack[7] = 0.0
        stack[7, 0, 0] = -5e-324
        got = spectral_norms(stack)
        for i in range(stack.shape[0]):
            ref = np.linalg.svd(stack[i][np.newaxis], compute_uv=False)[0, 0]
            assert np.array_equal(got[i], ref) and np.signbit(got[i]) == np.signbit(ref), i
        assert got[1] == got[4] == 0.0 and not np.signbit(got[[1, 4]]).any()
        assert got[5] > 0.0 and got[7] > 0.0  # a subnormal entry is a nonzero matrix

    def test_all_zero_stack_makes_no_svd_call(self, monkeypatch):
        # spectral_norms gives a zero matrix +0.0 through the SVD; the bracketed paths
        # (NormBracket, extreme_norms) are what keep an all-zero stack away from it
        stack = np.zeros((6, 4, 4), dtype=complex)
        stack[2] = complex(-0.0, 0.0)
        got = spectral_norms(stack)
        assert got.shape == (6,) and np.array_equal(got, np.zeros(6)) and not np.signbit(got).any()
        assert spectral_norms(np.zeros((2, 2), dtype=complex)) == 0.0

        def refuse(*args, **kwargs):
            raise AssertionError("SVD called on a zero matrix")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        norms = NormBracket(stack)
        norms.refine(np.ones(6, dtype=bool))
        assert np.array_equal(norms.lo, np.zeros(6)) and np.array_equal(norms.hi, norms.lo)
        assert not np.signbit(norms.hi).any()
        out = extreme_norms(stack.reshape(2, 3, 4, 4), np.zeros(3))
        assert np.array_equal(out, np.zeros((2, 3))) and not np.signbit(out).any()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 3, 1)])
    def test_non_square_stack_raises(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(\.\.\., d, d\) stack"):
            spectral_norms(np.ones(shape, dtype=complex))

    def test_extreme_scales(self):
        x = np.array([[1e200, 0], [0, 0]], dtype=complex)
        assert spectral_norms(x[np.newaxis])[0] == pytest.approx(1e200, rel=1e-10)
        y = np.array([[1e-200, 0], [0, 0]], dtype=complex)
        assert spectral_norms(y[np.newaxis])[0] == pytest.approx(1e-200, rel=1e-10)

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
        got = spectral_norms(arr[np.newaxis])[0]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-280)


BRACKET_DIMS = [1, 2, 3, 4, 8]


def brackets_hold(stack: np.ndarray, tighten: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, norms, hi) of a stack, every bracket tightened if asked, asserting lo <= spectral_norms <= hi
    and that no RuntimeWarning escapes and no matrix is normed on the way."""
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = norm_calls(monkeypatch)
        bracket = NormBracket(stack)
        if tighten:
            bracket.tighten(np.ones(bracket.lo.shape, dtype=bool))
    assert calls == []
    lo, hi, norms = bracket.lo, bracket.hi, spectral_norms(stack)
    assert np.all(lo <= norms) and np.all(norms <= hi)
    return lo, norms, hi


class TestNormBrackets:
    """The Frobenius bracket [F/sqrt(d), F] holds every spectral_norms value, widened by a margin above rounding."""

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_random_stacks_from_1e_minus_320_to_1e300(self, d):
        rng = np.random.default_rng(100 + d)
        scales = np.logspace(-320, 300, 400)
        stack = (rng.normal(size=(400, d, d)) + 1j * rng.normal(size=(400, d, d))) * scales[:, None, None]
        lo, norms, hi = brackets_hold(stack)
        # inside the usable range the bracket is [F/sqrt(d), F], not the trivial [0, inf)
        usable = (norms > 1e-140) & (norms < 1e140)
        assert usable.sum() > 150
        assert np.all(hi[usable] <= np.sqrt(d) * lo[usable] * (1.0 + 3e-12))
        beyond = (norms < 1e-160) | (norms > 1e160)  # F lies in [norm, sqrt(d) norm]
        assert beyond.sum() > 150
        assert np.all(lo[beyond] == 0.0) and np.all(hi[beyond] == np.inf)

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_both_ends_are_attained(self, d):
        # a scaled identity has norm F/sqrt(d), a rank-one matrix norm F: each
        # sits on one end of the bracket, a few ulps inside the margin
        rng = np.random.default_rng(200 + d)
        c = (rng.normal(size=300) + 1j * rng.normal(size=300)) * np.logspace(-140, 140, 300)
        lo, norms, _ = brackets_hold(c[:, None, None] * np.eye(d))
        np.testing.assert_allclose(lo, norms, rtol=2e-12, atol=0.0)
        u, v = rng.normal(size=(2, 300, d)) + 1j * rng.normal(size=(2, 300, d))
        _, norms, hi = brackets_hold(u[:, :, None] * v[:, None, :].conj() * np.logspace(-140, 140, 300)[:, None, None])
        np.testing.assert_allclose(hi, norms, rtol=2e-12, atol=0.0)

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_zero_matrices_are_exact(self, d):
        # the spectral norm of an all-zero matrix is exactly 0.0, -0.0 entries included
        stack = np.zeros((3, d, d), dtype=complex)
        stack[1] = complex(-0.0, 0.0)
        stack[2, 0, d - 1] = complex(-0.0, -0.0)
        lo, norms, hi = brackets_hold(stack)
        assert np.array_equal(lo, np.zeros(3)) and np.array_equal(hi, np.zeros(3)) and np.array_equal(norms, hi)
        assert not np.signbit(lo).any() and not np.signbit(hi).any()

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_subnormal_and_near_overflow_matrices_are_unbounded(self, d):
        stack = np.zeros((3, d, d), dtype=complex)
        stack[0, 0, d - 1] = complex(0.0, 5e-324)
        stack[1] = 3e-310 - 1e-309j
        stack[2] = 1e154 - 1e154j  # its squares overflow
        lo, _, hi = brackets_hold(stack)
        assert np.all(lo == 0.0) and np.all(hi == np.inf)

    def test_shape_follows_the_stack(self):
        bracket = NormBracket(np.eye(3, dtype=complex))
        assert bracket.lo.shape == bracket.hi.shape == () and bracket.lo < 1.0 <= bracket.hi
        bracket = NormBracket(np.ones((2, 5, 3, 3)))
        assert bracket.lo.shape == bracket.hi.shape == (2, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_non_finite_entries_raise(self, bad):
        stack = np.zeros((4, 3, 3), dtype=complex)
        stack[2, 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite"):
                NormBracket(stack)


def norm_calls(monkeypatch) -> list:
    """The stacks passed to algebra.spectral_norms from now on, in call order."""
    calls = []
    real = algebra.spectral_norms

    def counted(mats):
        calls.append(mats)
        return real(mats)

    monkeypatch.setattr(algebra, "spectral_norms", counted)
    return calls


class TestNormBracket:
    """A NormBracket norms each open matrix at most once, only where refined, and there equals spectral_norms."""

    @staticmethod
    def mixed_stack(shape: tuple, d: int = 3) -> np.ndarray:
        """A random stack over 340 decades (the ends get [0, inf) brackets) with zero matrices at every 4th place."""
        rng = np.random.default_rng(500 + d)
        stack = rng.normal(size=(*shape, d, d)) + 1j * rng.normal(size=(*shape, d, d))
        stack *= np.logspace(-170, 170, shape[-1])[:, None, None]
        stack[..., ::4, :, :] = 0.0
        return stack

    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_refining_every_open_row_norms_the_stack_itself(self, monkeypatch, shape):
        stack = self.mixed_stack(shape)
        stack[..., ::4, 0, 0] = 1.0  # no zero matrix, so every row is open
        norms = NormBracket(stack)
        calls = norm_calls(monkeypatch)
        norms.refine(np.ones(shape, dtype=bool))
        assert len(calls) == 1 and calls[0] is stack
        assert np.array_equal(norms.lo, spectral_norms(stack)) and np.array_equal(norms.hi, norms.lo)

    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_masked_refine_norms_only_the_selected_open_rows(self, monkeypatch, shape):
        stack = self.mixed_stack(shape)
        rows = np.random.default_rng(9).random(shape) < 0.5
        norms = NormBracket(stack)
        calls = norm_calls(monkeypatch)
        norms.refine(rows)
        open_rows = stack.any(axis=(-2, -1))
        assert len(calls) == 1 and np.array_equal(calls[0], stack[rows & open_rows])
        assert np.all(norms.lo[~rows & open_rows] < norms.hi[~rows & open_rows])

    def test_zero_and_refined_rows_are_never_normed_again(self, monkeypatch):
        stack = self.mixed_stack((12,))
        norms = NormBracket(stack)
        calls = norm_calls(monkeypatch)
        first = np.arange(12) < 6
        norms.refine(first)
        norms.refine(np.ones(12, dtype=bool))
        norms.refine(np.ones(12, dtype=bool))
        normed = [[1, 2, 3, 5], [6, 7, 9, 10, 11]]  # rows 0, 4 and 8 are zero
        assert len(calls) == 2 and all(np.array_equal(c, stack[rows]) for c, rows in zip(calls, normed))
        calls.clear()
        NormBracket(np.zeros((5, 2, 2), dtype=complex)).refine(np.ones(5, dtype=bool))
        assert calls == []

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_refined_rows_hold_the_full_norm(self, d):
        stack = self.mixed_stack((3, 40), d)
        full = spectral_norms(stack)
        norms = NormBracket(stack)
        rng = np.random.default_rng(d)
        for _ in range(3):
            norms.refine(rng.random((3, 40)) < 0.3)
            exact = norms.lo == norms.hi
            assert np.array_equal(norms.lo[exact], full[exact])
            assert np.all(norms.lo <= full) and np.all(full <= norms.hi)
        assert exact.sum() > 40 and not exact.all()


class TestNormBracketTighten:
    """tighten narrows open brackets to max|a_ij| <= ||a|| <= sqrt(||a||_1) sqrt(||a||_inf), widened by the
    margin, without an SVD; it holds every spectral_norms value and leaves other rows as they were."""

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_random_stacks_from_1e_minus_300_to_1e300(self, d):
        rng = np.random.default_rng(700 + d)
        stack = (rng.normal(size=(400, d, d)) + 1j * rng.normal(size=(400, d, d))) * np.logspace(-300, 300, 400)[
            :, None, None
        ]
        lo, _, hi = brackets_hold(stack, tighten=True)
        # wherever the largest entry reaches the floor, Frobenius range or not, the bracket is at most d wide
        reached = np.abs(stack).max(axis=(-2, -1)) >= algebra.ENTRYWISE_FLOOR
        assert reached.sum() > 390
        assert np.all(hi[reached] <= d * lo[reached] * (1.0 + 3e-12))

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_both_ends_are_attained(self, d):
        # a scaled identity and a scaled matrix unit have max|a_ij| = ||a||_1 = ||a||_inf = ||a||, so both
        # ends meet the norm a few ulps inside the margin, also where the Frobenius bracket is [0, inf)
        rng = np.random.default_rng(800 + d)
        c = (rng.normal(size=300) + 1j * rng.normal(size=300)) * np.logspace(-290, 290, 300)
        corner = np.zeros((d, d))
        corner[0, d - 1] = 1.0
        for unit in (np.eye(d), corner):
            lo, norms, hi = brackets_hold(c[:, None, None] * unit, tighten=True)
            np.testing.assert_allclose(lo, norms, rtol=2e-12, atol=0.0)
            np.testing.assert_allclose(hi, norms, rtol=2e-12, atol=0.0)

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    def test_subnormal_and_near_overflow_entries(self, d):
        stack = np.zeros((3, d, d), dtype=complex)
        stack[0, 0, d - 1] = complex(0.0, 5e-324)
        stack[1] = 3e-310 - 1e-309j
        stack[2] = 1e154 - 1e154j  # its squares overflow, its entrywise bounds do not
        lo, norms, hi = brackets_hold(stack, tighten=True)
        assert np.all(lo[:2] == 0.0) and np.all(hi[:2] == np.inf)  # below the floor, the bracket stays
        # a constant matrix: max|a_ij| is ||a|| / d, and the 1- and inf-norms are ||a||
        np.testing.assert_allclose([lo[2], hi[2]], [norms[2] / d, norms[2]], rtol=2e-12)

    def test_an_overflowing_modulus_keeps_its_bracket(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bracket = NormBracket(np.full((1, 2, 2), 1.5e308 + 1.5e308j))  # |z| is beyond the float range
            bracket.tighten(np.ones(1, dtype=bool))
        assert bracket.lo[0] == 0.0 and bracket.hi[0] == np.inf

    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_closed_and_unselected_rows_are_untouched(self, shape):
        stack = TestNormBracket.mixed_stack(shape)
        rng = np.random.default_rng(11)
        bracket = NormBracket(stack)
        bracket.refine(rng.random(shape) < 0.3)
        before_lo, before_hi = bracket.lo.copy(), bracket.hi.copy()
        rows = rng.random(shape) < 0.5
        bracket.tighten(rows)
        moved = rows & (before_lo < before_hi)  # open before and selected
        assert np.array_equal(bracket.lo[~moved], before_lo[~moved])
        assert np.array_equal(bracket.hi[~moved], before_hi[~moved])
        assert np.all(bracket.lo[moved] >= before_lo[moved]) and np.all(bracket.hi[moved] <= before_hi[moved])
        assert np.all(bracket.hi[moved] < np.inf)  # the rows at 1e+-170 leave [0, inf) too
        full = spectral_norms(stack)
        assert np.all(bracket.lo <= full) and np.all(full <= bracket.hi)


def read_extremes(norms: np.ndarray, allowance: np.ndarray) -> tuple:
    """What a report reads from per-matrix norms of an (n,) or (G, n) stack.

    The maximum and its first index, the first worst excess and its value,
    and the first maximising matrix over G of the sample at the maximum and
    of the sample at the worst excess.
    """
    value = norms if norms.ndim == 1 else norms.max(axis=0)
    excess = value - allowance
    top, worst = int(np.argmax(value)), int(np.argmax(excess))
    phases = () if norms.ndim == 1 else (int(np.argmax(norms[:, top])), int(np.argmax(norms[:, worst])))
    return value.max(), top, worst, excess[worst], phases


@st.composite
def adversarial_stacks(draw):
    """A (G, n, d, d) stack (G = 0 for an (n, d, d) one) with repeated samples and phases, zero matrices,
    overlapping brackets and brackets [0, inf), with an allowance of one of three sizes."""
    grid, n, d = draw(st.integers(0, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = max(grid, 1)
    stack = rng.normal(size=(g, n, d, d)) + 1j * rng.normal(size=(g, n, d, d))
    if draw(st.booleans()):  # equal Frobenius norms: every bracket overlaps every other
        stack /= np.linalg.norm(stack, axis=(-2, -1), keepdims=True)
    # two decades whose brackets overlap within and not across; 10^+-170 and 10^+-200 leave the Frobenius
    # sum's range, so those matrices get [0, inf)
    exponents = [0.0, 1.0] + ([-200.0, -170.0, 170.0, 200.0] if draw(st.booleans()) else [])
    stack *= 10.0 ** rng.choice(exponents, size=(g, n, 1, 1))
    for _ in range(draw(st.integers(0, 2 * n))):  # whole samples repeated, matrices repeated within a sample
        if rng.random() < 0.5:
            stack[:, rng.integers(n)] = stack[:, rng.integers(n)]
        else:
            stack[rng.integers(g), rng.integers(n)] = stack[rng.integers(g), rng.integers(n)]
    stack[rng.random((g, n)) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    size = draw(st.sampled_from([0.0, 1e-9, 1.0]))
    allowance = size * (1.0 + np.floor(4.0 * rng.random(n)))  # ties in the allowance too
    return (stack[0] if grid == 0 else stack), allowance


class TestExtremeNorms:
    """extreme_norms is exact wherever a report reads a sample stack and an upper bound everywhere else."""

    @pytest.mark.parametrize("d", BRACKET_DIMS)
    @pytest.mark.parametrize("grid", [(), (5,)])
    def test_extremes_are_exact(self, monkeypatch, d, grid):
        rng = np.random.default_rng(400 + d)
        shape = (*grid, 200, d, d)
        # the ends of the range get [0, inf) brackets; sample 50 is all zero
        stack = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.logspace(-170, 170, 200)[:, None, None]
        stack[..., 50, :, :] = 0.0
        allowance = 1e-9 * (1.0 + rng.random(200))
        full = spectral_norms(stack)
        calls = norm_calls(monkeypatch)
        out = extreme_norms(stack, allowance)
        assert 0 < sum(np.prod(c.shape[:-2]) for c in calls) < full.size
        assert out.shape == full.shape and np.all(out >= full)
        assert read_extremes(out, allowance) == read_extremes(full, allowance)
        value, ref = (out, full) if not grid else (out.max(axis=0), full.max(axis=0))
        exact = value == ref  # the samples whose norm is exact, every extreme's among them
        # a sample with an exact norm is exact at every phase that ties it, and strictly below it elsewhere
        ties = (full == ref)[..., exact]
        assert np.array_equal(out[..., exact][ties], full[..., exact][ties])
        assert np.all(out[..., exact][~ties] < np.broadcast_to(ref[exact], ties.shape)[~ties])

    @settings(max_examples=300, deadline=None)
    @given(adversarial_stacks())
    def test_extremes_match_full_norms_on_adversarial_stacks(self, case):
        stack, allowance = case
        full = spectral_norms(stack)
        out = extreme_norms(stack, allowance)
        assert out.shape == full.shape and np.all(out >= full)
        assert read_extremes(out, allowance) == read_extremes(full, allowance)

    def test_zero_matrices_take_no_norm_call(self, monkeypatch):
        rng = np.random.default_rng(7)
        stack = np.zeros((3, 6, 3, 3), dtype=complex)
        stack[:, 3:] = rng.normal(size=(3, 3, 3, 3))
        stack[1, 4] = 0.0  # a zero matrix inside a sample that is not zero
        allowance = np.full(6, 1e-9)
        calls = norm_calls(monkeypatch)
        out = extreme_norms(stack, allowance)
        assert np.array_equal(out[:, :3], np.zeros((3, 3))) and out[1, 4] == 0.0
        assert calls and all(np.all(np.any(c, axis=(-2, -1))) for c in calls)
        assert read_extremes(out, allowance) == read_extremes(spectral_norms(stack), allowance)
        calls.clear()
        assert np.array_equal(extreme_norms(np.zeros((4, 2, 2), dtype=complex), np.zeros(4)), np.zeros(4))
        assert calls == []

    @pytest.mark.parametrize("grid", [(), (3,)])
    def test_minimum_sample_is_not_normed(self, monkeypatch, grid):
        # sample 1 is the minimum, sample 2 the maximum and sample 3 the worst excess, since sample 2's
        # allowance exceeds its norm; the samples lie a decade or more apart, so no bracket overlaps another
        rng = np.random.default_rng(11)
        shape = (*grid, 4, 3, 3)
        stack = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.array([10.0, 1.0, 1e4, 1e2])[:, None, None]
        allowance = np.array([0.0, 0.0, 1e6, 0.0])
        full = spectral_norms(stack)
        calls = norm_calls(monkeypatch)
        out = extreme_norms(stack, allowance)
        assert read_extremes(out, allowance) == read_extremes(full, allowance)
        normed = np.concatenate([c.reshape(-1, 3, 3) for c in calls])
        minimum = stack[..., 1, :, :].reshape(-1, 3, 3)
        assert not np.any(np.all(normed[:, np.newaxis] == minimum[np.newaxis], axis=(-2, -1)))
        assert np.all(out[..., 1] > full[..., 1])  # its bracket stays open

    def test_all_candidates_norm_the_stack_as_is(self, monkeypatch):
        # two samples that are the two seeds (the first argmax of lo and the first argmax of lo - allowance)
        # are every sample, so the seed round passes the stack unchanged
        stack = np.array([[[1.0, 2.0j], [0.5, -1.0]]]) * np.array([1.0, 2.0])[:, None, None]
        calls = norm_calls(monkeypatch)
        assert np.array_equal(extreme_norms(stack, np.array([0.0, 10.0])), spectral_norms(stack))
        assert len(calls) == 1 and calls[0] is stack
        # equal residuals all tie for the maximum: the seed round norms sample 0 and the second round the
        # rest, so every matrix is normed once, and the result equals full norms
        calls.clear()
        stack = np.repeat(stack[:1], 8, axis=0)
        assert np.array_equal(extreme_norms(stack, np.full(8, 1e-9)), spectral_norms(stack))
        assert [len(c) for c in calls] == [1, 7]

    def test_empty_stacks(self):
        assert extreme_norms(np.zeros((0, 3, 3), dtype=complex), np.zeros(0)).shape == (0,)
        assert extreme_norms(np.zeros((0, 5, 3, 3), dtype=complex), np.zeros(5)).shape == (0, 5)


def seeded_stack(first_seed: int, count: int, dim: int, norm_cap: float) -> np.ndarray:
    return np.stack([random_element(first_seed + i, dim, norm_cap) for i in range(count)])


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
        assert np.array_equal(a, b)

    def test_norm_cap_respected_over_seeds(self):
        for seed in range(100):
            assert spectral_norms(random_element(seed, 4, 1.0)[np.newaxis])[0] <= 1.0

    def test_zero_cap_gives_zero(self):
        assert np.array_equal(random_element(9, 2, 0.0), np.zeros((2, 2), dtype=complex))

    def test_distinct_seeds_differ(self):
        a = random_element(1, 3, 1.0)
        b = random_element(2, 3, 1.0)
        assert not np.array_equal(a, b)

    def test_batch_replays_single(self):
        # 5 dim words per sample = 5, 10, 15, 20, ... : every padding to 4 words occurs
        for dim in range(1, 9):
            batch = random_elements(77, 23, dim, 2.0, stream=4)
            for i in range(23):
                single = random_element(77, dim, 2.0, stream=4, index=i)
                assert np.array_equal(batch[i], single), (dim, i)

    def test_row_does_not_depend_on_count(self):
        for dim in (1, 2, 3, 5):
            full = random_elements(5, 40, dim, 3.0, stream=9)
            for m in (0, 1, 7, 39):
                assert np.array_equal(random_elements(5, m, dim, 3.0, stream=9), full[:m])

    def test_zero_cap_gives_exact_zeros_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = random_elements(3, 50, 3, 0.0, stream=2)
        assert stack.shape == (50, 3, 3)
        assert not np.any(np.signbit(stack.real)) and not np.any(np.signbit(stack.imag))
        assert np.array_equal(stack, np.zeros((50, 3, 3)))

    def test_no_norm_call(self, monkeypatch):
        def refused(mats):
            raise AssertionError("a drawn element's norm is known by construction")

        monkeypatch.setattr(algebra, "spectral_norms", refused)
        for dim in (1, 2, 4):
            random_elements(8, 300, dim, 1.0, stream=3)
            random_element(8, dim, 1.0, stream=3, index=5)

    def test_singular_values_are_the_drawn_ones(self):
        # row i is target * H1 diag(1, s_2 .. s_dim) H2: its singular values are target * (1, s) to rounding
        for dim in range(1, 9):
            u = np.empty((500, algebra._block(dim)))
            algebra._uniforms(6, 3, u)
            norms = np.empty(500)
            stack = random_elements(6, 500, dim, 10.0, stream=3, norms_out=norms)
            drawn = norms[:, np.newaxis] * np.concatenate([np.ones((500, 1)), u[:, 4 * dim : 5 * dim - 1]], axis=1)
            want = -np.sort(-drawn, axis=1)
            got = np.linalg.svd(stack, compute_uv=False)
            assert np.all(np.abs(got - want) <= 8 * np.spacing(norms)[:, np.newaxis]), dim

    def test_dim_one_draws_are_phases_times_the_target(self):
        norms = np.empty(400)
        stack = random_elements(12, 400, 1, 10.0, stream=3, norms_out=norms)[:, 0, 0]
        assert np.all(np.abs(np.abs(stack) - norms) <= 8 * np.spacing(norms))
        # a bare 1 x 1 reflection is -1, so the phase comes from v1: spread round the circle, not +-1
        phases = stack / norms
        assert np.mean(np.abs(phases.imag) > 0.1) > 0.8 and 0.3 < np.mean(phases.real < 0.0) < 0.7

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_draws_are_not_normal(self, dim):
        # a Hermitian, unitary-diagonalisable or diagonal draw would commute with its adjoint and leave
        # the transpose and unitary lemma checks nothing to catch
        norms = np.empty(500)
        a = random_elements(7, 500, dim, 1.0, stream=5, norms_out=norms)
        adj = _conj_t(a)
        defect = spectral_norms(a @ adj - adj @ a) / norms**2
        assert defect.min() > 1e-6 and np.median(defect) > 0.1

    def test_drawn_norms_agree_with_a_fresh_svd(self):
        # a drawn norm is the target its row was built with; the worst gap seen here is 6 ulps
        for dim in range(1, 9):
            for seed in range(20):
                norms = np.empty(500)
                stack = random_elements(seed, 500, dim, 10.0, stream=3, norms_out=norms)
                assert np.all(np.abs(spectral_norms(stack) - norms) <= 8 * np.spacing(norms)), (dim, seed)

    def test_drawn_norms_replay_and_leave_the_stack_unchanged(self):
        for dim in (1, 2, 5):
            norms = np.empty(23)
            batch = random_elements(77, 23, dim, 2.0, stream=4, norms_out=norms)
            assert np.array_equal(batch, random_elements(77, 23, dim, 2.0, stream=4))
            for i in range(23):
                norm = np.empty(())
                assert np.array_equal(random_element(77, dim, 2.0, stream=4, index=i, norms_out=norm), batch[i])
                assert norm == norms[i]

    def test_drawn_norm_of_a_zero_row_is_exactly_zero(self):
        norms = np.full(50, np.nan)
        random_elements(3, 50, 3, 0.0, stream=2, norms_out=norms)
        assert np.array_equal(norms, np.zeros(50)) and not np.signbit(norms).any()
        # a zero target is a +0.0 row; a positive one is the row's drawn norm
        u = np.random.default_rng(4).random((2, algebra._block(2)))
        u[1, 9] = 0.0
        stack, drawn = algebra._scaled(u, 2, 5.0)
        assert np.array_equal(drawn, [5.0 * u[0, 9], 0.0]) and not np.signbit(drawn).any()
        assert np.array_equal(stack[1], np.zeros((2, 2))) and not np.signbit(stack[1].view(float)).any()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_null_reflection_vector_is_the_identity(self, dim):
        # uniforms of 0.5 map to the zero vector, whose reflection would divide by v* v = 0
        u = np.random.default_rng(5).random((3, algebra._block(dim)))
        u[0, : 4 * dim] = 0.5  # v1 = v2 = 0: the bare diagonal
        u[1, : 2 * dim] = 0.5  # v1 = 0: diag @ H2
        u[2, 2 * dim : 4 * dim] = 0.5  # v2 = 0: H1 @ diag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack, drawn = algebra._scaled(u, dim, 5.0)
        diag = drawn[:, np.newaxis] * np.concatenate([np.ones((3, 1)), u[:, 4 * dim : 5 * dim - 1]], axis=1)
        assert np.array_equal(stack[0], np.diag(diag[0]).astype(complex))
        if dim == 1:  # a null v1 gives the phase 1
            assert np.array_equal(stack[:2, 0, 0], drawn[:2].astype(complex))
            return
        for i, side in ((1, 2), (2, 0)):
            v = 2.0 * u[i, side * dim : (side + 2) * dim] - 1.0
            v = v[:dim] + 1j * v[dim:]
            h = np.eye(dim) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
            want = np.diag(diag[i]) @ h if side == 2 else h @ np.diag(diag[i])
            assert np.allclose(stack[i], want, rtol=0.0, atol=1e-6 * drawn[i])
        assert np.all(np.abs(spectral_norms(stack) - drawn) <= 8 * np.spacing(drawn))

    def test_streams_differ(self):
        a, b = (random_elements(8, 4, 2, 1.0, stream=s) for s in (0, 1))
        assert not np.array_equal(a, b)


class TestBatchedDraw:
    """random_elements over a sequence of streams: one flat stack, rows as drawn one stream at a time."""

    STREAMS = (10, 11, 12, 13, 20, 21, 22, 35, 36)

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_equals_the_single_stream_calls(self, dim, k):
        streams = self.STREAMS[:k]
        norms = np.empty(k * 40)
        stack = random_elements(91, 40, dim, 10.0, stream=streams, norms_out=norms)
        assert stack.shape == (k * 40, dim, dim) and stack.dtype == np.complex128
        singles, single_norms = [], []
        for s in streams:
            n = np.empty(40)
            singles.append(random_elements(91, 40, dim, 10.0, stream=s, norms_out=n))
            single_norms.append(n)
        assert np.array_equal(stack, np.concatenate(singles))
        assert np.array_equal(norms, np.concatenate(single_norms))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_random_element_replays_any_row(self, dim):
        streams = self.STREAMS[:4]
        norms = np.empty(4 * 25)
        stack = random_elements(92, 25, dim, 3.0, stream=streams, norms_out=norms)
        for k, s in enumerate(streams):
            for i in (0, 1, 12, 24):
                norm = np.empty(())
                assert np.array_equal(random_element(92, dim, 3.0, stream=s, index=i, norms_out=norm), stack[k * 25 + i])
                assert norm == norms[k * 25 + i]

    def test_no_norm_call_for_all_streams(self, monkeypatch):
        def refused(mats):
            raise AssertionError("a drawn element's norm is known by construction")

        monkeypatch.setattr(algebra, "spectral_norms", refused)
        norms = np.empty(900)
        random_elements(8, 300, 4, 1.0, stream=[3, 4, 5], norms_out=norms)

    def test_empty_stream_sequence_draws_nothing(self):
        assert random_elements(8, 5, 3, 1.0, stream=()).shape == (0, 3, 3)

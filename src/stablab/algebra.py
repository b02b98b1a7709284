"""The carrier M_d(C): the batched spectral norm and seeded sampling.

The full matrix algebra with the conjugate-transpose involution and the
operator (spectral) norm.  An element is a (d, d) complex128 array and
arithmetic runs on (..., d, d) numpy stacks.  Every function here is pure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NonFiniteError",
    "spectral_norms",
    "NormBracket",
    "extreme_norms",
    "random_element",
    "random_elements",
    "derived_seed",
    "SAMPLER",
]


class DimensionMismatchError(ValueError):
    """Operands live in algebras of different dimension."""


class NonFiniteError(ArithmeticError, ValueError):
    """A NaN or infinite value reached a computation that needs finite input."""


def _square_stack(mats: np.ndarray) -> np.ndarray:
    arr = np.asarray(mats, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a (..., d, d) stack, got shape {arr.shape}")
    return arr


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., d, d) stack.

    One batched LAPACK SVD call (backward stable), so each value is accurate
    to a few ulps of the norm even when the top singular values are nearly
    degenerate.  Each matrix is decomposed independently: a value does not
    depend on the rest of the stack.  A matrix whose entries are all zero
    (-0.0 included) gets +0.0.  Non-finite entries raise NonFiniteError (a
    ValueError).
    """
    arr = _square_stack(mats)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("spectral_norms: non-finite entries")
    return np.linalg.svd(arr, compute_uv=False)[..., 0]


# The relative widening of every bracket end, far above the few ulps by which
# the Frobenius sum or an SVD value can be off, and above the entrywise
# stage's rounding at every dimension the work budget admits (see tighten).
BRACKET_MARGIN = 1e-12
# tighten trusts its bounds only where a matrix's largest entry reaches this:
# rounding a subnormal modulus is absolute, not relative, and above this
# floor no such error exceeds 1e-20 relative.
ENTRYWISE_FLOOR = 1e-300


class NormBracket:
    """Bounds lo <= spectral_norms(mats) <= hi per matrix of a (..., d, d) stack, exact where refined.

    Every matrix starts from its Frobenius bracket: the spectral norm of a
    d x d matrix lies in [F / sqrt(d), F], F its Frobenius norm, and both
    ends are widened by BRACKET_MARGIN relative.  A matrix whose entries are
    all zero (-0.0 included) starts exact, at [0, 0], the 0.0 spectral_norms
    gives it.  The squares of the entries underflow or overflow when F
    leaves about [1e-150, 1e150], so any other such matrix (a subnormal
    entry counts as nonzero) starts at [0, inf).  Non-finite entries raise
    NonFiniteError, as in spectral_norms.  ``tighten`` narrows the selected
    open brackets with entrywise bounds, no SVD.  ``refine`` norms the
    selected matrices whose bracket is still open with spectral_norms, after
    which each has lo == hi, its exact value, so no matrix is normed twice.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        arr = np.ascontiguousarray(_square_stack(mats))
        flat = arr.reshape(*arr.shape[:-2], -1).view(np.float64)
        with np.errstate(over="ignore", under="ignore"):
            squares = np.einsum("...i,...i->...", flat, flat)
        if not np.all(np.isfinite(squares)) and not np.all(np.isfinite(arr)):  # a finite sum has finite terms
            raise NonFiniteError("NormBracket: non-finite entries")
        frob = np.sqrt(squares)
        usable = (squares >= 1e-300) & (squares <= 1e300)
        self.lo = np.where(usable, frob * ((1.0 - BRACKET_MARGIN) / np.sqrt(arr.shape[-1])), 0.0)
        bounded = usable if usable.all() else usable | ~flat.any(axis=-1)  # an all-zero matrix has frob == 0.0
        self.hi = np.where(bounded, frob * (1.0 + BRACKET_MARGIN), np.inf)

    def tighten(self, rows: np.ndarray) -> None:
        """Narrow the open brackets among ``rows`` (a mask of lo's shape) to entrywise bounds.

        max |a_ij| <= ||a|| <= sqrt(||a||_1) sqrt(||a||_inf), the 1- and
        inf-norms being the largest column and row sums of |a_ij|; the two
        roots are taken apart, so no product overflows.  Each end is widened
        by BRACKET_MARGIN and kept only where it narrows the bracket.  The
        rounding it covers: each |a_ij| is a hypot, within an ulp (2^-52
        relative); a sum of d of them is within (d - 1) 2^-53 in any order;
        the roots and their product add three half-ulps.  At d = 3162, the
        largest dimension whose d^2 entries the work budget admits, that is
        below 4e-13, which leaves the few ulps by which the SVD value can be
        off well inside the margin.  A matrix whose largest entry is below
        ENTRYWISE_FLOOR, or whose upper bound overflows, keeps its bracket.
        On a scalar multiple of the identity or of one matrix unit both ends
        meet the norm to within the margin.
        """
        rows = rows & (self.lo < self.hi)
        if not rows.any():
            return
        with np.errstate(over="ignore", under="ignore"):
            mags = np.abs(self.mats[rows])
            top = mags.max(axis=(-2, -1))
            upper = np.sqrt(mags.sum(axis=-2).max(axis=-1)) * np.sqrt(mags.sum(axis=-1).max(axis=-1))
        usable = (top >= ENTRYWISE_FLOOR) & (upper < np.inf)
        lo, hi = self.lo[rows], self.hi[rows]
        self.lo[rows] = np.where(usable, np.maximum(lo, top * (1.0 - BRACKET_MARGIN)), lo)
        self.hi[rows] = np.where(usable, np.minimum(hi, upper * (1.0 + BRACKET_MARGIN)), hi)

    def refine(self, rows: np.ndarray) -> None:
        """Norm the open matrices among ``rows`` (a mask of lo's shape); the stack as it is when all are selected."""
        rows = rows & (self.lo < self.hi)
        if rows.all():
            self.lo[...] = self.hi[...] = spectral_norms(self.mats)
        elif rows.any():
            self.lo[rows] = self.hi[rows] = spectral_norms(self.mats[rows])


def extreme_norms(mats: np.ndarray, allowance: np.ndarray) -> np.ndarray:
    """Spectral norms of a sample stack, exact wherever a report can read them.

    ``mats`` is (n, d, d), one matrix per sample, or (G, n, d, d), G matrices
    per sample whose maximum over axis 0 is the sample's norm.  A report
    reads the maximum and, with ``allowance`` (tol * scale per sample), the
    first argmax of norm - allowance.  Each matrix is bracketed by a
    NormBracket, and a sample's bracket is the maximum of lo and of hi over
    G.  Two rounds refine samples.  The first norms the samples that set the
    thresholds: the first argmax of lo and the first argmax of lo -
    allowance.  The second norms every sample whose bracket, as it stands
    then, could still reach the maximum or the worst excess.  Within a
    refined sample, only the matrices whose hi reaches the sample's lo are
    normed: any other lies strictly below the sample's maximum.  The result
    is the bracket's hi per matrix, an upper bound everywhere and exact
    where normed.  An unrefined sample's norm is its hi, strictly below the
    maximum and the worst excess.  So the two extremes, their first indices
    and, for a refined sample, its first maximising matrix over G are those
    of full norms, bit for bit.
    """
    arr = _square_stack(mats)
    if arr.size == 0:
        return np.zeros(arr.shape[:-2])
    bracket = NormBracket(arr)
    lo, hi = bracket.lo, bracket.hi

    def sample_bounds() -> tuple[np.ndarray, np.ndarray]:
        return (lo, hi) if arr.ndim == 3 else (lo.max(axis=0), hi.max(axis=0))

    sample_lo, sample_hi = sample_bounds()
    seeds = np.zeros(sample_lo.shape, dtype=bool)
    seeds[[np.argmax(sample_lo), np.argmax(sample_lo - allowance)]] = True
    bracket.refine(seeds & (hi >= sample_lo))
    sample_lo, sample_hi = sample_bounds()
    candidate = (sample_hi >= sample_lo.max()) | (sample_hi - allowance >= np.max(sample_lo - allowance))
    bracket.refine(candidate & (hi >= sample_lo))
    return hi


def derived_seed(*parts: int) -> int:
    """Collision-resistant child seed derived from an integer tuple."""
    seq = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(seq.generate_state(1, np.uint64)[0])


# Names the draw behind random_elements; it enters every config digest, so a
# change to the draw (key, layout or construction) must change this string.
SAMPLER = "philox4x64-householder/2"

# A reflection vector's components lie on the grid k / 2^23 - 1, so the
# products of two of them are exact, and so is v*v up to dim 64: the
# reflection then sends v to -v exactly, and the drawn norm stays within a
# few ulps of the matrix's operator norm.
_GRID = 2.0**23
# A reflection vector whose squared norm is below this reflects as the
# identity; on the grid only v = 0 is.
_NULL = 1e-300


def _block(dim: int) -> int:
    """Words one sample uses: 5 dim, padded to Philox's 4-word output.

    Words 0 .. 2 dim - 1 are the reflection vector v1 (real parts, then
    imaginary parts), 2 dim .. 4 dim - 1 are v2, 4 dim .. 5 dim - 2 are the
    singular values s_2 .. s_dim, and word 5 dim - 1 is the norm target;
    the rest is padding.  See _scaled.
    """
    return -(-5 * dim // 4) * 4


def _uniforms(seed: int, stream: int, out: np.ndarray, first: int = 0) -> np.ndarray:
    """Fill ``out`` (rows, block) with rows first .. first+rows-1 of the (seed, stream) draw, uniforms on [0, 1).

    Philox is keyed by the two uint64 words (seed, stream); each uniform uses
    one 64-bit word, and a block is a whole number of Philox outputs, so
    advancing the counter by first * block / 4 starts exactly at row first.
    """
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bits.advance(first * out.shape[1] // 4)
    return np.random.Generator(bits).random(out.shape, out=out)


def _scaled(u: np.ndarray, dim: int, norm_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, dim, dim) stack a block of uniforms stands for, and each row's drawn norm.

    Row i is target * H1 @ diag(1, s_2 .. s_dim) @ H2, computed in real
    arithmetic one reflection at a time.  H = I - 2 v v* / (v* v) is a
    complex Householder reflection whose v takes 2 dim uniforms mapped to
    [-1, 1) + [-1, 1)i on the _GRID (real parts, then imaginary parts;
    v1, then v2); the s_k are the next dim - 1 uniforms and target is
    norm_cap times the last one.  So the operator norm is the target to
    rounding.  A dim-1 row is target times the unit phase v1 / |v1|, since
    a 1 x 1 reflection is -1.  A null v (v* v below _NULL) gives the
    identity in place of its reflection, and the phase 1.  A row whose
    target is 0 is exactly +0.0 with drawn norm 0; every other row's drawn
    norm is its target.

    Rows run along the last axis of every intermediate, so each operation
    works on contiguous rows, and a row's every value, sums included (taken
    in index order with cumsum), does not depend on how many rows there are.
    """
    n, d = u.shape[0], dim
    words = np.ascontiguousarray(u[:, : 5 * d].T)
    target = norm_cap * words[5 * d - 1]
    live = target > 0.0
    v = (np.floor(words[: 4 * d] * (2.0 * _GRID)) / _GRID - 1.0).reshape(4, d, n)
    x1, y1, x2, y2 = v
    # 2 / (v* v) enters as a division by v* v; a null v divides by inf, which zeroes its reflection term
    squared = np.cumsum((v * v).reshape(2, 2 * d, n), axis=1)[:, -1]
    s1, s2 = np.where(squared >= _NULL, squared, np.inf)
    out = np.empty((n, d, d), dtype=np.complex128)
    if d == 1:
        r = np.sqrt(s1)
        out.real[:, 0, 0] = target * np.where(np.isinf(r), 1.0, x1[0] / r)
        out.imag[:, 0, 0] = target * (y1[0] / r)
    else:
        diag = np.concatenate([target[np.newaxis], target * words[4 * d : 5 * d - 1]])
        # Y = D H2, indexed [i, j, row]: row i of D H2 is D_i e_i - a_i v2*, with a = 2 D v2 / (v2* v2)
        ax, ay = 2.0 * diag * x2 / s2, 2.0 * diag * y2 / s2
        re = -(ax[:, np.newaxis] * x2 + ay[:, np.newaxis] * y2)
        im = ax[:, np.newaxis] * y2 - ay[:, np.newaxis] * x2
        re[np.arange(d), np.arange(d)] += diag
        # H1 Y = Y - v1 w, with w = 2 v1* Y / (v1* v1)
        x1c, y1c = x1[:, np.newaxis], y1[:, np.newaxis]
        wr = 2.0 * np.cumsum(x1c * re + y1c * im, axis=0)[-1] / s1
        wi = 2.0 * np.cumsum(x1c * im - y1c * re, axis=0)[-1] / s1
        out.real = np.moveaxis(re - (x1c * wr - y1c * wi), 2, 0)
        out.imag = np.moveaxis(im - (x1c * wi + y1c * wr), 2, 0)
    out[~live] = 0.0
    return out, np.where(live, target, 0.0)


def _check_args(dim: int, norm_cap: float) -> None:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if norm_cap < 0.0:
        raise ValueError("norm_cap must be nonnegative")


def random_elements(
    seed: int,
    count: int,
    dim: int,
    norm_cap: float,
    stream: int | Sequence[int] = 0,
    *,
    norms_out: np.ndarray | None = None,
) -> np.ndarray:
    """Stack of ``count`` seeded random elements per stream as a (streams * count, dim, dim) array.

    Each element is target * H1 diag(1, s_2 .. s_dim) H2 (see _scaled): two
    complex Householder reflections around a diagonal whose other singular
    values s_k are uniform on [0, 1), scaled to a norm target drawn
    uniformly from [0, norm_cap).  Its operator norm is the target, known
    without an SVD; its singular vectors come from the two reflections, not
    from the whole unitary group, and its determinant is real for dim >= 2.
    Each stream is one counter-based draw keyed by (seed, stream), both in
    [0, 2^64); ``stream`` is one stream or a sequence of them, whose draws
    are stacked in order along the first axis.  Row i of a stream's draw
    depends neither on ``count`` nor on the other streams, and
    random_element(seed, dim, norm_cap, stream, i) replays it alone.

    ``norms_out``, a float array of shape (streams * count,), receives each
    row's drawn norm: its target, or exactly 0 for a zero row.  A caller
    that needs the norms of the stack reads them here instead of norming it.
    A drawn norm was within 6 ulps of a fresh spectral_norms value at dims
    1-8 and within 9 at dim 32 (20 seeds × 500 rows, 100 at dim 32).
    """
    _check_args(dim, norm_cap)
    streams = [stream] if np.ndim(stream) == 0 else list(stream)
    u = np.empty((len(streams) * count, _block(dim)))
    for k, s in enumerate(streams):
        _uniforms(seed, s, u[k * count : (k + 1) * count])
    out, norms = _scaled(u, dim, norm_cap)
    if norms_out is not None:
        norms_out[...] = norms
    return out


def random_element(
    seed: int, dim: int, norm_cap: float, stream: int = 0, index: int = 0, *, norms_out: np.ndarray | None = None
) -> np.ndarray:
    """Row ``index`` of random_elements(seed, ..., stream), drawn on its own; equal bit for bit.

    ``norms_out``, a float array of shape (), receives the row's drawn norm,
    equal bit for bit to the batch's.
    """
    _check_args(dim, norm_cap)
    out, norms = _scaled(_uniforms(seed, stream, np.empty((1, _block(dim))), first=index), dim, norm_cap)
    if norms_out is not None:
        norms_out[...] = norms[0]
    return out[0]

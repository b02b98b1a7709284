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
    "norm_brackets",
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


# The relative widening of a Frobenius bracket, far above the few ulps by
# which the Frobenius sum or an SVD value can be off.
BRACKET_MARGIN = 1e-12


def norm_brackets(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) with lo <= spectral_norms(mats) <= hi, per matrix of a (..., d, d) stack.

    The spectral norm of a d x d matrix lies in [F / sqrt(d), F], F its
    Frobenius norm; both ends are widened by BRACKET_MARGIN relative.  A
    matrix whose entries are all zero (-0.0 included) gets the exact bracket
    [0, 0], the 0.0 spectral_norms gives it.  The squares of the entries
    underflow or overflow when F leaves about [1e-150, 1e150], so any other
    such matrix (a subnormal entry counts as nonzero) gets [0, inf).
    Non-finite entries raise NonFiniteError, as in spectral_norms.
    """
    arr = np.ascontiguousarray(_square_stack(mats))
    flat = arr.reshape(*arr.shape[:-2], -1).view(np.float64)
    with np.errstate(over="ignore", under="ignore"):
        squares = np.einsum("...i,...i->...", flat, flat)
    if not np.all(np.isfinite(squares)) and not np.all(np.isfinite(arr)):  # a finite sum has finite terms
        raise NonFiniteError("norm_brackets: non-finite entries")
    frob = np.sqrt(squares)
    usable = (squares >= 1e-300) & (squares <= 1e300)
    lo = np.where(usable, frob * ((1.0 - BRACKET_MARGIN) / np.sqrt(arr.shape[-1])), 0.0)
    bounded = usable | ~flat.any(axis=-1)  # an all-zero matrix has frob == 0.0
    return lo[()], np.where(bounded, frob * (1.0 + BRACKET_MARGIN), np.inf)[()]


class NormBracket:
    """Bounds lo <= spectral_norms(mats) <= hi per matrix of a (..., d, d) stack, exact where refined.

    Every matrix starts from its norm_brackets bounds; ``refine`` norms the
    selected matrices whose bracket is still open with spectral_norms, after
    which each has lo == hi, its exact value.  An all-zero matrix starts
    exact, at [0, 0], so it is never normed, and no matrix is normed twice.
    """

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self.lo, self.hi = norm_brackets(mats)

    def refine(self, rows: np.ndarray) -> None:
        """Norm the open matrices among ``rows`` (a mask of lo's shape); the stack as it is when all are selected."""
        rows = rows & (self.lo < self.hi)
        if rows.all():
            self.lo[...] = self.hi[...] = spectral_norms(self.mats)
        elif rows.any():
            self.lo[rows] = self.hi[rows] = spectral_norms(self.mats[rows])


def extreme_norms(mats: np.ndarray, allowance: np.ndarray | None = None) -> np.ndarray:
    """Spectral norms of a sample stack, exact wherever a report can read them.

    ``mats`` is (n, d, d), one matrix per sample, or (G, n, d, d), G matrices
    per sample whose maximum over axis 0 is the sample's norm.  A report
    reads the maximum, the minimum and, given ``allowance`` (tol * scale per
    sample), the first argmax of norm - allowance.  Each sample is bracketed
    by a NormBracket (over G, the maximum of lo and of hi); a sample whose
    bracket could reach one of those extremes is a candidate, and the
    bracket refines all its matrices.  Every other sample carries its hi in
    all its entries, which lies strictly below the maximum and the worst
    excess and strictly above the minimum.  So the extremes, their first
    indices and, for a candidate, its first maximising matrix over G are
    those of full norms, bit for bit.
    """
    arr = _square_stack(mats)
    if arr.size == 0:
        return np.zeros(arr.shape[:-2])
    bracket = NormBracket(arr)
    lo, hi = bracket.lo, bracket.hi
    sample_lo, sample_hi = (lo, hi) if arr.ndim == 3 else (lo.max(axis=0), hi.max(axis=0))
    candidate = (sample_hi >= sample_lo.max()) | (sample_lo <= sample_hi.min())
    if allowance is not None:
        candidate |= sample_hi - allowance >= np.max(sample_lo - allowance)
    bracket.refine(np.broadcast_to(candidate, lo.shape))
    return np.where(candidate, lo, sample_hi)


def derived_seed(*parts: int) -> int:
    """Collision-resistant child seed derived from an integer tuple."""
    seq = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(seq.generate_state(1, np.uint64)[0])


# Names the draw behind random_elements; it enters every config digest, so a
# change to the draw (key, layout or normalisation) must change this string.
SAMPLER = "philox4x64/1"


def _block(dim: int) -> int:
    """Words one sample uses: 2 dim^2 uniforms plus its norm target, padded to Philox's 4-word output."""
    return -(-(2 * dim * dim + 1) // 4) * 4


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

    Row-major real parts, then imaginary parts, each uniform on [-1, 1); the
    matrix is rescaled so its operator norm equals norm_cap times the
    block's next uniform.  A row whose base norm or target is 0 is exactly 0
    and its drawn norm is 0; every other row's drawn norm is its target.
    """
    n = dim * dim
    x = 2.0 * u[:, : 2 * n] - 1.0
    raw = (x[:, :n] + 1j * x[:, n:]).reshape(-1, dim, dim)
    target = norm_cap * u[:, 2 * n]
    base = spectral_norms(raw)
    live = (base > 0.0) & (target > 0.0)
    out = raw * np.divide(target, base, out=np.zeros_like(base), where=live)[:, np.newaxis, np.newaxis]
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

    Entries are i.i.d. uniform on the complex square [-1,1) + [-1,1)i; each
    matrix is then rescaled so its operator norm equals a target drawn
    uniformly from [0, norm_cap).  Each stream is one counter-based draw
    keyed by (seed, stream), both in [0, 2^64); ``stream`` is one stream or
    a sequence of them, whose draws are stacked in order along the first
    axis, and the whole stack takes one norm call.  Row i of a stream's draw
    depends neither on ``count`` nor on the other streams, and
    random_element(seed, dim, norm_cap, stream, i) replays it alone.

    ``norms_out``, a float array of shape (streams * count,), receives each
    row's drawn norm: its target, or exactly 0 for a zero row.  A caller
    that needs the norms of the stack reads them here instead of norming it
    again; a drawn norm is within 4.5 eps relative of a fresh spectral_norms
    value.
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

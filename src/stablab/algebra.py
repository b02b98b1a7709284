"""The carrier M_d(C): elements, the batched spectral norm and seeded sampling.

The full matrix algebra with the conjugate-transpose involution and the
operator (spectral) norm.  Arithmetic runs on (..., d, d) numpy stacks; an
Element is one validated, read-only matrix.  Every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "Element",
    "NonFiniteError",
    "identity",
    "zeros",
    "matrix_unit",
    "element",
    "op_norm",
    "spectral_norms",
    "random_element",
    "random_elements",
    "derived_seed",
]


class DimensionMismatchError(ValueError):
    """Operands live in algebras of different dimension."""


class NonFiniteError(ArithmeticError, ValueError):
    """A NaN or infinite value reached a computation that needs finite input."""


@dataclass(frozen=True)
class Element:
    """A member of the algebra: a dim x dim complex matrix.

    Entries are validated (square, finite) on construction and the backing
    array is marked read-only afterwards.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"entries must form a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def __repr__(self) -> str:  # entries omitted: matrices are noisy in tracebacks
        return f"Element(dim={self.dim})"


def element(rows) -> Element:
    """Build an Element from any nested sequence of (complex) numbers."""
    return Element(np.array(rows, dtype=np.complex128))


def identity(dim: int) -> Element:
    return Element(np.eye(dim, dtype=np.complex128))


def zeros(dim: int) -> Element:
    return Element(np.zeros((dim, dim), dtype=np.complex128))


def matrix_unit(dim: int, row: int, col: int) -> Element:
    """The matrix with a single 1 at (row, col); operator norm exactly one."""
    arr = np.zeros((dim, dim), dtype=np.complex128)
    arr[row, col] = 1.0
    return Element(arr)


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., d, d) stack.

    One batched LAPACK SVD call (backward stable), so each value is accurate
    to a few ulps of the norm even when the top singular values are nearly
    degenerate.  Each matrix is decomposed independently: a value does not
    depend on the rest of the stack.  Non-finite entries raise
    NonFiniteError (a ValueError).
    """
    arr = np.asarray(mats, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a (..., d, d) stack, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("spectral_norms: non-finite entries")
    return np.linalg.svd(arr, compute_uv=False)[..., 0]


def op_norm(x: Element) -> float:
    """Operator (spectral) norm of x; exact 0.0 for the zero matrix."""
    return float(spectral_norms(x.entries[np.newaxis])[0])


def derived_seed(*parts: int) -> int:
    """Collision-resistant child seed derived from an integer tuple."""
    seq = np.random.SeedSequence(entropy=tuple(int(p) for p in parts))
    return int(seq.generate_state(1, np.uint64)[0])


def random_element(seed: int, dim: int, norm_cap: float) -> Element:
    """Seeded random algebra element with operator norm at most norm_cap.

    Entries are i.i.d. uniform on the complex square [-1,1] + [-1,1]i; the
    matrix is then rescaled so its operator norm equals a target drawn
    uniformly from [0, norm_cap).  Identical arguments give identical
    matrices; norm_cap == 0 gives the zero matrix.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if norm_cap < 0.0:
        raise ValueError("norm_cap must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    raw = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    target = norm_cap * rng.uniform(0.0, 1.0)
    base = float(spectral_norms(raw[np.newaxis])[0])
    if base == 0.0 or target == 0.0:
        return zeros(dim)
    return Element(raw * (target / base))


def random_elements(seed: int, count: int, dim: int, norm_cap: float, stream: int = 0) -> np.ndarray:
    """Stack of ``count`` seeded random elements as a (count, dim, dim) array.

    Entry i reproduces random_element(derived_seed(seed, stream, i), ...)
    exactly, so any batch member can be replayed standalone.
    """
    out = np.empty((count, dim, dim), dtype=np.complex128)
    for i in range(count):
        out[i] = random_element(derived_seed(seed, stream, i), dim, norm_cap).entries
    return out

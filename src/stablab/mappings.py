"""Catalog of finitely-described maps between matrix algebras.

The exact kinds (identity, transpose, unitary conjugation, negation, zero)
are C-linear by construction; transpose and unitary conjugation are the
standard Jordan *-homomorphism witnesses, and transpose is the canonical
example that preserves squares without preserving products.  A Perturbed
map adds a controlled defect term to an exact base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .algebra import DimensionMismatchError, NonFiniteError, random_elements, spectral_norms

__all__ = [
    "Identity",
    "Transpose",
    "Negation",
    "ZeroMap",
    "UnitaryConjugation",
    "Perturbation",
    "Perturbed",
    "MapSpec",
    "DIM_ONLY_ACTIONS",
    "MAP_KINDS",
    "PERTURBATION_MODES",
    "UNIT_DIRECTIONS",
    "apply_array",
    "describe",
    "jordan_star_laws",
    "jordan_star_points",
    "phase_permutation_unitary",
    "unit_circle_grid",
    "unit_direction",
]

PERTURBATION_MODES = ("power", "constant", "affine")


@dataclass(frozen=True)
class Identity:
    kind = "identity"
    dim: int


@dataclass(frozen=True)
class Transpose:
    kind = "transpose"
    dim: int


@dataclass(frozen=True)
class Negation:
    kind = "negation"
    dim: int


@dataclass(frozen=True)
class ZeroMap:
    kind = "zero"
    dim: int


def _read_only_matrix(value, name: str) -> np.ndarray:
    """A read-only complex128 copy of a nonempty square matrix.

    Non-finite entries are left to the caller's spectral_norms check, which
    raises NonFiniteError (a ValueError).
    """
    arr = np.array(value, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class UnitaryConjugation:
    """x -> u x u* for a fixed unitary u; multiplicative, star- and square-preserving.

    A u with exactly one nonzero entry per row and per column (a permutation
    with unit phases, as phase_permutation_unitary builds) keeps that entry's
    column ``perm[i]`` and value ``ph[i]`` of each row i, and apply_array
    conjugates by it as a gather; for any other u both are None.
    """

    kind = "unitary_conjugation"
    u: np.ndarray
    perm: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    ph: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        u = _read_only_matrix(self.u, "u")
        object.__setattr__(self, "u", u)
        # a non-finite u gives a non-finite defect, which spectral_norms refuses
        with np.errstate(invalid="ignore", over="ignore"):
            defect = u.conj().T @ u - np.eye(u.shape[0])
        if float(spectral_norms(defect[np.newaxis])[0]) > 1e-10:
            raise ValueError("u is not unitary within 1e-10")
        nonzero = u != 0
        if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
            perm = np.argmax(nonzero, axis=1)
            object.__setattr__(self, "perm", perm)
            object.__setattr__(self, "ph", u[np.arange(u.shape[0]), perm])

    @property
    def dim(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class Perturbation:
    """Additive defect term attached to an exact base map.

    mode "power":    eps(x) = size * ||x||^power * direction, eps(0) = 0
                     (the zero value is a continuity convention and holds
                     for every exponent, including power <= 0)
    mode "constant": eps(x) = size * direction for x != 0, eps(0) = 0
    mode "affine":   eps(x) = size * direction for every x, including 0

    With odd=True the direction is modulated by the phase of tr(x)
    (zero when the trace vanishes), making the field odd: eps(-x) = -eps(x).
    The direction matrix is fixed and must have operator norm at most one.
    """

    size: float
    power: float
    direction: np.ndarray
    mode: str = "power"
    odd: bool = False

    def __post_init__(self) -> None:
        direction = _read_only_matrix(self.direction, "direction")
        object.__setattr__(self, "direction", direction)
        if self.size < 0.0:
            raise ValueError("size must be nonnegative")
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"mode must be one of {PERTURBATION_MODES}, got {self.mode!r}")
        if float(spectral_norms(direction[np.newaxis])[0]) > 1.0 + 1e-9:
            raise ValueError("direction must have operator norm <= 1")


@dataclass(frozen=True)
class Perturbed:
    kind = "perturbed"
    base: "MapSpec"
    perturbation: Perturbation

    def __post_init__(self) -> None:
        if isinstance(self.base, Perturbed):
            raise ValueError("perturbations do not nest: base must be an exact kind")
        if self.perturbation.direction.shape[0] != self.base.dim:
            raise DimensionMismatchError("perturbation direction dimension differs from base map")

    @property
    def dim(self) -> int:
        return self.base.dim


MapSpec = Union[Identity, Transpose, Negation, ZeroMap, UnitaryConjugation, Perturbed]

# The map catalog: MAP_KINDS maps every config kind name to its class.  A
# dimension-only kind is built as cls(dim) and has one row in DIM_ONLY_ACTIONS
# with its action on a (..., d, d) stack; the config parser, builder and
# serializer read both tables, so a new such kind is its class plus that row.
DIM_ONLY_ACTIONS = {
    Identity: lambda xs: xs.copy(),
    Transpose: lambda xs: np.swapaxes(xs, -1, -2).copy(),
    Negation: np.negative,
    ZeroMap: np.zeros_like,
}
MAP_KINDS = {cls.kind: cls for cls in (*DIM_ONLY_ACTIONS, UnitaryConjugation, Perturbed)}


def describe(f: MapSpec) -> str:
    if not isinstance(f, Perturbed):
        return f"{f.kind}(dim={f.dim})"
    p = f.perturbation
    odd = ", odd" if p.odd else ""
    return f"perturbed({describe(f.base)}, mode={p.mode}, size={p.size}, power={p.power}{odd})"


def _corner(dim: int) -> np.ndarray:
    if dim < 2:
        raise ValueError("corner direction needs dim >= 2")
    arr = np.zeros((dim, dim), dtype=np.complex128)
    arr[0, dim - 1] = 1.0
    return arr


# Named unit-operator-norm direction matrices: "identity" is self-adjoint;
# "corner" is the nilpotent top-right matrix unit (dim >= 2), whose square
# vanishes exactly.
UNIT_DIRECTIONS = {"identity": lambda dim: np.eye(dim, dtype=np.complex128), "corner": _corner}


def unit_direction(dim: int, name: str) -> np.ndarray:
    """The named direction matrix of UNIT_DIRECTIONS at dimension dim."""
    if name not in UNIT_DIRECTIONS:
        raise ValueError(f"unknown direction name {name!r}")
    return UNIT_DIRECTIONS[name](dim)


def phase_permutation_unitary(dim: int, seed: int) -> np.ndarray:
    """Deterministic unitary: a permutation matrix with random unit phases."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    perm = rng.permutation(dim)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, dim))
    arr = np.zeros((dim, dim), dtype=np.complex128)
    arr[perm, np.arange(dim)] = phases
    return arr


def _safe_pow(values: np.ndarray, exponent: float, what: str) -> np.ndarray:
    """t^exponent over an array of norms with the convention 0^e := 0 for every e (including e <= 0).

    The one power helper of maps and controls.  A power beyond the float
    range raises NonFiniteError naming ``what`` and the exponent instead of
    letting numpy warn and an infinity reach a value.
    """
    vals = np.asarray(values, dtype=float)
    try:
        with np.errstate(over="raise"):
            return np.power(vals, exponent, out=np.zeros_like(vals), where=vals > 0.0)
    except FloatingPointError:
        raise NonFiniteError(f"{what} {exponent!r}: ||x||^power is beyond the float range") from None


def _perturbation_term(p: Perturbation, xs: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """The defect eps(x) over a (..., d, d) stack.

    Only "power" mode reads a norm: ``norms`` holds the caller's known
    spectral norm of each matrix of xs, and when it is None the stack is
    normed here.  "constant" mode asks only whether a matrix has a nonzero
    entry and "affine" mode needs nothing.  In every mode a NaN or infinite
    entry of xs, or a non-finite carried norm, raises NonFiniteError.
    """
    if norms is not None:
        norms = np.asarray(norms, dtype=float)
        if norms.shape != xs.shape[:-2]:
            raise ValueError(f"norms of shape {norms.shape} given for a stack of shape {xs.shape}")
        if not np.all(np.isfinite(norms)):
            raise NonFiniteError("perturbation term: non-finite carried norms")
    if p.mode == "power" and norms is None:
        norms = spectral_norms(xs)  # refuses non-finite entries itself
    elif not np.all(np.isfinite(xs)):
        raise NonFiniteError("perturbation term: non-finite entries")
    if p.mode == "power":
        mag = p.size * _safe_pow(norms, p.power, "perturbation power")
    elif p.mode == "constant":
        mag = p.size * np.any(xs != 0, axis=(-2, -1))
    else:  # affine: offset applies at zero too
        mag = np.full(xs.shape[:-2], p.size)
    coeff = np.asarray(mag, dtype=np.complex128)
    if p.odd:
        tr = np.trace(xs, axis1=-2, axis2=-1)
        mod = np.abs(tr)
        phase = np.where(mod > 0.0, tr / np.where(mod > 0.0, mod, 1.0), 0.0)
        coeff = coeff * phase
    return coeff[..., np.newaxis, np.newaxis] * p.direction


def apply_array(f: MapSpec, xs: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Evaluate f entrywise over a (..., d, d) stack of matrices.

    ``norms``, when given, is the spectral norm of each matrix of xs as the
    caller already knows it (shape xs.shape[:-2]); a "power" perturbation
    reads it instead of norming xs again.  A perturbed map refuses
    non-finite entries or norms with NonFiniteError in every mode; an exact
    map ignores ``norms``.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.shape[-1] != f.dim or xs.shape[-2] != f.dim:
        raise DimensionMismatchError(f"map of dim {f.dim} applied to shape {xs.shape}")
    if isinstance(f, Perturbed):
        return apply_array(f.base, xs) + _perturbation_term(f.perturbation, xs, norms)
    if type(f) in DIM_ONLY_ACTIONS:
        return DIM_ONLY_ACTIONS[type(f)](xs)
    if f.perm is None:  # unitary conjugation
        return f.u @ xs @ f.u.conj().T
    # (u x u*)[i, j] = ph[i] x[perm[i], perm[j]] conj(ph[j]), multiplied in the order of (u @ x) @ u*;
    # the operand order matters too, as numpy's complex product is not commutative bit for bit
    out = xs[..., f.perm[:, np.newaxis], f.perm[np.newaxis, :]]  # a gather makes a new array
    np.multiply(f.ph[:, np.newaxis], out, out=out)
    return np.multiply(out, f.ph.conj(), out=out)


def unit_circle_grid(extra: int = 16) -> list[complex]:
    """Unit scalars 1, -1, i, -i plus ``extra`` equally spaced phases, each once.

    The only phases that can repeat a scalar are the quarter turns (4k a
    multiple of ``extra``), which are 1, -1, i or -i and are left out.
    """
    phases = [complex(np.exp(2j * np.pi * k / extra)) for k in range(extra) if 4 * k % extra != 0]
    return [1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j, *phases]


def _conj_t(xs: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(xs, -1, -2))


def _twists(phases: list[complex] | None) -> np.ndarray:
    """The phases mu != 1 of a grid (unit_circle_grid() by default), as a (twists, 1, 1, 1) column."""
    if phases is None:
        phases = unit_circle_grid()
    return np.array([mu for mu in phases if mu != 1], dtype=np.complex128)[:, None, None, None]


def jordan_star_points(
    dim: int, samples: int, seed: int, norm_cap: float = 1.0, phases: list[complex] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation points of the Jordan *-homomorphism laws and their operator norms.

    Draws A and B (streams 1 and 2) and stacks, ``samples`` rows each: A,
    A^2, A*, A + B, B, then mu A for every phase mu != 1 of the grid.  The
    norms are the drawn ones for A and B, the norm of A again for A* and
    each mu A (|mu| = 1), and one spectral_norms call for A^2 and A + B.  A
    caller evaluates f at every point, in one pass if it stabilizes, and
    hands the values to jordan_star_laws; the sample stack A is
    ``points[:samples]``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mus = _twists(phases)
    drawn = np.empty(2 * samples)
    A, B = random_elements(seed, samples, dim, norm_cap, stream=(1, 2), norms_out=drawn).reshape(2, samples, dim, dim)
    na, nb = drawn.reshape(2, samples)
    squares, sums = A @ A, A + B
    n_squares, n_sums = spectral_norms(np.stack([squares, sums]))
    points = np.concatenate([A, squares, _conj_t(A), sums, B, *(mus * A)], axis=0)
    return points, np.concatenate([na, n_squares, na, n_sums, nb, np.tile(na, len(mus))])


def jordan_star_laws(values: np.ndarray, phases: list[complex] | None = None) -> dict[str, np.ndarray]:
    """Per-sample residuals of the Jordan *-homomorphism laws from f at jordan_star_points.

    ``values`` is f at every point, in their order, and ``phases`` the grid
    the points were drawn with.  Checks, in order: squares (f(a^2) vs
    f(a)^2), involution, additivity on sampled pairs, and homogeneity over
    the unit-scalar grid.  Every law matrix (squares, involution, additivity
    and each twist mu != 1) goes through one spectral_norms call, so every
    law value is exact; homogeneity is the maximum over the twists, zero
    without any.
    """
    mus = _twists(phases)
    dim = values.shape[-1]
    samples = len(values) // (5 + len(mus))
    fa, faa, fas, fab, fb = values[: 5 * samples].reshape(5, samples, dim, dim)
    f_twisted = values[5 * samples :].reshape(len(mus), samples, dim, dim)
    untwisted = np.stack([faa - fa @ fa, fas - _conj_t(fa), fab - fa - fb])
    laws = spectral_norms(np.concatenate([untwisted, f_twisted - mus * fa]))
    return {
        "squares": laws[0],
        "involution": laws[1],
        "additivity": laws[2],
        "homogeneity": np.max(laws[3:], axis=0, initial=0.0),
    }

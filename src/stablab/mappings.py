"""Catalog of finitely-described maps between matrix algebras.

The exact kinds (identity, transpose, unitary conjugation, negation, zero)
are C-linear by construction; transpose and unitary conjugation are the
standard Jordan *-homomorphism witnesses, and transpose is the canonical
example that preserves squares without preserving products.  A Perturbed
map adds a controlled defect term to an exact base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .algebra import (
    DimensionMismatchError,
    Element,
    NonFiniteError,
    identity as identity_element,
    matrix_unit,
    op_norm,
    random_elements,
    spectral_norms,
)

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
    "domain_dim",
    "jordan_star_defects",
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


@dataclass(frozen=True)
class UnitaryConjugation:
    """x -> u x u* for a fixed unitary u; multiplicative, star- and square-preserving."""

    kind = "unitary_conjugation"
    u: Element

    def __post_init__(self) -> None:
        defect = self.u.entries.conj().T @ self.u.entries - np.eye(self.u.dim)
        if float(spectral_norms(defect[np.newaxis])[0]) > 1e-10:
            raise ValueError("u is not unitary within 1e-10")

    @property
    def dim(self) -> int:
        return self.u.dim


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
    direction: Element
    mode: str = "power"
    odd: bool = False

    def __post_init__(self) -> None:
        if self.size < 0.0:
            raise ValueError("size must be nonnegative")
        if self.mode not in PERTURBATION_MODES:
            raise ValueError(f"mode must be one of {PERTURBATION_MODES}, got {self.mode!r}")
        if op_norm(self.direction) > 1.0 + 1e-9:
            raise ValueError("direction must have operator norm <= 1")


@dataclass(frozen=True)
class Perturbed:
    kind = "perturbed"
    base: "MapSpec"
    perturbation: Perturbation

    def __post_init__(self) -> None:
        if isinstance(self.base, Perturbed):
            raise ValueError("perturbations do not nest: base must be an exact kind")
        if self.perturbation.direction.dim != domain_dim(self.base):
            raise DimensionMismatchError("perturbation direction dimension differs from base map")

    @property
    def dim(self) -> int:
        return domain_dim(self.base)


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


def domain_dim(f: MapSpec) -> int:
    return f.dim


def describe(f: MapSpec) -> str:
    if not isinstance(f, Perturbed):
        return f"{f.kind}(dim={f.dim})"
    p = f.perturbation
    odd = ", odd" if p.odd else ""
    return f"perturbed({describe(f.base)}, mode={p.mode}, size={p.size}, power={p.power}{odd})"


def _corner(dim: int) -> Element:
    if dim < 2:
        raise ValueError("corner direction needs dim >= 2")
    return matrix_unit(dim, 0, dim - 1)


# Named unit-operator-norm direction matrices: "identity" is self-adjoint;
# "corner" is the nilpotent top-right matrix unit (dim >= 2), whose square
# vanishes exactly.
UNIT_DIRECTIONS = {"identity": identity_element, "corner": _corner}


def unit_direction(dim: int, name: str) -> Element:
    """The named direction matrix of UNIT_DIRECTIONS at dimension dim."""
    if name not in UNIT_DIRECTIONS:
        raise ValueError(f"unknown direction name {name!r}")
    return UNIT_DIRECTIONS[name](dim)


def phase_permutation_unitary(dim: int, seed: int) -> Element:
    """Deterministic unitary: a permutation matrix with random unit phases."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    perm = rng.permutation(dim)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, dim))
    arr = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        arr[perm[col], col] = phases[col]
    return Element(arr)


def _safe_pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """t^exponent with the convention 0^e := 0 for every e (including e <= 0).

    A power beyond the float range raises NonFiniteError naming the exponent
    instead of letting numpy warn and an infinity reach the map's value.
    """
    vals = np.asarray(values, dtype=float)
    positive = vals > 0.0
    try:
        with np.errstate(over="raise"):
            powered = np.where(positive, vals, 1.0) ** exponent
    except FloatingPointError:
        raise NonFiniteError(f"perturbation power {exponent!r}: ||x||^power is beyond the float range") from None
    return np.where(positive, powered, 0.0)


def _perturbation_term(p: Perturbation, xs: np.ndarray) -> np.ndarray:
    norms = spectral_norms(xs)
    if p.mode == "power":
        mag = p.size * _safe_pow(norms, p.power)
    elif p.mode == "constant":
        mag = p.size * (np.asarray(norms) > 0.0).astype(float)
    else:  # affine: offset applies at zero too
        mag = np.full_like(np.asarray(norms, dtype=float), p.size)
    coeff = np.asarray(mag, dtype=np.complex128)
    if p.odd:
        tr = np.trace(xs, axis1=-2, axis2=-1)
        mod = np.abs(tr)
        phase = np.where(mod > 0.0, tr / np.where(mod > 0.0, mod, 1.0), 0.0)
        coeff = coeff * phase
    return coeff[..., np.newaxis, np.newaxis] * p.direction.entries


def apply_array(f: MapSpec, xs: np.ndarray) -> np.ndarray:
    """Evaluate f entrywise over a (..., d, d) stack of matrices."""
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.shape[-1] != f.dim or xs.shape[-2] != f.dim:
        raise DimensionMismatchError(f"map of dim {f.dim} applied to shape {xs.shape}")
    if isinstance(f, Perturbed):
        return apply_array(f.base, xs) + _perturbation_term(f.perturbation, xs)
    if type(f) in DIM_ONLY_ACTIONS:
        return DIM_ONLY_ACTIONS[type(f)](xs)
    u = f.u.entries  # unitary conjugation
    return u @ xs @ u.conj().T


def unit_circle_grid(extra: int = 16) -> list[complex]:
    """Unit scalars 1, -1, i, -i plus ``extra`` equally spaced phases, deduplicated.

    The scalar 1 appears exactly once.
    """
    values: list[complex] = [1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j]
    for k in range(extra):
        values.append(complex(np.exp(2j * np.pi * k / extra)))
    seen: set[tuple[float, float]] = set()
    grid: list[complex] = []
    for v in values:
        key = (round(v.real, 12), round(v.imag, 12))
        if key not in seen:
            seen.add(key)
            grid.append(v)
    return grid


def _conj_t(xs: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(xs, -1, -2))


def jordan_star_defects(
    eval_fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    samples: int,
    seed: int,
    norm_cap: float = 1.0,
    phases: list[complex] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-sample residuals of the Jordan *-homomorphism laws for a pointwise evaluator.

    Checks, in order: squares (f(a^2) vs f(a)^2), involution, additivity on
    sampled pairs, and homogeneity over the unit-scalar grid.  Returns the
    residual arrays keyed by check name plus the sample stack used.  All
    evaluation points go through a single eval_fn call, so evaluators that
    stabilize pointwise pay one lockstep run.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if phases is None:
        phases = unit_circle_grid()
    twists = [mu for mu in phases if mu != 1]
    A = random_elements(seed, samples, dim, norm_cap, stream=1)
    B = random_elements(seed, samples, dim, norm_cap, stream=2)
    blocks = [A, A @ A, _conj_t(A), A + B, B] + [mu * A for mu in twists]
    values = eval_fn(np.concatenate(blocks, axis=0))
    parts = [values[k * samples : (k + 1) * samples] for k in range(len(blocks))]
    fa, faa, fas, fab, fb = parts[:5]
    defects = {
        "squares": spectral_norms(faa - fa @ fa),
        "involution": spectral_norms(fas - _conj_t(fa)),
        "additivity": spectral_norms(fab - fa - fb),
    }
    hom = np.zeros(samples)
    for mu, fmu in zip(twists, parts[5:]):
        hom = np.maximum(hom, spectral_norms(fmu - mu * fa))
    defects["homogeneity"] = hom
    return defects, A

"""Residual functionals for the three-term functional inequality family.

Each displayed inequality/equation of the stability theory gets a residual
evaluator; universal quantifiers are sampled with seeded triples and every
report carries the worst witness, so failures are replayable.  Tolerances
are scale-relative: "scale" always means 1 + max input norm, which keeps
checks meaningful near zero and for large elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import Element, random_elements, spectral_norms
from .mappings import MapSpec, _conj_t, apply_array, domain_dim, evaluate

__all__ = [
    "CheckReport",
    "DecayOverflowError",
    "Witness",
    "additivity_ladder",
    "fit_loglog_slope",
    "jordan_defect",
    "phase_substitution_checks",
    "phase_sweep_report",
    "phased_split_residual",
    "split_inequality_check",
    "stability_equation_residual",
    "star_defect",
    "superstability_decay",
    "superstability_decay_batch",
    "superstability_decay_shrinking",
    "superstability_shrinking_batch",
    "superstability_star_decay",
    "telescoping_check",
    "triple_split_residual",
]

DECAY_OVERFLOW_LIMIT = 1e100


class DecayOverflowError(OverflowError):
    """Decay-sequence argument norm exceeded the documented overflow cutoff."""


@dataclass
class Witness:
    """Worst sample of a check: index, residual, input norms, optional inputs."""

    sample_index: int
    residual: float
    input_norms: dict[str, float]
    phase: complex | None = None
    inputs: dict[str, Element] = field(default_factory=dict)


@dataclass
class CheckReport:
    """Outcome of one sampled check.

    For an inequality lhs <= rhs the residual is lhs - rhs (clamped at zero
    for the reported maximum) and slack is rhs - lhs; the verdict is
    "satisfied" when every sampled excess lhs - rhs stays within the
    scale-relative tolerance.  Equation checks use rhs = 0.  A "vacuous"
    verdict marks report-only output that asserts nothing.
    """

    name: str
    max_residual: float
    max_slack: float
    num_samples: int
    verdict: str
    worst_witness: Witness | None = None

    @property
    def satisfied(self) -> bool:
        return self.verdict == "satisfied"


def _build_report(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    scales: np.ndarray,
    tol: float,
    witness_fn: Callable[[int], Witness] | None = None,
    assertive: bool = True,
) -> CheckReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n = lhs.size
    if n == 0:
        return CheckReport(name, 0.0, 0.0, 0, "vacuous")
    excess = lhs - rhs - tol * scales
    worst = int(np.argmax(excess))
    if assertive:
        verdict = "satisfied" if float(excess[worst]) <= 0.0 else "violated"
    else:
        verdict = "vacuous"
    witness = witness_fn(worst) if witness_fn is not None else None
    return CheckReport(
        name=name,
        max_residual=float(max(0.0, np.max(lhs - rhs))),
        max_slack=float(np.max(rhs - lhs)),
        num_samples=int(n),
        verdict=verdict,
        worst_witness=witness,
    )


# ---------------------------------------------------------------------------
# residuals of the displayed inequalities/equations
# ---------------------------------------------------------------------------


def _split_values(
    f: MapSpec, A: np.ndarray, B: np.ndarray, C: np.ndarray, phase: complex = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Batched (lhs, rhs) of the three-term split inequality.

    lhs = ||f((b-a)/3) + f((a-3*mu*c)/3) + mu*f((3a+3c-b)/3)|| and
    rhs = ||f(a)||; at mu == 1 the scalar multiplications are skipped so the
    phased form reduces bitwise to the plain one.  The three arguments sum
    to a at mu == 1, so any additive f gives lhs == rhs.
    """
    t1 = apply_array(f, (B - A) / 3.0)
    if phase == 1:
        t2 = apply_array(f, (A - 3.0 * C) / 3.0)
        t3 = apply_array(f, (3.0 * A + 3.0 * C - B) / 3.0)
    else:
        t2 = apply_array(f, (A - (3.0 * phase) * C) / 3.0)
        t3 = phase * apply_array(f, (3.0 * A + 3.0 * C - B) / 3.0)
    lhs = spectral_norms(t1 + t2 + t3)
    rhs = spectral_norms(apply_array(f, A))
    return lhs, rhs


def triple_split_residual(f: MapSpec, a: Element, b: Element, c: Element) -> tuple[float, float]:
    """(lhs, rhs) of the three-term split inequality at a single triple."""
    lhs, rhs = _split_values(f, a.entries, b.entries, c.entries)
    return float(lhs), float(rhs)


def phased_split_residual(
    f: MapSpec, a: Element, b: Element, c: Element, phase: complex
) -> tuple[float, float]:
    """(lhs, rhs) of the unit-scalar-twisted split inequality."""
    lhs, rhs = _split_values(f, a.entries, b.entries, c.entries, phase=complex(phase))
    return float(lhs), float(rhs)


def _stability_equation_values(
    f: MapSpec, A: np.ndarray, B: np.ndarray, C: np.ndarray, phase: complex = 1.0
) -> np.ndarray:
    """Batched residual of the master stability equation.

    ||f((mu*b-a)/3) + f((a-3c)/3) + mu*f((3a-b)/3 + c) - f(a) + f(c^2) - f(c)^2||.
    The third argument is kept in the proof's form (3a-b)/3 + c, which agrees
    with (3a+3c-b)/3 up to rounding.
    """
    if phase == 1:
        t1 = apply_array(f, (B - A) / 3.0)
        t3 = apply_array(f, (3.0 * A - B) / 3.0 + C)
    else:
        t1 = apply_array(f, (phase * B - A) / 3.0)
        t3 = phase * apply_array(f, (3.0 * A - B) / 3.0 + C)
    t2 = apply_array(f, (A - 3.0 * C) / 3.0)
    fa = apply_array(f, A)
    fc = apply_array(f, C)
    fcc = apply_array(f, C @ C)
    return spectral_norms(t1 + t2 + t3 - fa + fcc - fc @ fc)


def stability_equation_residual(
    f: MapSpec, a: Element, b: Element, c: Element, phase: complex = 1.0
) -> float:
    """Residual of the master stability equation at a single triple."""
    values = _stability_equation_values(
        f,
        a.entries[np.newaxis],
        b.entries[np.newaxis],
        c.entries[np.newaxis],
        phase=complex(phase),
    )
    return float(values[0])


def _jordan_defect_values(f: MapSpec, A: np.ndarray) -> np.ndarray:
    fa = apply_array(f, A)
    return spectral_norms(apply_array(f, A @ A) - fa @ fa)


def jordan_defect(f: MapSpec, a: Element) -> float:
    """||f(a^2) - f(a)^2||, the square-preservation defect."""
    return float(_jordan_defect_values(f, a.entries[np.newaxis])[0])


def star_defect(f: MapSpec, a: Element) -> float:
    """||f(a*) - f(a)*||, the involution-preservation defect."""
    astar = a.entries.conj().T
    fa = evaluate(f, a).entries
    return float(spectral_norms((apply_array(f, astar) - fa.conj().T)[np.newaxis])[0])


# ---------------------------------------------------------------------------
# the additivity proof ladder
# ---------------------------------------------------------------------------


def _norm_witness(idx: int, residuals: np.ndarray, **stacks: np.ndarray) -> Witness:
    norms = {k: float(spectral_norms(v[idx][np.newaxis])[0]) for k, v in stacks.items()}
    inputs = {k: Element(v[idx]) for k, v in stacks.items()}
    return Witness(idx, float(residuals[idx]), norms, inputs=inputs)


def additivity_ladder(
    f: MapSpec, seed: int, samples: int, tol: float, norm_cap: float = 10.0
) -> list[CheckReport]:
    """Step-by-step residual checks that force additivity, in proof order.

    Steps: vanishing at zero, oddness, doubling, tripling, the three-term
    zero identity, then full additivity on sampled pairs.  Verdicts compare
    residuals against tol * (1 + max input norm) per sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = domain_dim(f)
    C = random_elements(seed, samples, d, norm_cap, stream=10)
    B = random_elements(seed, samples, d, norm_cap, stream=11)
    S = random_elements(seed, samples, d, norm_cap, stream=12)
    T = random_elements(seed, samples, d, norm_cap, stream=13)
    zero = np.zeros(1)
    reports = []

    z = np.zeros((1, d, d), dtype=np.complex128)
    r = spectral_norms(apply_array(f, z))
    reports.append(
        _build_report(
            "zero_at_zero", r, zero, np.ones(1), tol,
            lambda i: Witness(i, float(r[i]), {"a": 0.0}),
        )
    )

    norms_c = spectral_norms(C)
    r = spectral_norms(apply_array(f, -C) + apply_array(f, C))
    reports.append(
        _build_report(
            "oddness", r, np.zeros(samples), 1.0 + norms_c, tol,
            lambda i, r=r: _norm_witness(i, r, c=C),
        )
    )

    r = spectral_norms(apply_array(f, 2.0 * C) - 2.0 * apply_array(f, C))
    reports.append(
        _build_report(
            "doubling", r, np.zeros(samples), 1.0 + 2.0 * norms_c, tol,
            lambda i, r=r: _norm_witness(i, r, c=C),
        )
    )

    r = spectral_norms(apply_array(f, 3.0 * C) - 3.0 * apply_array(f, C))
    reports.append(
        _build_report(
            "tripling", r, np.zeros(samples), 1.0 + 3.0 * norms_c, tol,
            lambda i, r=r: _norm_witness(i, r, c=C),
        )
    )

    norms_b = spectral_norms(B)
    r = spectral_norms(apply_array(f, B / 3.0) + apply_array(f, -C) + apply_array(f, C - B / 3.0))
    reports.append(
        _build_report(
            "three_term_zero", r, np.zeros(samples), 1.0 + np.maximum(norms_b, norms_c), tol,
            lambda i, r=r: _norm_witness(i, r, b=B, c=C),
        )
    )

    scale_st = 1.0 + np.maximum(spectral_norms(S), spectral_norms(T))
    r = spectral_norms(apply_array(f, S + T) - apply_array(f, S) - apply_array(f, T))
    reports.append(
        _build_report(
            "additivity", r, np.zeros(samples), scale_st, tol,
            lambda i, r=r: _norm_witness(i, r, s=S, t=T),
        )
    )
    return reports


def _sample_triples(seed: int, samples: int, dim: int, norm_cap: float, base_stream: int):
    A = random_elements(seed, samples, dim, norm_cap, stream=base_stream)
    B = random_elements(seed, samples, dim, norm_cap, stream=base_stream + 1)
    C = random_elements(seed, samples, dim, norm_cap, stream=base_stream + 2)
    return A, B, C


def telescoping_check(
    f: MapSpec, seed: int, samples: int, tol: float, norm_cap: float = 10.0
) -> CheckReport:
    """|lhs - rhs| of the split inequality over sampled triples.

    The three arguments sum to a, so for any C-linear map the two sides
    agree exactly; the check pins that equality at scale-relative tolerance.
    """
    d = domain_dim(f)
    A, B, C = _sample_triples(seed, samples, d, norm_cap, base_stream=20)
    lhs, rhs = _split_values(f, A, B, C)
    gap = np.abs(lhs - rhs)
    scales = 1.0 + np.maximum(np.maximum(spectral_norms(A), spectral_norms(B)), spectral_norms(C))
    return _build_report(
        "telescoping_equality", gap, np.zeros(samples), scales, tol,
        lambda i: _norm_witness(i, gap, a=A, b=B, c=C),
    )


def split_inequality_check(
    f: MapSpec, seed: int, samples: int, tol: float, norm_cap: float = 10.0
) -> CheckReport:
    """lhs <= rhs of the split inequality over sampled triples."""
    d = domain_dim(f)
    A, B, C = _sample_triples(seed, samples, d, norm_cap, base_stream=30)
    lhs, rhs = _split_values(f, A, B, C)
    scales = 1.0 + np.maximum(np.maximum(spectral_norms(A), spectral_norms(B)), spectral_norms(C))
    gap = lhs - rhs
    return _build_report(
        "split_inequality", lhs, rhs, scales, tol,
        lambda i: _norm_witness(i, gap, a=A, b=B, c=C),
    )


# ---------------------------------------------------------------------------
# unit-scalar checks: proof substitution patterns and the report-only sweep
# ---------------------------------------------------------------------------


def phase_substitution_checks(
    f: MapSpec,
    phases: list[complex],
    seed: int,
    samples: int,
    tol: float,
    norm_cap: float = 10.0,
) -> list[CheckReport]:
    """Asserted unit-scalar checks in the proof's substitution patterns.

    "phase_oddness" is ||f(-mu*c) + mu*f(c)|| (the split inequality at
    a = b = 0) and "phase_homogeneity" is ||f(mu*b/3) + mu*f(-b/3)|| (the
    master equation at a = c = 0); both vanish for C-linear maps, which is
    how the scalar-linearity lifting is probed numerically.
    """
    d = domain_dim(f)
    C = random_elements(seed, samples, d, norm_cap, stream=35)
    B = random_elements(seed, samples, d, norm_cap, stream=36)
    scale_c = 1.0 + spectral_norms(C)
    scale_b = 1.0 + spectral_norms(B)

    odd_res = np.zeros(samples)
    odd_phase = np.full(samples, 1.0 + 0.0j)
    hom_res = np.zeros(samples)
    hom_phase = np.full(samples, 1.0 + 0.0j)
    fc = apply_array(f, C)
    for mu in phases:
        r = spectral_norms(apply_array(f, (-mu) * C) + mu * fc)
        better = r > odd_res
        odd_res = np.where(better, r, odd_res)
        odd_phase = np.where(better, mu, odd_phase)

        r = spectral_norms(apply_array(f, (mu / 3.0) * B) + mu * apply_array(f, B / (-3.0)))
        better = r > hom_res
        hom_res = np.where(better, r, hom_res)
        hom_phase = np.where(better, mu, hom_phase)

    def odd_witness(i: int) -> Witness:
        w = _norm_witness(i, odd_res, c=C)
        w.phase = complex(odd_phase[i])
        return w

    def hom_witness(i: int) -> Witness:
        w = _norm_witness(i, hom_res, b=B)
        w.phase = complex(hom_phase[i])
        return w

    return [
        _build_report("phase_oddness", odd_res, np.zeros(samples), scale_c, tol, odd_witness),
        _build_report("phase_homogeneity", hom_res, np.zeros(samples), scale_b, tol, hom_witness),
    ]


def phase_sweep_report(
    f: MapSpec,
    phases: list[complex],
    seed: int,
    samples: int,
    norm_cap: float = 10.0,
) -> list[CheckReport]:
    """Report-only residuals of the full unit-scalar sweep (nothing asserted).

    Away from scalar one the displayed expressions do not vanish even for
    exact maps, so the sweep records their size instead of judging it.
    """
    d = domain_dim(f)
    A, B, C = _sample_triples(seed, samples, d, norm_cap, base_stream=37)
    scales = 1.0 + np.maximum(np.maximum(spectral_norms(A), spectral_norms(B)), spectral_norms(C))

    split_res = np.zeros(samples)
    eq_res = np.zeros(samples)
    for mu in phases:
        lhs, rhs = _split_values(f, A, B, C, phase=mu)
        split_res = np.maximum(split_res, lhs - rhs)
        eq_res = np.maximum(eq_res, _stability_equation_values(f, A, B, C, phase=mu))
    return [
        _build_report(
            "phase_sweep_split", split_res, np.zeros(samples), scales, 0.0,
            lambda i: _norm_witness(i, split_res, a=A, b=B, c=C), assertive=False,
        ),
        _build_report(
            "phase_sweep_equation", eq_res, np.zeros(samples), scales, 0.0,
            lambda i: _norm_witness(i, eq_res, a=A, b=B, c=C), assertive=False,
        ),
    ]


# ---------------------------------------------------------------------------
# superstability decay sequences
# ---------------------------------------------------------------------------


def _guard_overflow(stack: np.ndarray, n: int) -> None:
    # Frobenius proxy for the operator norm; conservative by at most sqrt(d).
    worst = float(np.max(np.sqrt(np.sum(np.abs(stack) ** 2, axis=(-2, -1)))))
    if worst > DECAY_OVERFLOW_LIMIT:
        raise DecayOverflowError(
            f"decay argument norm {worst:.3e} exceeds {DECAY_OVERFLOW_LIMIT:.0e} at n={n}"
        )


def _decay_batch(f: MapSpec, A: np.ndarray, n_max: int, shrink: bool) -> np.ndarray:
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    A = np.asarray(A, dtype=np.complex128)
    Asq = A @ A
    out = np.empty((A.shape[0], n_max))
    for n in range(1, n_max + 1):
        n2 = float(n * n)
        if n == 1:
            arg, fa_arg = Asq, A
        elif shrink:
            arg, fa_arg = Asq / n2, A / float(n)
        else:
            arg, fa_arg = n2 * Asq, float(n) * A
        _guard_overflow(arg, n)
        fa = apply_array(f, fa_arg)
        norms = spectral_norms(apply_array(f, arg) - fa @ fa)
        out[:, n - 1] = norms * n2 if shrink else norms / n2
    return out


def superstability_decay_batch(f: MapSpec, A: np.ndarray, n_max: int) -> np.ndarray:
    """d_n = ||f(n^2 a^2) - f(n a)^2|| / n^2 for n = 1..n_max, per sample.

    Returned verbatim with no smoothing; the n = 1 column is exactly the
    square-preservation defect.  For an additive map whose defect obeys a
    power law with exponent p < 1 the sequence is dominated by
    size * n^(2p-2) * ||a||^(2p).
    """
    return _decay_batch(f, A, n_max, shrink=False)


def superstability_decay(f: MapSpec, a: Element, n_max: int) -> list[float]:
    """Single-point decay sequence; see superstability_decay_batch."""
    return [float(v) for v in superstability_decay_batch(f, a.entries[np.newaxis], n_max)[0]]


def superstability_shrinking_batch(f: MapSpec, A: np.ndarray, n_max: int) -> np.ndarray:
    """d_n = n^2 ||f(a^2 / n^2) - f(a/n)^2||, the large-exponent variant.

    Shrinking arguments replace growing ones, which is the route that forces
    square preservation when the defect exponent exceeds one.
    """
    return _decay_batch(f, A, n_max, shrink=True)


def superstability_decay_shrinking(f: MapSpec, a: Element, n_max: int) -> list[float]:
    """Single-point shrinking-argument sequence; see superstability_shrinking_batch."""
    return [float(v) for v in superstability_shrinking_batch(f, a.entries[np.newaxis], n_max)[0]]


def superstability_star_decay(f: MapSpec, a: Element, n_max: int) -> list[float]:
    """s_n = ||f(n a*) - f(n a)*|| / n, the involution-defect decay."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    A = a.entries[np.newaxis]
    Astar = _conj_t(A)
    out = []
    for n in range(1, n_max + 1):
        nn = float(n)
        _guard_overflow(nn * A, n)
        val = spectral_norms(apply_array(f, nn * Astar) - _conj_t(apply_array(f, nn * A))) / nn
        out.append(float(val[0]))
    return out


def fit_loglog_slope(values: list[float] | np.ndarray, start_n: int = 4) -> float:
    """Least-squares slope of log(values[n]) against log(n) for n >= start_n."""
    vals = np.asarray(values, dtype=float)
    ns = np.arange(1, vals.size + 1)
    mask = ns >= start_n
    if np.any(vals[mask] <= 0.0):
        raise ValueError("slope fit needs strictly positive decay values")
    if int(np.sum(mask)) < 2:
        raise ValueError("slope fit needs at least two points")
    coeffs = np.polyfit(np.log(ns[mask]), np.log(vals[mask]), 1)
    return float(coeffs[0])

"""Residual functionals for the three-term functional inequality family.

Each displayed inequality/equation of the stability theory gets a residual
evaluator; universal quantifiers are sampled with seeded stacks.  Every
sampled check is one row of CHECKS (input streams, residual, scale, grid
flag), run by one runner that draws all its streams in one sampler call
and reads their norms from the draw instead of norming them; a row over
the phase grid is one residual call on all phases at once.  Every report's
worst witness is read from column arrays at the worst sample: its residual
is lhs there, with the input norms and the phase when present.  A witness
names its sample, not its matrices: seed, stream and ``sample_index`` redraw
its inputs, so failures are replayable.  Tolerances are scale-relative:
"scale" means 1 + max input norm (1 + 2||c|| and 1 + 3||c|| for doubling and
tripling, the norms of their arguments), which keeps checks meaningful near
zero and for large elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import extreme_norms, random_elements, spectral_norms
from .mappings import MapSpec, apply_array

__all__ = [
    "CHECKS",
    "Check",
    "CheckReport",
    "DecayOverflowError",
    "Witness",
    "additivity_ladder",
    "fit_loglog_slope",
    "phase_substitution_checks",
    "superstability_decay_batch",
    "superstability_shrinking_batch",
    "telescoping_check",
]

DECAY_OVERFLOW_LIMIT = 1e100
# n per batched evaluation of a decay sequence; a block's temporaries are at
# most this many times one n's
DECAY_BLOCK = 8
SLOPE_START_N = 4  # a decay slope is fitted over d_n for n >= this


class DecayOverflowError(OverflowError):
    """Decay-sequence argument norm exceeded the documented overflow cutoff."""


@dataclass
class Witness:
    """Worst sample of a check: index, residual, input norms and, for a grid row, its phase."""

    sample_index: int
    residual: float
    input_norms: dict[str, float]
    phase: list[float] | None = None  # [re, im]


@dataclass
class CheckReport:
    """Outcome of one sampled check.

    For an inequality lhs <= rhs the residual is lhs - rhs, clamped at zero
    for the reported maximum; the verdict is "satisfied" when every sampled
    excess lhs - rhs stays within the scale-relative tolerance.  Equation
    checks use rhs = 0.  A row depends only on its worst sample: the
    maximum residual, the verdict and the witness.
    """

    name: str
    max_residual: float
    num_samples: int
    verdict: str
    worst_witness: Witness | None = None


def _build_report(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray | float,
    scales: np.ndarray | float,
    tol: float,
    *,
    norms: dict[str, np.ndarray] | None = None,
    phases: np.ndarray | None = None,
    ids: list[int] | None = None,
) -> CheckReport:
    """Judge lhs - rhs per sample and read the worst sample's witness from columns.

    The report reads only the maximum of lhs - rhs and the first maximum of
    the excess lhs - rhs - tol * scales.  The witness is position ``worst``
    of every column: its residual is lhs[worst], its input norms come from
    ``norms`` (no norms, no witness) and its phase, as [re, im], from
    ``phases``.  It holds no matrix: the caller's seed and streams redraw its
    inputs from the sample index.  ``ids`` maps positions to sample ids when
    only a subset of the samples is checked.  Every caller judges at least
    one sample.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    excess = lhs - rhs - tol * np.asarray(scales, dtype=float)
    worst = int(np.argmax(excess))
    witness = None
    if norms is not None:
        witness = Witness(
            worst if ids is None else int(ids[worst]),
            float(lhs[worst]),
            {k: float(v[worst]) for k, v in norms.items()},
            None if phases is None else [float(phases[worst].real), float(phases[worst].imag)],
        )
    return CheckReport(
        name=name,
        max_residual=float(max(0.0, np.max(lhs - rhs))),
        num_samples=lhs.size,
        verdict="satisfied" if float(excess[worst]) <= 0.0 else "violated",
        worst_witness=witness,
    )


# ---------------------------------------------------------------------------
# residuals of the displayed inequalities/equations
# ---------------------------------------------------------------------------


def _split_sum(f: MapSpec, x: dict[str, np.ndarray]) -> np.ndarray:
    """Batched f((b-a)/3) + f((a-3c)/3) + f((3a+3c-b)/3), the split inequality's lhs before its norm.

    The three arguments sum to a, so any additive f gives f(a) itself.
    """
    a, b, c = x["a"], x["b"], x["c"]
    t1 = apply_array(f, (b - a) / 3.0)
    t2 = apply_array(f, (a - 3.0 * c) / 3.0)
    return t1 + t2 + apply_array(f, (3.0 * a + 3.0 * c - b) / 3.0)


def _stability_equation_values(
    f: MapSpec,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    na: np.ndarray | None = None,
    nc: np.ndarray | None = None,
) -> np.ndarray:
    """Batched residual matrices of the master stability equation; their norms are its residuals.

    f((b-a)/3) + f((a-3c)/3) + f((3a-b)/3 + c) - f(a) + f(c^2) - f(c)^2.
    The third argument is kept in the proof's form (3a-b)/3 + c, which agrees
    with (3a+3c-b)/3 up to rounding.  ``na`` and ``nc``, when the caller holds
    them, are the norms of A and C, passed on to f(a) and f(c).
    """
    t1 = apply_array(f, (B - A) / 3.0)
    t2 = apply_array(f, (A - 3.0 * C) / 3.0)
    t3 = apply_array(f, (3.0 * A - B) / 3.0 + C)
    fa = apply_array(f, A, na)
    fc = apply_array(f, C, nc)
    # c^2 and f(c)^2 overflow at huge norms; the caller's norm refuses the non-finite
    # value (NonFiniteError) instead of numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        fcc = apply_array(f, C @ C)
        return t1 + t2 + t3 - fa + fcc - fc @ fc


# ---------------------------------------------------------------------------
# the check table and its runner
# ---------------------------------------------------------------------------


def _one_plus_max_norm(norms: dict[str, np.ndarray]) -> np.ndarray:
    return 1.0 + functools.reduce(np.maximum, norms.values())


@dataclass(frozen=True)
class Check:
    """One sampled check, declared once.

    ``streams`` maps each input name to the sampling stream its stack is
    drawn from.  ``residual(f, x, mu)`` is the per-sample lhs - rhs (rhs = 0
    for an equation) over the input stacks ``x`` at the unit scalar ``mu``;
    for a grid row ``mu`` is a (G, 1, 1, 1) column of the grid's phases and
    the residual is (G, n), one row per phase.  Every row's residual is one
    matrix norm: it returns the complex matrix stack, (n, d, d) or
    (G, n, d, d), and the runner norms it (see _evaluate).  ``x.image(name)``
    is f of an input stack, computed once per run.  ``scale`` maps the input
    norms to the per-sample tolerance scale.  A row with ``grid`` set is
    maximised over the phase grid and its witness keeps the maximising phase;
    any other row is evaluated at mu = 1.
    """

    name: str
    streams: dict[str, int]
    residual: Callable[[MapSpec, "_Inputs", complex | np.ndarray], np.ndarray]
    scale: Callable[[dict[str, np.ndarray]], np.ndarray] = _one_plus_max_norm
    grid: bool = False


CHECKS = {
    check.name: check
    for check in (
        # the additivity proof ladder, after zero_at_zero (one zero matrix, not sampled)
        Check("oddness", {"c": 10}, lambda f, x, mu: apply_array(f, -x["c"]) + x.image("c")),
        Check(
            "doubling",
            {"c": 10},
            lambda f, x, mu: apply_array(f, 2.0 * x["c"]) - 2.0 * x.image("c"),
            lambda n: 1.0 + 2.0 * n["c"],
        ),
        Check(
            "tripling",
            {"c": 10},
            lambda f, x, mu: apply_array(f, 3.0 * x["c"]) - 3.0 * x.image("c"),
            lambda n: 1.0 + 3.0 * n["c"],
        ),
        Check(
            "three_term_zero",
            {"b": 11, "c": 10},
            lambda f, x, mu: (
                apply_array(f, x["b"] / 3.0) + apply_array(f, -x["c"]) + apply_array(f, x["c"] - x["b"] / 3.0)
            ),
        ),
        Check(
            "additivity",
            {"s": 12, "t": 13},
            lambda f, x, mu: apply_array(f, x["s"] + x["t"]) - x.image("s") - x.image("t"),
        ),
        # the split inequality's two sides agree as matrices for any additive map
        Check("telescoping_equality", {"a": 20, "b": 21, "c": 22}, lambda f, x, mu: _split_sum(f, x) - x.image("a")),
        # unit-scalar substitution patterns: the split inequality at a = b = 0
        # and the master equation at a = c = 0
        Check(
            "phase_oddness",
            {"c": 35},
            lambda f, x, mu: apply_array(f, (-mu) * x["c"]) + mu * x.image("c"),
            grid=True,
        ),
        Check(
            "phase_homogeneity",
            {"b": 36},
            lambda f, x, mu: apply_array(f, (mu / 3.0) * x["b"]) + mu * apply_array(f, x["b"] / (-3.0)),
            grid=True,
        ),
    )
}


class _Inputs(dict):
    """A run's input stacks by name; ``image(name)`` is f of a stack, computed once per run."""

    def __init__(self, f: MapSpec, stacks: dict[str, np.ndarray]):
        super().__init__(stacks)
        self.image = functools.cache(lambda name: apply_array(f, stacks[name]))


def _evaluate(
    check: Check, f: MapSpec, x: _Inputs, grid: Sequence[complex], allowance: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample residual of a row and, for a grid row, the first phase attaining it.

    A grid row is one residual call on the whole grid, mu a (G, 1, 1, 1)
    column, so its temporaries are G times a single phase's.  Its residual
    is the maximum over the grid and zero; a sample whose residual never
    exceeds zero keeps the phase 1.  A matrix stack goes through
    extreme_norms with ``allowance`` (tol * scale per sample): the maximum,
    the first sample of the worst excess and its first maximising phase are
    exact, and every other sample carries an upper bound that reaches
    neither, so its phase is arbitrary; per-sample floats are used as they
    stand.  _build_report reads nothing else.
    """
    phases = np.asarray(grid, dtype=np.complex128)
    r = check.residual(f, x, phases[:, np.newaxis, np.newaxis, np.newaxis] if check.grid else 1.0)
    if np.iscomplexobj(r):
        r = extreme_norms(r, allowance)
    if not check.grid:
        return r, None
    first = np.argmax(r, axis=0)  # the first phase at the maximum
    top = np.take_along_axis(r, first[np.newaxis], axis=0)[0]
    positive = top > 0.0
    return np.where(positive, top, 0.0), np.where(positive, phases[first], 1.0 + 0.0j)


def _run_checks(
    names: tuple[str, ...],
    f: MapSpec,
    seed: int,
    samples: int,
    tol: float,
    norm_cap: float,
    grid: Sequence[complex] = (),
) -> list[CheckReport]:
    """Draw every input stream with its norms in one sampler call, then evaluate and judge the named rows in order."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    checks = [CHECKS[name] for name in names]
    if len(grid) == 0 and any(check.grid for check in checks):  # a maximum over no phase would read as satisfied
        raise ValueError("a grid row needs at least one phase")
    streams = {k: stream for check in checks for k, stream in check.streams.items()}
    d = f.dim
    drawn = np.empty(len(streams) * samples)
    stacks = random_elements(seed, samples, d, norm_cap, stream=list(streams.values()), norms_out=drawn)
    norms = dict(zip(streams, drawn.reshape(len(streams), samples)))
    x = _Inputs(f, dict(zip(streams, stacks.reshape(len(streams), samples, d, d))))
    reports = []
    for check in checks:
        row_norms = {k: norms[k] for k in check.streams}
        scales = check.scale(row_norms)
        res, phases = _evaluate(check, f, x, grid, tol * scales)
        reports.append(_build_report(check.name, res, 0.0, scales, tol, norms=row_norms, phases=phases))
    return reports


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def additivity_ladder(
    f: MapSpec, seed: int, samples: int, tol: float, norm_cap: float = 10.0
) -> list[CheckReport]:
    """Step-by-step residual checks that force additivity, in proof order.

    Steps: vanishing at zero, oddness, doubling, tripling, the three-term
    zero identity, then full additivity on sampled pairs.  Verdicts compare
    residuals against tol * (1 + max input norm) per sample.  Like every
    entry point it raises ValueError for fewer than one sample.
    """
    d = f.dim
    r = spectral_norms(apply_array(f, np.zeros((1, d, d), dtype=np.complex128)))
    zero = _build_report("zero_at_zero", r, 0.0, 1.0, tol, norms={"a": np.zeros(1)})
    steps = ("oddness", "doubling", "tripling", "three_term_zero", "additivity")
    return [zero, *_run_checks(steps, f, seed, samples, tol, norm_cap)]


def telescoping_check(
    f: MapSpec, seed: int, samples: int, tol: float, norm_cap: float = 10.0
) -> CheckReport:
    """||f((b-a)/3) + f((a-3c)/3) + f((3a+3c-b)/3) - f(a)|| over sampled triples.

    The three arguments sum to a, so for any additive map the split
    inequality's two sides agree as matrices, not only as norms; the check
    pins that identity at scale-relative tolerance.  By the reverse triangle
    inequality the residual bounds the gap between the two sides' norms.
    """
    return _run_checks(("telescoping_equality",), f, seed, samples, tol, norm_cap)[0]


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
    how the scalar-linearity lifting is probed numerically.  It raises
    ValueError for an empty phase list.
    """
    return _run_checks(("phase_oddness", "phase_homogeneity"), f, seed, samples, tol, norm_cap, phases)


# ---------------------------------------------------------------------------
# superstability decay sequences
# ---------------------------------------------------------------------------


def _decay_batch(
    f: MapSpec, A: np.ndarray, n_max: int, shrink: bool, norms: np.ndarray | None = None
) -> np.ndarray:
    """The decay sequence for n = 1..n_max, evaluated DECAY_BLOCK n at a time.

    A block is one (k, samples, d, d) stack per argument: two apply_array
    calls, one matmul and one spectral_norms call.  Each of those works
    elementwise or on each matrix alone, so every value equals the
    one-n-at-a-time evaluation bit for bit.  ``norms`` are the norms of A
    when the caller holds them (a sampled stack's drawn norms); without
    them A is normed here.  Every argument is a scalar multiple of a or
    a^2, so its norm is carried from ||a|| and ||a^2||, and the first n
    whose argument norm passes DECAY_OVERFLOW_LIMIT is known before any
    block runs: the n before it are evaluated, then DecayOverflowError
    names it, so an error at an earlier n still wins.  An a^2 holding inf
    or NaN counts as past the cutoff at n = 1.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    A = np.asarray(A, dtype=np.complex128)
    na = spectral_norms(A) if norms is None else norms
    with np.errstate(over="ignore", invalid="ignore"):
        Asq = A @ A
    if not np.all(np.isfinite(Asq)):
        raise DecayOverflowError(f"decay argument norm inf exceeds {DECAY_OVERFLOW_LIMIT:.0e} at n=1")
    nsq = spectral_norms(Asq)
    top, squares = np.max(nsq, initial=0.0), np.arange(1, n_max + 1, dtype=float) ** 2
    with np.errstate(over="ignore"):  # an argument norm past the cutoff may overflow to inf
        worst = top / squares if shrink else squares * top  # the largest argument norm at each n
    past = np.flatnonzero(worst > DECAY_OVERFLOW_LIMIT)
    stop = n_max if past.size == 0 else int(past[0])  # the n evaluated before the error
    out = np.empty((A.shape[0], n_max))
    for first in range(1, stop + 1, DECAY_BLOCK):
        ns = np.arange(first, min(first + DECAY_BLOCK, stop + 1))[:, np.newaxis]
        n1, n2 = ns.astype(float), (ns * ns).astype(float)  # (k, 1): one row per n
        mat = (..., np.newaxis, np.newaxis)  # (k, 1, 1, 1) against a (samples, d, d) stack
        if shrink:
            arg, fa_arg, n_arg, n_fa = Asq / n2[mat], A / n1[mat], nsq / n2, na / n1
        else:
            arg, fa_arg, n_arg, n_fa = n2[mat] * Asq, n1[mat] * A, n2 * nsq, n1 * na
        fa = apply_array(f, fa_arg, n_fa)
        block = spectral_norms(apply_array(f, arg, n_arg) - fa @ fa)
        out[:, first - 1 : first - 1 + len(ns)] = (block * n2 if shrink else block / n2).T
    if stop < n_max:
        raise DecayOverflowError(
            f"decay argument norm {worst[stop]:.3e} exceeds {DECAY_OVERFLOW_LIMIT:.0e} at n={stop + 1}"
        )
    return out


def superstability_decay_batch(f: MapSpec, A: np.ndarray, n_max: int, norms: np.ndarray | None = None) -> np.ndarray:
    """d_n = ||f(n^2 a^2) - f(n a)^2|| / n^2 for n = 1..n_max, per sample.

    Returned verbatim with no smoothing; the n = 1 column is exactly the
    square-preservation defect.  For an additive map whose defect obeys a
    power law with exponent p < 1 the sequence is dominated by
    size * n^(2p-2) * ||a||^(2p).  The n are evaluated DECAY_BLOCK at a
    time, with values equal bit for bit to one n at a time.  An argument
    n^2 a^2 whose operator norm passes DECAY_OVERFLOW_LIMIT (a^2 overflowing
    included) raises DecayOverflowError naming its n, after every earlier n
    is evaluated.
    ``norms``, the norms of A when the caller holds them, save norming A.
    """
    return _decay_batch(f, A, n_max, shrink=False, norms=norms)


def superstability_shrinking_batch(f: MapSpec, A: np.ndarray, n_max: int, norms: np.ndarray | None = None) -> np.ndarray:
    """d_n = n^2 ||f(a^2 / n^2) - f(a/n)^2||, the large-exponent variant.

    Shrinking arguments replace growing ones, which is the route that forces
    square preservation when the defect exponent exceeds one.  Evaluated
    and guarded as superstability_decay_batch; only a^2 itself can pass the
    cutoff, which raises DecayOverflowError at n = 1.
    """
    return _decay_batch(f, A, n_max, shrink=True, norms=norms)


def fit_loglog_slope(values: list[float] | np.ndarray):
    """Least-squares slope of log(values[..., n]) against log(n) for n >= SLOPE_START_N, per row.

    ``values`` holds d_1, d_2, ... along its last axis; a sequence gives one
    slope and a (rows, n) stack one slope per row: the sum along the row of
    the centred log values times the centred abscissa log n, which reads that
    row alone (a matmul's blocking depends on the row count), so a row fitted
    alone gets its stack slope bit for bit.  A row with a nonpositive value at
    n >= SLOPE_START_N has no logarithm to fit and gets +inf.  Fewer than two
    fit points raise ValueError.
    """
    vals = np.asarray(values, dtype=float)[..., SLOPE_START_N - 1 :]
    if vals.shape[-1] < 2:
        raise ValueError("slope fit needs at least two points")
    x = np.log(np.arange(SLOPE_START_N, SLOPE_START_N + vals.shape[-1]))
    x -= x.mean()
    positive = vals > 0.0
    y = np.log(np.where(positive, vals, 1.0))
    slopes = np.sum((y - y.mean(axis=-1, keepdims=True)) * x, axis=-1) / (x @ x)
    return np.where(np.all(positive, axis=-1), slopes, np.inf)[()]

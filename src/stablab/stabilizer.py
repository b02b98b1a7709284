"""Direct-method stabilization: rescaled iterates, error bounds, calibration.

The forward iteration h_n(a) = 3^n f(a/3^n) repairs maps whose defect decays
fast at small scales; the backward iteration h_n(a) = 3^{-n} f(3^n a) covers
slow-growth defects.  Convergence is decided by the Cauchy criterion on
successive iterates, and the distance from f to the repaired limit is
certified by a control-function series with matching closed forms.  The
limit's uniqueness is judged by the stability command, which compares it
with the exact base of the perturbed map.

Powers of three are not exactly representable in binary floating point, so
every comparison here is tolerance-relative, never exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .algebra import NonFiniteError, NormBracket, random_elements, spectral_norms
from .checkers import _stability_equation_values
from .mappings import MapSpec, Perturbed, _safe_pow, apply_array

__all__ = [
    "BOUND_KINDS",
    "SERIES_TERMS_MAX",
    "CalibrationError",
    "ControlDirectionError",
    "PowerControl",
    "StabilizationResult",
    "StabilizerConfig",
    "bound_closed_form",
    "bound_fields",
    "bound_series_truncated",
    "calibrate_control",
    "control_value",
    "make_control",
    "resolve_direction",
    "stabilize_batch",
]

FORWARD = "forward"
BACKWARD = "backward"
DIVERGENCE_GROWTH_STEPS = 5
ITERATE_OVERFLOW_LIMIT = 1e150
# The longest truncated bound series: its factors 3^i, i <= terms, are finite floats up to 3^646
SERIES_TERMS_MAX = 646


class ControlDirectionError(ValueError):
    """Control function and iteration direction violate the convergence condition."""


class CalibrationError(RuntimeError):
    """Empirical control-coefficient fit failed (unbounded ratio)."""


# ---------------------------------------------------------------------------
# control functions (the right-hand-side bounds on defects)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerControl:
    """coeff * (na^exp1 + nb^exp2 + nc^exp3) with the convention 0^e := 0.

    This is the only control class: every catalog kind (BOUND_KINDS) is an
    exponent triple of it.  A profile t^degree puts its degree in all three
    slots, and the constant control (coeff per nonzero argument) is the
    zero-exponent triple.

    The exponents are scalars.  ``coeff`` is a float or an array of them,
    such as a (k, 1) column that broadcasts against a norm array into a
    (k, norms) grid, one row per coefficient; it multiplies the summed
    powers, so each grid cell equals the scalar-coefficient value bit for bit.
    """

    coeff: float | np.ndarray
    exp1: float
    exp2: float
    exp3: float

    def __post_init__(self) -> None:
        if (np.asarray(self.coeff) < 0.0).any():
            raise ValueError("coeff must be nonnegative")


# The control catalog: config kind -> exponent triple, each slot either the
# name of a config field or a fixed exponent.  A kind's config fields are its
# distinct slot names, in slot order.
BOUND_KINDS = {
    "power": ("exp1", "exp2", "exp3"),
    "profile": ("degree", "degree", "degree"),
    "constant": (0.0, 0.0, 0.0),
}


def bound_fields(kind: str) -> tuple[str, ...]:
    """The exponent fields a catalog kind reads from its config."""
    return tuple(dict.fromkeys(slot for slot in BOUND_KINDS[kind] if isinstance(slot, str)))


def make_control(kind: str, coeff: float, fields: dict) -> PowerControl:
    """The control of a catalog kind; ``fields`` maps its exponent fields to values."""
    return PowerControl(coeff, *(fields[slot] if isinstance(slot, str) else slot for slot in BOUND_KINDS[kind]))


_control_pow = functools.partial(_safe_pow, what="control exponent")


def control_value(spec: PowerControl, na: np.ndarray | float, nb: np.ndarray | float, nc: np.ndarray | float):
    """Evaluate the control function on the three argument norms (arrays broadcast, scalars give a scalar)."""
    return spec.coeff * (_control_pow(na, spec.exp1) + _control_pow(nb, spec.exp2) + _control_pow(nc, spec.exp3))


def validate_control_direction(spec: PowerControl, direction: str) -> None:
    """Reject (control, direction) pairs whose error series diverges.

    Along (a, 2a, 0) the third argument is zero, so only exp1 and exp2 set
    the term ratio.  The raised message names the violated condition.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")
    if direction == FORWARD and not (spec.exp1 > 1.0 and spec.exp2 > 1.0):
        raise ControlDirectionError(
            "forward series needs exponents > 1 (term ratio 3^(1-exp) must be < 1)"
        )
    if direction == BACKWARD and not (spec.exp1 < 1.0 and spec.exp2 < 1.0):
        raise ControlDirectionError(
            "backward series needs exponents < 1 (term ratio 3^(exp-1) must be < 1)"
        )


@contextmanager
def _within_float_range(what: str):
    """Raise NonFiniteError naming ``what`` where its arithmetic overflows, instead of an infinity and a warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):  # OverflowError: a math.fsum beyond the float range
        raise NonFiniteError(f"{what}: a value is beyond the float range") from None


def bound_closed_form(spec: PowerControl, norm_a: np.ndarray | float, direction: str):
    """Closed-form distance bound ||f(a) - h(a)|| for the admissible direction, per norm.

    The sum of bound_series_truncated's series: coeff * (t^e1 g(e1) +
    (2t)^e2 g(e2)), with g(e) the geometric sum of the ratio 3^(1-e) from
    i = 0 (forward) or of 3^(e-1) from i = 1 (backward).  The result has the
    broadcast shape of coeff and norm_a: a (k, 1) coefficient column over a
    (n,) norm array gives the (k, n) grid.
    """
    validate_control_direction(spec, direction)
    t = np.asarray(norm_a, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("norm_a must be nonnegative")

    def denominator(e: float) -> float:  # 1 / g(e)
        return 1.0 - 3.0 ** (1.0 - e) if direction == FORWARD else 3.0 ** (1.0 - e) - 1.0

    c, e1, e2 = spec.coeff, spec.exp1, spec.exp2
    with _within_float_range(f"{direction} closed-form bound"):
        return c * _control_pow(t, e1) / denominator(e1) + c * _control_pow(2.0 * t, e2) / denominator(e2)


def bound_series_truncated(spec: PowerControl, norm_a: np.ndarray | float, direction: str, terms: int):
    """Truncated error series along (a, 2a, 0) plus a geometric tail estimate, per norm.

    A control sees its arguments only through their norms, so the series runs
    on t = ||a|| directly, for a whole norm column at once; a coefficient
    array broadcasts against it as in bound_closed_form, so a (k, 1) column
    over (n,) norms gives (k, n) values and tails.  Forward sums
    3^i * phi(t/3^i, 2t/3^i, 0) from i = 0; backward sums
    3^{-i} * phi(3^i t, 2*3^i t, 0) from i = 1 (the index origins differ on
    purpose).  Each sum is one math.fsum over its terms.  The tail uses the
    empirical ratio of the last two terms and is infinite when that ratio
    fails to certify convergence.  ``terms`` runs from 1 to SERIES_TERMS_MAX;
    a term or sum beyond the float range raises NonFiniteError.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")
    if not 1 <= terms <= SERIES_TERMS_MAX:
        raise ValueError(f"terms must be in [1, {SERIES_TERMS_MAX}]")
    t = np.asarray(norm_a, dtype=float)[..., np.newaxis]  # the terms of each norm run along the last axis
    if np.any(t < 0.0):
        raise ValueError("norm_a must be nonnegative")
    # 3^i by Python's float ** as stabilize_batch forms it (numpy's array ** is an ulp off from 3^34 on)
    powers = np.array([3.0**i for i in range(terms + 1)])
    spec = replace(spec, coeff=np.expand_dims(spec.coeff, -1))  # one coefficient per cell, over its terms
    with _within_float_range(f"{direction} bound series of {terms} terms"):
        if direction == FORWARD:
            factor = powers[:-1]
            term_values = factor * control_value(spec, t / factor, 2.0 * t / factor, 0.0)
        else:
            factor = powers[1:]
            term_values = control_value(spec, t * factor, 2.0 * factor * t, 0.0) / factor
        sums = [math.fsum(cell) for cell in term_values.reshape(-1, terms).tolist()]
    value = np.array(sums).reshape(term_values.shape[:-1])
    last, prev = term_values[..., -1], term_values[..., -2] if terms >= 2 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = last / prev
        tail = np.where((prev <= 0.0) | (last >= prev), np.inf, last * ratio / (1.0 - ratio))
    return value[()], np.where(last == 0.0, 0.0, tail)[()]


# ---------------------------------------------------------------------------
# stabilization iterations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizerConfig:
    max_iter: int = 64
    tol: float = 1e-10
    direction: str = "auto"

    def __post_init__(self) -> None:
        if self.max_iter < 2:
            raise ValueError("max_iter must be >= 2")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.direction not in (FORWARD, BACKWARD, "auto"):
            raise ValueError("direction must be 'forward', 'backward' or 'auto'")


@dataclass
class StabilizationResult:
    """Outcome of one stabilization run.

    ``limit`` is None exactly when the run diverged; a fabricated limit is
    never reported.  ``differences`` holds h_{n-1} - h_{n-2} and
    h_n - h_{n-1} at the n where the run stopped, whatever its status; the
    first is zero when n = 1.  Their norms are the run's last two Cauchy
    residuals.
    """

    limit: np.ndarray | None
    iterations_used: int
    status: str  # converged | diverged | exhausted
    differences: np.ndarray  # (2, d, d)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _settle(open_rows: Callable[[], np.ndarray], *brackets: NormBracket) -> None:
    """Close the decisions ``open_rows()`` leaves open: tighten the brackets there, then refine the rest."""
    rows = open_rows()
    if rows.any():
        for bracket in brackets:
            bracket.tighten(rows)
        rows = open_rows()
        if rows.any():
            for bracket in brackets:
                bracket.refine(rows)


def _greater(x: NormBracket, y: NormBracket, rows: np.ndarray) -> np.ndarray:
    """Per row, x > y between two NormBrackets; exact on ``rows``, where overlapping bounds settle both sides."""
    _settle(lambda: rows & (x.lo <= y.hi) & (x.hi > y.lo), x, y)
    return x.lo > y.hi


def _blown(h: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, d, d) stack, whether an entry's modulus passes ITERATE_OVERFLOW_LIMIT."""
    parts = np.ascontiguousarray(h).view(np.float64)  # real and imaginary parts
    if np.abs(parts).max() <= ITERATE_OVERFLOW_LIMIT / 2:  # |z| <= sqrt(2) max(|Re z|, |Im z|)
        return np.zeros(len(h), dtype=bool)
    return np.max(np.abs(h), axis=(1, 2)) > ITERATE_OVERFLOW_LIMIT


def resolve_direction(f: MapSpec, cfg: StabilizerConfig) -> str | None:
    """Direction from config, or from the perturbation exponent; None if unresolved.

    Exponents above one shrink under forward rescaling, below one under
    backward rescaling; exactly one and exact maps have no direction of
    their own and must name one.
    """
    if cfg.direction != "auto":
        return cfg.direction
    if isinstance(f, Perturbed):
        p = f.perturbation
        if p.mode in ("constant", "affine"):
            return BACKWARD
        if p.power > 1.0:
            return FORWARD
        if p.power < 1.0:
            return BACKWARD
    return None


def stabilize_batch(
    f: MapSpec, A: np.ndarray, cfg: StabilizerConfig, *, norms: np.ndarray | None = None
) -> list[StabilizationResult]:
    """Lockstep stabilization of a (count, d, d) stack; pure per point.

    Each sample stops independently the first time its Cauchy residual meets
    tol * (1 + ||a||), diverges after five consecutive residual increases
    that end above the initial residual (or once an iterate entry passes
    ITERATE_OVERFLOW_LIMIT), or exhausts max_iter.  A direction "auto" that
    resolve_direction cannot resolve raises ValueError.  A row's result is
    the one it gets alone, bit for bit, whatever else the stack holds: a
    stopped row runs on as the zero matrix (in working copies of A and
    norms, never the caller's), so its rescaled point cannot overflow while
    other rows still iterate.

    Each iteration's residuals are one NormBracket, starting from their
    Frobenius brackets.  Where a bracket leaves a decision open (converged,
    growing, above the first residual; an open comparison settles both
    sides), it is tightened to its entrywise bounds, and a residual still
    open is refined.  Each result keeps its last two differences, for a
    caller that reports the stopping residuals to norm.  ``norms`` are the
    operator norms of A when the caller holds them, as the drawn norms of a
    sampled stack; without them the stack is normed here.
    """
    direction = resolve_direction(f, cfg)
    if direction is None:
        raise ValueError("stabilizer direction 'auto' does not resolve for this map: set forward or backward")
    A = np.asarray(A, dtype=np.complex128)
    count = A.shape[0]
    norms_a = spectral_norms(A) if norms is None else norms  # ||3^±n a|| is carried as norms_a scaled by 3^±n
    tols = cfg.tol * (1.0 + norms_a)
    h_prev = apply_array(f, A, norms_a)
    diffs = np.empty((count, 2, *A.shape[1:]), dtype=A.dtype)  # each row's last two differences
    diff_prev = np.zeros_like(A)  # the first of the two for a row that stops at n = 1
    active = np.ones(count, dtype=bool)
    status = np.full(count, "exhausted", dtype=object)  # the status of a row still active at max_iter
    iters = np.zeros(count, dtype=int)
    limits = np.empty_like(A)
    grow = np.zeros(count, dtype=int)

    for n in range(1, cfg.max_iter + 1):
        factor = 3.0**n
        if direction == FORWARD:
            h = factor * apply_array(f, A / factor, norms_a / factor)
        else:
            h = apply_array(f, A * factor, norms_a * factor) / factor
        diff = h - h_prev
        res = NormBracket(diff)  # one iteration's Cauchy residuals ||h_n - h_{n-1}||
        if n == 1:
            first = res
        _settle(lambda: active & (res.lo <= tols) & (res.hi > tols), res)
        converged = active & (res.hi <= tols)
        running = active & ~converged
        if n > 1:
            grow = np.where(_greater(res, last, running), grow + 1, 0)
        last = res
        diverged = running & _blown(h)
        suspect = running & ~diverged & (grow >= DIVERGENCE_GROWTH_STEPS)
        if suspect.any():
            diverged |= suspect & _greater(res, first, suspect)
        active = running & ~diverged
        kept = converged | active if n == cfg.max_iter else converged  # exhausted rows keep their last iterate
        stopped = kept | diverged
        if stopped.any():
            status[converged], status[diverged] = "converged", "diverged"
            iters[stopped] = n
            limits[kept] = h[kept]
            diffs[stopped, 0], diffs[stopped, 1] = diff_prev[stopped], diff[stopped]
            A, norms_a = np.where(stopped[:, None, None], 0.0, A), np.where(stopped, 0.0, norms_a)
        if not active.any():
            break
        h_prev, diff_prev = h, diff

    return [
        StabilizationResult(None if s == "diverged" else limit, used, s, pair)
        for limit, used, s, pair in zip(limits, iters.tolist(), status.tolist(), diffs)
    ]


# ---------------------------------------------------------------------------
# empirical control calibration
# ---------------------------------------------------------------------------


def _calibrated_coeff(
    f: MapSpec, template: PowerControl, seed: int, samples: int, norm_cap: float, stream: int
) -> float:
    d = f.dim
    norms = np.empty(3 * samples)
    streams = (stream, stream + 1, stream + 2)
    A, B, C = random_elements(seed, samples, d, norm_cap, stream=streams, norms_out=norms).reshape(3, samples, d, d)
    na, nb, nc = norms.reshape(3, samples)
    residuals = spectral_norms(_stability_equation_values(f, A, B, C, na=na, nc=nc))
    base = control_value(replace(template, coeff=1.0), na, nb, nc)
    zero = base == 0.0
    if np.any(residuals[zero] > 1e-12):
        raise CalibrationError("nonzero residual at an all-zero sample: no finite coefficient dominates")
    return float(np.max(residuals[~zero] / base[~zero], initial=0.0))  # 0/0 guarded as 0


def calibrate_control(
    f: MapSpec,
    template: PowerControl,
    seed: int,
    samples: int,
    norm_cap: float = 10.0,
    sweep_factor: float | None = None,
) -> PowerControl:
    """Fit the control coefficient so the template dominates sampled residuals.

    The coefficient is the worst sampled ratio of the master-equation
    residual to the unit-coefficient control value, so the returned control
    dominates every sampled residual by construction.  With ``sweep_factor``
    set, the fit is repeated at the inflated norm cap and a growth beyond
    fifty percent raises CalibrationError (an unbounded ratio means no
    coefficient works at every scale).
    """
    if samples < 10:
        raise ValueError("calibration needs at least 10 samples")
    coeff = _calibrated_coeff(f, template, seed, samples, norm_cap, stream=40)
    if sweep_factor is not None:
        if sweep_factor <= 1.0:
            raise ValueError("sweep_factor must exceed 1")
        coeff_hi = _calibrated_coeff(
            f, template, seed, samples, norm_cap * sweep_factor, stream=43
        )
        if coeff_hi > coeff * 1.5 + 1e-12:
            raise CalibrationError(
                f"control ratio grows with the norm cap ({coeff:.3e} -> {coeff_hi:.3e}); "
                "no finite coefficient dominates at every scale"
            )
        coeff = max(coeff, coeff_hi)
    return replace(template, coeff=coeff)

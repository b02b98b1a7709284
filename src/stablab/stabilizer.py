"""Direct-method stabilization: rescaled iterates, error bounds, uniqueness.

The forward iteration h_n(a) = 3^n f(a/3^n) repairs maps whose defect decays
fast at small scales; the backward iteration h_n(a) = 3^{-n} f(3^n a) covers
slow-growth defects.  Convergence is decided by the Cauchy criterion on
successive iterates, and the distance from f to the repaired limit is
certified by a control-function series with matching closed forms.

Powers of three are not exactly representable in binary floating point, so
every comparison here is tolerance-relative, never exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import Element, random_elements, spectral_norms
from .checkers import CheckReport, Witness, _build_report, _stability_equation_values
from .mappings import MapSpec, Perturbed, apply_array, domain_dim

__all__ = [
    "BOUND_KINDS",
    "CalibrationError",
    "ControlDirectionError",
    "DivergedError",
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
    "verify_uniqueness",
]

FORWARD = "forward"
BACKWARD = "backward"
DIVERGENCE_GROWTH_STEPS = 5
ITERATE_OVERFLOW_LIMIT = 1e150


class ControlDirectionError(ValueError):
    """Control function and iteration direction violate the convergence condition."""


class CalibrationError(RuntimeError):
    """Empirical control-coefficient fit failed (unbounded ratio)."""


class DivergedError(RuntimeError):
    """A stabilization run needed by the caller did not converge."""

    def __init__(self, message: str, results=None):
        super().__init__(message)
        self.results = results


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
    """

    coeff: float
    exp1: float
    exp2: float
    exp3: float

    def __post_init__(self) -> None:
        if self.coeff < 0.0:
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


def _npow(t: float, e: float) -> float:
    return 0.0 if t == 0.0 else float(t) ** e


def control_value(spec: PowerControl, na: float, nb: float, nc: float) -> float:
    """Evaluate the control function on the three argument norms."""
    return spec.coeff * (_npow(na, spec.exp1) + _npow(nb, spec.exp2) + _npow(nc, spec.exp3))


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


def bound_closed_form(spec: PowerControl, norm_a: float, direction: str) -> float:
    """Closed-form distance bound ||f(a) - h(a)|| for the admissible direction.

    The sum of bound_series_truncated's series: coeff * (t^e1 g(e1) +
    2^e2 t^e2 g(e2)), with g(e) the geometric sum of the ratio 3^(1-e) from
    i = 0 (forward) or of 3^(e-1) from i = 1 (backward).
    """
    validate_control_direction(spec, direction)
    if norm_a < 0.0:
        raise ValueError("norm_a must be nonnegative")

    def denominator(e: float) -> float:  # 1 / g(e)
        return 1.0 - 3.0 ** (1.0 - e) if direction == FORWARD else 3.0 ** (1.0 - e) - 1.0

    c, e1, e2 = spec.coeff, spec.exp1, spec.exp2
    return c * _npow(norm_a, e1) / denominator(e1) + c * 2.0**e2 * _npow(norm_a, e2) / denominator(e2)


def bound_series_truncated(spec: PowerControl, norm_a: float, direction: str, terms: int) -> tuple[float, float]:
    """Truncated error series along (a, 2a, 0) plus a geometric tail estimate.

    A control sees its arguments only through their norms, so the series runs
    on t = ||a|| directly.  Forward sums 3^i * phi(t/3^i, 2t/3^i, 0) from
    i = 0; backward sums 3^{-i} * phi(3^i t, 2*3^i t, 0) from i = 1 (the index
    origins differ on purpose).  The tail uses the empirical ratio of the
    last two terms and is infinite when that ratio fails to certify
    convergence.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}', got {direction!r}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if norm_a < 0.0:
        raise ValueError("norm_a must be nonnegative")
    term_values = []
    for k in range(terms):
        if direction == FORWARD:
            factor = 3.0**k
            term = factor * control_value(spec, norm_a / factor, 2.0 * norm_a / factor, 0.0)
        else:
            factor = 3.0 ** (k + 1)
            term = control_value(spec, norm_a * factor, 2.0 * factor * norm_a, 0.0) / factor
        term_values.append(term)
    value = float(math.fsum(term_values))
    last = term_values[-1]
    prev = term_values[-2] if terms >= 2 else 0.0
    if last == 0.0:
        tail = 0.0
    elif prev <= 0.0 or last >= prev:
        tail = math.inf
    else:
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio)
    return value, tail


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
    """Trace of one stabilization run.

    ``limit`` is None exactly when the run diverged; a fabricated limit is
    never reported.  ``certified_bound`` is NaN until a caller attaches a
    control-function certificate.
    """

    limit: Element | None
    iterations_used: int
    cauchy_residuals: list[float]
    direction: str
    status: str  # converged | diverged | exhausted
    certified_bound: float = float("nan")

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def resolve_direction(f: MapSpec, cfg: StabilizerConfig) -> str | None:
    """Direction from config, or from the perturbation exponent; None => probe.

    Exponents above one shrink under forward rescaling, below one under
    backward rescaling; exactly one (and exact maps) fall back to probing.
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


def _iterate_batch(f: MapSpec, A: np.ndarray, direction: str, cfg: StabilizerConfig):
    """Lockstep stabilization of a sample stack with per-sample freezing.

    Each sample stops independently the first time its Cauchy residual meets
    tol * (1 + ||a||), diverges after five consecutive residual increases
    that end above the initial residual, or exhausts max_iter.
    """
    count = A.shape[0]
    scales = 1.0 + spectral_norms(A)
    h_prev = apply_array(f, A)
    traces: list[list[float]] = [[] for _ in range(count)]
    status = ["active"] * count
    limits: list[np.ndarray | None] = [None] * count
    iters = [0] * count
    grow = np.zeros(count, dtype=int)
    last_res = np.full(count, np.inf)

    for n in range(1, cfg.max_iter + 1):
        factor = 3.0**n
        if direction == FORWARD:
            h = factor * apply_array(f, A / factor)
        else:
            h = apply_array(f, A * factor) / factor
        res = spectral_norms(h - h_prev)
        peaks = np.max(np.abs(h), axis=(1, 2))
        for i in range(count):
            if status[i] != "active":
                continue
            r = float(res[i])
            traces[i].append(r)
            if r <= cfg.tol * scales[i]:
                status[i] = "converged"
                limits[i] = h[i].copy()
                iters[i] = n
                continue
            if r > last_res[i]:
                grow[i] += 1
            else:
                grow[i] = 0
            last_res[i] = r
            blown = peaks[i] > ITERATE_OVERFLOW_LIMIT
            if blown or (grow[i] >= DIVERGENCE_GROWTH_STEPS and r > traces[i][0]):
                status[i] = "diverged"
                iters[i] = n
                continue
            if n == cfg.max_iter:
                status[i] = "exhausted"
                limits[i] = h[i].copy()
                iters[i] = n
        if all(s != "active" for s in status):
            break
        h_prev = h

    return [
        StabilizationResult(
            limit=None if limits[i] is None else Element(limits[i]),
            iterations_used=iters[i],
            cauchy_residuals=traces[i],
            direction=direction,
            status=status[i],
        )
        for i in range(count)
    ]


def stabilize_batch(f: MapSpec, A: np.ndarray, cfg: StabilizerConfig) -> list[StabilizationResult]:
    """Stabilize a (count, d, d) stack of points; pure per point.

    With direction "auto" and no usable exponent, both directions are probed
    and each sample keeps the convergent run (ties favour the faster one,
    then forward).
    """
    A = np.asarray(A, dtype=np.complex128)
    direction = resolve_direction(f, cfg)
    if direction is not None:
        return _iterate_batch(f, A, direction, cfg)
    fwd = _iterate_batch(f, A, FORWARD, cfg)
    bwd = _iterate_batch(f, A, BACKWARD, cfg)
    picked = []
    for rf, rb in zip(fwd, bwd):
        if rf.converged and rb.converged:
            picked.append(rf if rf.iterations_used <= rb.iterations_used else rb)
        elif rf.converged:
            picked.append(rf)
        elif rb.converged:
            picked.append(rb)
        else:
            picked.append(rf)
    return picked


# ---------------------------------------------------------------------------
# empirical control calibration and uniqueness
# ---------------------------------------------------------------------------


def _calibrated_coeff(
    f: MapSpec, template: PowerControl, seed: int, samples: int, norm_cap: float, stream: int
) -> float:
    d = domain_dim(f)
    A = random_elements(seed, samples, d, norm_cap, stream=stream)
    B = random_elements(seed, samples, d, norm_cap, stream=stream + 1)
    C = random_elements(seed, samples, d, norm_cap, stream=stream + 2)
    residuals = _stability_equation_values(f, A, B, C, phase=1.0)
    unit = replace(template, coeff=1.0)
    na = spectral_norms(A)
    nb = spectral_norms(B)
    nc = spectral_norms(C)
    worst = 0.0
    for i in range(samples):
        base = control_value(unit, float(na[i]), float(nb[i]), float(nc[i]))
        r = float(residuals[i])
        if base == 0.0:
            if r > 1e-12:
                raise CalibrationError(
                    "nonzero residual at an all-zero sample: no finite coefficient dominates"
                )
            continue  # 0/0 guarded as 0
        worst = max(worst, r / base)
    return worst


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


def verify_uniqueness(
    f: MapSpec,
    cfg: StabilizerConfig,
    seed: int,
    samples: int,
    norm_cap: float = 10.0,
    tol: float = 1e-9,
) -> CheckReport:
    """Agreement of each stabilized limit h(a) with h(3a)/3 from the tripled point.

    The two runs stop at different truncation points of the rescaled
    sequence, so a limit that depends on where the iteration stops shows up
    as a discrepancy; it must stay within tol * (1 + ||a||).  A rerun at
    doubled max_iter is not a check: a converged sample stops on its Cauchy
    residual before max_iter is read, so that rerun is bit-identical.  Any
    non-convergent run raises DivergedError.
    """
    d = domain_dim(f)
    A = random_elements(seed, samples, d, norm_cap, stream=50)
    base = stabilize_batch(f, A, cfg)
    shifted = stabilize_batch(f, 3.0 * A, cfg)
    for results in (base, shifted):
        bad = [r for r in results if not r.converged]
        if bad:
            raise DivergedError(
                f"{len(bad)} of {samples} stabilization runs did not converge", results=results
            )
    h_base = np.stack([r.limit.entries for r in base])
    h_shift = np.stack([r.limit.entries for r in shifted]) / 3.0
    disc = spectral_norms(h_shift - h_base)
    scales = 1.0 + spectral_norms(A)

    def witness(i: int) -> Witness:
        return Witness(i, float(disc[i]), {"a": float(spectral_norms(A[i][np.newaxis])[0])})

    return _build_report("uniqueness", disc, np.zeros(samples), scales, tol, witness)

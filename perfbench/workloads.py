"""Workload definitions: configs generated from a seed, plus expected verdicts.

Each workload is a list of CLI invocations.  An invocation carries the config
dict written to disk for ``stablab <command> --config``, the exit code the
mathematics predicts, and the verdict every named check must reach.  The
program sees only the generated configs; nothing else about the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SAT = "satisfied"
VIO = "violated"

# Sizes are chosen so one pass (every invocation once) takes one to three
# seconds on a 2-core desk machine, giving several passes per run.
LEMMA_SAMPLES = 60
LEMMA_DIMS = [2, 3, 4]
STABILITY_SAMPLES = 100
STABILITY_EXACTNESS_SAMPLES = 24
DECAY_DIM = 8
DECAY_SAMPLES = 12
DECAY_N_MAX = 32
DECAY_INVOCATIONS = 8
TABLE_TERMS = 60

LADDER = ["zero_at_zero", "oddness", "doubling", "tripling", "three_term_zero", "additivity"]
LEMMA_CHECKS = LADDER + ["telescoping_equality", "phase_oddness", "phase_homogeneity"]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``stablab <command> --config <name>.json --out <name>.report.json``."""

    name: str
    command: str
    config: dict
    exit_code: int
    verdicts: dict  # check name -> expected verdict; the set of names must match exactly


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str  # the per-layer time metric this workload is built to load
    build: object  # (rng) -> list[Invocation]


def _sampling(rng: random.Random, samples: int, norm_cap: float, dims: list[int] | None = None) -> dict:
    out = {"seed": rng.randrange(2**31), "samples": samples, "norm_cap": norm_cap}
    if dims is not None:
        out["dims"] = dims
    return out


def _lemma(rng: random.Random) -> list[Invocation]:
    # Exact C-linear maps satisfy every ladder step and the telescoping
    # equality identically, so every asserted check is satisfied (exit 0).
    exact = [
        ("lemma_transpose", {"kind": "transpose"}),
        ("lemma_unitary", {"kind": "unitary_conjugation", "seed": rng.randrange(2**31)}),
    ]
    out = []
    for name, map_cfg in exact:
        cfg = {
            "schema": 1,
            "algebra": {"dim": LEMMA_DIMS[0]},
            "map": map_cfg,
            "sampling": _sampling(rng, LEMMA_SAMPLES, 10.0, LEMMA_DIMS),
            "checks": {"tol": 1e-9},
        }
        verdicts = {f"dim{d}/{c}": SAT for d in LEMMA_DIMS for c in LEMMA_CHECKS}
        out.append(Invocation(name, "lemma-check", cfg, 0, verdicts))
    # f(x) = x + I breaks every step by a fixed multiple of I: f(0) = I,
    # f(-c) + f(c) = 2I, f(2c) - 2f(c) = -I, f(3c) - 3f(c) = -2I, the
    # three-term sum is 3I, f(s+t) - f(s) - f(t) = -I, both phase patterns
    # give (1 + mu)I (norm 2 at mu = 1), and the telescoping sides are
    # ||a + 3I|| against ||a + I||.  All far above tol * (1 + 10); exit 1.
    # The grid keeps only 1, -1, i and -i: every phase already violates, and
    # the full grid's batched norms would outweigh the sampling this
    # workload is built to load.
    cfg = {
        "schema": 1,
        "algebra": {"dim": 3},
        "map": {
            "kind": "perturbed",
            "base": {"kind": "identity"},
            "perturbation": {"mode": "affine", "size": 1.0, "direction": "identity"},
        },
        "sampling": _sampling(rng, LEMMA_SAMPLES, 10.0, [3]),
        "phase_grid_size": 0,
        "checks": {"tol": 1e-9},
    }
    out.append(Invocation("lemma_affine", "lemma-check", cfg, 1, {f"dim3/{c}": VIO for c in LEMMA_CHECKS}))
    return out


def _stability(rng: random.Random) -> list[Invocation]:
    # The limit map is the identity in both cases.  The calibrated control
    # dominates every sampled residual by construction; the declared bounds
    # hold because dist(f(a), a) = size for the constant offset (bound coeff
    # = size) and size * ||a||^2 <= 7.5 * size * ||a||^2 for the power one.
    checks = {"bound_certificate": SAT, "declared_bound": SAT, "recovered_exactness": SAT}
    backward = {
        "schema": 1,
        "algebra": {"dim": 3},
        "map": {
            "kind": "perturbed",
            "base": {"kind": "identity"},
            "perturbation": {"mode": "constant", "size": 0.5, "direction": "identity"},
        },
        "bound": {"kind": "constant", "coeff": 0.5},
        "sampling": _sampling(rng, STABILITY_SAMPLES, 10.0),
        "stabilizer": {"max_iter": 64, "tol": 1e-10, "direction": "auto"},
        "exactness": {"samples": STABILITY_EXACTNESS_SAMPLES, "tol": 1e-8},
    }
    forward = {
        "schema": 1,
        "algebra": {"dim": 3},
        "map": {
            "kind": "perturbed",
            "base": {"kind": "identity"},
            "perturbation": {"mode": "power", "size": 0.01, "power": 2.0, "direction": "identity", "odd": True},
        },
        "bound": {"kind": "power", "coeff": 0.01, "exp1": 2.0, "exp2": 2.0, "exp3": 2.0},
        "sampling": _sampling(rng, STABILITY_SAMPLES, 1.0),
        "stabilizer": {"max_iter": 64, "tol": 1e-10, "direction": "auto"},
        "exactness": {"samples": STABILITY_EXACTNESS_SAMPLES, "tol": 1e-7},
    }
    return [
        Invocation("stability_backward_constant", "stability", backward, 0, checks),
        Invocation("stability_forward_power", "stability", forward, 0, checks),
    ]


def _decay(rng: random.Random) -> list[Invocation]:
    # f(x) = 0.01 ||x||^(1/2) E with E the nilpotent corner unit, so f(na)^2 = 0
    # and d_n = 0.01 ||a^2||^(1/2) / n: slope exactly -1 against the bound
    # 2p - 2 + margin = -0.9, and d_nmax far below 1e-2 * (1 + ||a||).
    # A batched norm call runs until its slowest sample converges, and the
    # slowest of a few random 8x8 matrices varies a lot between seeds; several
    # independently seeded invocations average that straggler cost out.
    out = []
    for k in range(DECAY_INVOCATIONS):
        cfg = {
            "schema": 1,
            "algebra": {"dim": DECAY_DIM},
            "map": {
                "kind": "perturbed",
                "base": {"kind": "zero"},
                "perturbation": {"mode": "power", "size": 0.01, "power": 0.5, "direction": "corner"},
            },
            "sampling": _sampling(rng, DECAY_SAMPLES, 2.0),
            "superstability": {"n_max": DECAY_N_MAX, "terminal_tol": 1e-2},
        }
        out.append(Invocation(f"superstability_corner_{k}", "superstability", cfg, 0, {"terminal_decay": SAT, "decay_slope": SAT}))
    return out


def _bounds(rng: random.Random) -> list[Invocation]:
    # Exponents stay where the series ratio 3^(1-e) (forward) or 3^(e-1)
    # (backward) is at most 3^(-1/2), so 60 terms leave a tail near 1e-14,
    # far inside the 1e-9 agreement tolerance; a profile of degree > 1 has
    # exactly the power closed form with exp = degree.
    def pick(lo: float, hi: float) -> list[float]:
        return sorted(round(rng.uniform(lo, hi), 6) for _ in range(3))

    cfg = {
        "schema": 1,
        "algebra": {"dim": 2},
        "sampling": {"seed": rng.randrange(2**31), "samples": 1},
        "bounds_table": {
            "coeffs": sorted(round(10.0 ** rng.uniform(-3.0, 1.0), 6) for _ in range(3)),
            "exps_forward": pick(1.5, 3.0),
            "exps_backward": pick(0.0, 0.5),
            "norms": pick(0.5, 2.0),
            "terms": TABLE_TERMS,
            "profile_degree": round(rng.uniform(1.5, 3.0), 6),
        },
    }
    checks = {"series_closed_form_agreement": SAT, "profile_power_consistency": SAT}
    return [Invocation("bounds_table", "bounds-table", cfg, 0, checks)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lemma",
            "additivity ladder on exact maps in dims 2-4 plus the affine counterexample; "
            "dominated by per-sample seeded sampling",
            "algebra.sample_s",
            _lemma,
        ),
        Workload(
            "stability",
            "backward-constant and forward-power stabilization with calibration and "
            "exactness; the only user of stabilize_batch",
            "stabilizer.stabilize_s",
            _stability,
        ),
        Workload(
            "decay",
            "superstability decay at d=8 in 8 seeded invocations; batched norm calls "
            "dominate, little sampling",
            "algebra.norm_s_batched",
            _decay,
        ),
        Workload(
            "bounds",
            "bounds-table over a seeded grid; series terms with one small norm call "
            "each, no sampling or stabilization",
            "stabilizer.bound_series_s",
            _bounds,
        ),
    )
}


def variants(workload: str, seed: int, count: int) -> list[list[Invocation]]:
    """``count`` independently seeded variants of the workload; the same seed gives the same configs."""
    return [WORKLOADS[workload].build(random.Random(f"{workload}/{seed}/{v}")) for v in range(count)]

"""Span tracing around the public functions of each stablab layer.

The wrappers are installed from outside the program: every module of the
package that holds a reference to a traced function (``from .algebra import
spectral_norms`` binds a second name in each importer, and ``cli`` keeps the
command functions in a dict) gets the wrapper, and ``restore`` puts every
original back.  Spans live in memory as tuples until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# A norm call on at most this many matrices is one point's worth of work (a
# sampled element, a witness, or the (a, 2a, 0) triple of a series term);
# larger stacks are batched evaluations.
SINGLE_MAX = 3
NORM_DIMS = (2, 3, 4, 8)

_MARK = "__perfbench_wrapped__"


def _norm_work(args, kwargs, result):
    mats = args[0] if args else kwargs["mats"]
    return (int(np.size(result)), int(np.shape(mats)[-1]))


def _stabilize_work(args, kwargs, result):
    return (len(result), sum(r.iterations_used for r in result), sum(1 for r in result if r.converged))


def _series_terms(args, kwargs, result):
    return int(args[3] if len(args) > 3 else kwargs["terms"])


# (module, function, span group, work extractor)
TRACED = [
    ("algebra", "random_elements", "algebra.sample", lambda a, k, r: int(r.shape[0])),
    ("algebra", "spectral_norms", "algebra.norm", _norm_work),
    ("mappings", "apply_array", "mappings.apply", lambda a, k, r: int(np.prod(np.shape(r)[:-2]))),
    ("checkers", "additivity_ladder", "checkers.ladder", None),
    ("checkers", "telescoping_check", "checkers.telescoping", None),
    ("checkers", "phase_substitution_checks", "checkers.phase", None),
    ("checkers", "superstability_decay_batch", "checkers.decay", lambda a, k, r: int(r.size)),
    ("checkers", "superstability_shrinking_batch", "checkers.decay", lambda a, k, r: int(r.size)),
    ("stabilizer", "stabilize_batch", "stabilizer.stabilize", _stabilize_work),
    ("stabilizer", "calibrate_control", "stabilizer.calibrate", None),
    ("stabilizer", "bound_series_truncated", "stabilizer.bound_series", _series_terms),
    ("harness", "load_config", "harness.parse", None),
    ("harness", "parse_config", "harness.parse", None),
    ("harness", "cmd_lemma_check", "harness.command", None),
    ("harness", "cmd_stability", "harness.command", None),
    ("harness", "cmd_superstability", "harness.command", None),
    ("harness", "cmd_bounds_table", "harness.command", None),
    ("harness", "report_json_bytes", "harness.serialize", lambda a, k, r: len(r)),
    ("cli", "main", "cli.main", None),
]

PER_LAYER = [
    ("algebra.sample_s", "s"),
    ("algebra.sample_self_s", "s"),
    ("algebra.sampled_matrices", "count"),
    ("algebra.norm_s", "s"),
    ("algebra.norm_calls", "count"),
    ("algebra.normed_matrices", "count"),
    ("algebra.matrices_per_norm_call", "count"),
    ("algebra.norm_s_single", "s"),
    ("algebra.norm_s_batched", "s"),
    *[(f"algebra.norm_s.d{d}", "s") for d in NORM_DIMS],
    ("algebra.norm_input_bytes", "B"),
    ("mappings.apply_s", "s"),
    ("mappings.apply_self_s", "s"),
    ("mappings.mapped_matrices", "count"),
    ("checkers.ladder_s", "s"),
    ("checkers.telescoping_s", "s"),
    ("checkers.phase_s", "s"),
    ("checkers.decay_s", "s"),
    ("checkers.decay_terms", "count"),
    ("stabilizer.stabilize_s", "s"),
    ("stabilizer.stabilize_self_s", "s"),
    ("stabilizer.points", "count"),
    ("stabilizer.iterations", "count"),
    ("stabilizer.converged_ratio", "ratio"),
    ("stabilizer.calibrate_s", "s"),
    ("stabilizer.bound_series_s", "s"),
    ("stabilizer.bound_series_terms", "count"),
    ("harness.parse_s", "s"),
    ("harness.command_s", "s"),
    ("harness.serialize_s", "s"),
    ("harness.report_bytes", "B"),
    ("cli.main_s", "s"),
    ("cli.main_self_s", "s"),
]

# Counters that depend only on the inputs; they must repeat exactly.
COUNTERS = [name for name, unit in PER_LAYER if unit in ("count", "B")]


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "stablab" or name.startswith("stablab.")]


class Tracer:
    """Records one span per traced call: (group, start, end, parent, invocation, work)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, group, fn, work):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                done = work(args, kwargs, result) if work and result is not None else None
                spans[idx] = (group, start, end, parent, self.invocation, done)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, fname, group, work in TRACED:
            fn = getattr(importlib.import_module(f"stablab.{mod}"), fname)
            wrappers[id(fn)] = self._wrap(group, fn, work)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((vars(module), attr, value))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
        for namespace, key, original in self._patches:
            namespace[key] = wrappers[id(original)]

    def restore(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()
        assert_clean()

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def assert_clean() -> None:
    """Raise if any traced wrapper is still reachable from the package."""
    for module in _package_modules():
        for value in vars(module).values():
            items = value.values() if isinstance(value, dict) else (value,)
            if any(getattr(item, _MARK, False) for item in items if callable(item)):
                raise RuntimeError(f"tracing wrapper left installed in {module.__name__}")


def layer_metrics(spans: list) -> dict:
    """Per-layer busy time, self time and work counts from one pass's spans.

    A group's time sums only its outermost spans (a perturbed map's
    apply_array calls apply_array on its base); self time is each span's
    duration minus its children's, which never overlap in one thread.
    """
    child = [0.0] * len(spans)
    nested = [False] * len(spans)
    for i, (group, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        p = parent
        while p >= 0:
            if spans[p][0] == group:
                nested[i] = True
                break
            p = spans[p][3]

    total = defaultdict(float)
    self_time = defaultdict(float)
    work = defaultdict(int)
    norm = defaultdict(float)
    stab = [0, 0, 0]
    for i, (group, start, end, parent, _, w) in enumerate(spans):
        dur = end - start
        self_time[group] += dur - child[i]
        if nested[i]:
            continue
        total[group] += dur
        if group == "algebra.norm":
            n, d = w
            norm["calls"] += 1
            norm["matrices"] += n
            norm["bytes"] += n * d * d * 16
            norm["single" if n <= SINGLE_MAX else "batched"] += dur
            norm[f"d{d}"] += dur
        elif group == "stabilizer.stabilize":
            stab = [s + x for s, x in zip(stab, w)]
        elif w is not None:
            work[group] += w

    return {
        "algebra.sample_s": total["algebra.sample"],
        "algebra.sample_self_s": self_time["algebra.sample"],
        "algebra.sampled_matrices": work["algebra.sample"],
        "algebra.norm_s": total["algebra.norm"],
        "algebra.norm_calls": int(norm["calls"]),
        "algebra.normed_matrices": int(norm["matrices"]),
        "algebra.matrices_per_norm_call": norm["matrices"] / norm["calls"] if norm["calls"] else 0.0,
        "algebra.norm_s_single": norm["single"],
        "algebra.norm_s_batched": norm["batched"],
        **{f"algebra.norm_s.d{d}": norm[f"d{d}"] for d in NORM_DIMS},
        "algebra.norm_input_bytes": int(norm["bytes"]),
        "mappings.apply_s": total["mappings.apply"],
        "mappings.apply_self_s": self_time["mappings.apply"],
        "mappings.mapped_matrices": work["mappings.apply"],
        "checkers.ladder_s": total["checkers.ladder"],
        "checkers.telescoping_s": total["checkers.telescoping"],
        "checkers.phase_s": total["checkers.phase"],
        "checkers.decay_s": total["checkers.decay"],
        "checkers.decay_terms": work["checkers.decay"],
        "stabilizer.stabilize_s": total["stabilizer.stabilize"],
        "stabilizer.stabilize_self_s": self_time["stabilizer.stabilize"],
        "stabilizer.points": stab[0],
        "stabilizer.iterations": stab[1],
        "stabilizer.converged_ratio": stab[2] / stab[0] if stab[0] else 0.0,
        "stabilizer.calibrate_s": total["stabilizer.calibrate"],
        "stabilizer.bound_series_s": total["stabilizer.bound_series"],
        "stabilizer.bound_series_terms": work["stabilizer.bound_series"],
        "harness.parse_s": total["harness.parse"],
        "harness.command_s": self_time["harness.command"],
        "harness.serialize_s": total["harness.serialize"],
        "harness.report_bytes": work["harness.serialize"],
        "cli.main_s": total["cli.main"],
        "cli.main_self_s": self_time["cli.main"],
    }

"""The program surface the benchmark's tracer and set-up probe rely on.

``perfbench/tracing.py`` wraps functions by (module, name) and reads
stabilization results through ``_stabilize_work``; ``perfbench/run.py``
builds every shipped config's maps from ``load_config(path).algebra.dim``.
The benchmark is not part of this suite, so these contracts are pinned
here: a change that breaks one fails a test instead of the next benchmark
run.  The tracer module is loaded from its file and left unchanged, and one
short traced benchmark run per workload must read correct.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from stablab.algebra import random_elements
from stablab import harness
from stablab.harness import build_map, cmd_bounds_table, load_config
from stablab.mappings import Identity, Perturbation, Perturbed, unit_direction
from stablab.stabilizer import StabilizerConfig, stabilize_batch

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, function_name", [(m, f) for m, f, *_ in tracing.TRACED])
def test_traced_function_resolves(module_name, function_name):
    assert callable(getattr(importlib.import_module(f"stablab.{module_name}"), function_name))


def test_stabilize_work_counts_points_iterations_and_converged():
    f = Perturbed(
        Identity(3),
        Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
    )
    A = random_elements(5, 6, 3, 2.0, stream=1)
    # these samples need 20 or 21 iterations: max_iter 20 leaves five exhausted
    results = stabilize_batch(f, A, StabilizerConfig(max_iter=20))
    points, iterations, converged = tracing._stabilize_work((f, A), {}, results)
    assert points == 6
    assert iterations == 6 * 20
    assert converged == sum(1 for r in results if r.status == "converged") == 1


@pytest.mark.parametrize(
    "direction, statuses",
    [("backward", {"converged", "exhausted"}), ("forward", {"diverged"})],
    ids=["backward", "forward"],
)
def test_stabilize_work_counts_are_python_ints(direction, statuses):
    # the tracer sums these into stabilizer.iterations, which the benchmark
    # writes with json.dumps; a NumPy integer there would fail every traced run
    f = Perturbed(
        Identity(3),
        Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="constant"),
    )
    A = random_elements(5, 6, 3, 2.0, stream=1)
    results = stabilize_batch(f, A, StabilizerConfig(max_iter=20, direction=direction))
    assert {r.status for r in results} == statuses
    work = tracing._stabilize_work((f, A), {}, results)
    assert [type(count) for count in work] == [int, int, int]
    assert json.loads(json.dumps(work)) == list(work)


def test_series_terms_reads_terms_from_the_bounds_table_call(monkeypatch):
    config = load_config(ROOT / "configs" / "bounds_table_default.json")
    real = harness.bound_series_truncated
    seen = []

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(tracing._series_terms(args, kwargs, result))
        return result

    monkeypatch.setattr(harness, "bound_series_truncated", recorded)
    cmd_bounds_table(config)
    # one call per (direction, exponent) group, on its whole coefficient × norm grid
    groups = len(config.table_exps_backward) + len(config.table_exps_forward)
    assert seen == [config.table_terms] * groups


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_setup_probe_reads_algebra_dim(path):
    cfg = load_config(path)
    assert cfg.algebra.dim == cfg.dim
    if cfg.map_cfg is not None:
        for dim in sorted(set(cfg.dims) | {cfg.algebra.dim}):
            assert build_map(cfg.map_cfg, dim).dim == dim


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(workload):
    # the shortest traced run: a warm-up pass, then an untraced and a traced pass until two traced ones;
    # every invocation's exit code, verdicts and report bytes are checked, and the work counters must repeat
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr

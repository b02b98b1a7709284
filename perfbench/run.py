"""stablab benchmark: time from ``stablab <command>`` to its verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lemma --seed 1 --seconds 25 --trace 0

The workload's configs are generated from ``--seed`` (see workloads.py) and
written under perfbench/out/.  One client runs a closed loop in this process:
each ``stablab.cli.main`` invocation starts after the previous one returned,
and one pass runs every invocation of one seeded variant of the workload.
Passes cycle through the variants until ``--seconds`` have elapsed.  After
each pass a fixed reference loop and one fresh-interpreter set-up are timed.
Pass times are reported relative to the reference loop (``wall_ref``,
``cpu_ref``); each metric is the median over passes.

Every invocation is checked: its exit code and every check verdict must match
what the mathematics predicts, and its report bytes (timestamp aside) must
repeat those of its config's first run.  A mismatch or a crash counts as failed.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates untraced passes with passes traced by wrappers
around each layer's public functions and reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import COUNTERS, PER_LAYER, Tracer, assert_clean, layer_metrics
from workloads import WORKLOADS, variants

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
FIXED_TIMESTAMP = "1970-01-01T00:00:00+00:00"
# Passes cycle through this many seeded variants, so one run's median does
# not hang on a single draw of samples.
VARIANTS = 8
MIN_TRACED_PASSES = 2
# setup_s is reported at the speed of a machine that runs the reference loop
# in this many seconds (about its time on an otherwise idle core of the
# machine in baselines/seed.json).
REFERENCE_NOMINAL_S = 0.15

END_TO_END = [("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

# Run in a fresh interpreter: import the package, then parse every config
# and build its maps, as each CLI run does before any sampling.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stablab
from stablab.harness import build_map, load_config
if not stablab.__file__.startswith(sys.argv[1]):
    sys.exit("stablab imported from outside " + sys.argv[1])
for path in sys.argv[2:]:
    cfg = load_config(path)
    if cfg.map_cfg is not None:
        for dim in sorted(set(cfg.dims) | {cfg.algebra.dim}):
            build_map(cfg.map_cfg, dim)
print(repr(time.perf_counter() - t0))
"""

_TIMESTAMP = re.compile(rb'"timestamp":"[^"]*"')


def machine_block() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{lib: {k: v for k, v in (deps.get(lib) or {}).items() if k in keep} for lib in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "env": {k: os.environ.get(k) for k in ("STABLAB_MAX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def reference_time() -> tuple[float, float]:
    """Wall and CPU time of a fixed loop that uses no stablab code.

    Small complex matmuls, reductions and Python arithmetic, the mix a pass
    spends its time on.  Other tenants of a shared machine slow it down
    together with the pass next to it, so their ratio holds still where
    seconds do not.
    """
    c0, t0 = process_time(), perf_counter()
    x = np.full((3, 3), 0.5 + 0.1j)
    for _ in range(18000):
        y = x @ x
        x = y / float(np.max(np.abs(y))) + 0.01
    total = 0
    for i in range(450000):
        total += i % 7
    return perf_counter() - t0, process_time() - c0


def setup_time(config_paths: list[Path]) -> float:
    """One fresh interpreter: import, config parsing and map building, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, config_paths)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    def __init__(self, variants, workdir: Path, cli):
        self.cli = cli  # looked up per call, so a traced cli.main is seen
        self.variants = []
        for v, invs in enumerate(variants):
            items = []
            for inv in invs:
                cfg_path = workdir / f"v{v}-{inv.name}.json"
                cfg_path.write_text(json.dumps(inv.config, indent=1), encoding="utf-8")
                items.append((inv, cfg_path, workdir / f"v{v}-{inv.name}.report.json"))
            self.variants.append(items)
        self.reference: dict[Path, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.invocation_walls: dict[str, list[float]] = {}

    def run_pass(self, variant: int, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run every invocation of one variant once; returns (wall, cpu) summed over them."""
        wall = cpu = 0.0
        for inv, cfg_path, out_path in self.variants[variant]:
            if tracer is not None:
                tracer.invocation += 1
            argv = [inv.command, "--config", str(cfg_path), "--out", str(out_path)]
            self.attempted += 1
            with contextlib.redirect_stdout(io.StringIO()):
                c0, t0 = process_time(), perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crash is a failed invocation, not a verdict
                    code = None
                    self.failures.append(f"{cfg_path.name}: crashed\n{traceback.format_exc()}")
                t1, c1 = perf_counter(), process_time()
            wall += t1 - t0
            cpu += c1 - c0
            self.invocation_walls.setdefault(cfg_path.stem, []).append(t1 - t0)
            if code is not None:
                self.check(inv, code, out_path)
        return wall, cpu

    def check(self, inv, code: int, out_path: Path) -> None:
        data = out_path.read_bytes()
        report = json.loads(data)
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        if code != inv.exit_code or report["exit_code"] != inv.exit_code:
            self.failures.append(f"{out_path.name}: exit {code}, expected {inv.exit_code}")
        elif verdicts != inv.verdicts:
            wrong = sorted(set(verdicts.items()) ^ set(inv.verdicts.items()))
            self.failures.append(f"{out_path.name}: verdicts differ from expected: {wrong}")
        else:
            fixed = _TIMESTAMP.sub(f'"timestamp":"{FIXED_TIMESTAMP}"'.encode(), data, count=1)
            if self.reference.setdefault(out_path, fixed) != fixed:
                self.failures.append(f"{out_path.name}: report bytes differ from its first run")

    def check_determinism(self, load_config, commands, report_json_bytes) -> None:
        """Repeat the first invocation through the harness with a fixed timestamp."""
        inv, cfg_path, out_path = self.variants[0][0]
        self.attempted += 1
        data = report_json_bytes(commands[inv.command](load_config(str(cfg_path))), timestamp=FIXED_TIMESTAMP)
        if self.reference.get(out_path) != data:
            self.failures.append(f"{cfg_path.name}: repeated report_json_bytes differ from the CLI report")


def _summary(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stablab" / "__init__.py").is_file():
        print(f"error: no stablab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablab
    import stablab.cli
    from stablab.harness import load_config, report_json_bytes

    if not Path(stablab.__file__).resolve().is_relative_to(SRC):
        print(f"error: stablab imported from {stablab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    # A traced run stays on variant 0, so its passes can be compared exactly.
    runner = Runner(variants(args.workload, args.seed, 1 if args.trace else VARIANTS), workdir, stablab.cli)
    machine = machine_block()
    print("machine: " + json.dumps(machine, sort_keys=True))

    setup_paths = [cfg_path for _, cfg_path, _ in runner.variants[0]]
    assert_clean()
    # Warm-up: fills lazy state, the bytecode cache and the reference reports.
    runner.run_pass(0)
    if not args.trace:
        setup_time(setup_paths)

    untraced, traced, layers, spans, setup = [], [], [], [], []
    tracer = Tracer() if args.trace else None
    refs = [] if tracer else [reference_time()]
    deadline = perf_counter() + args.seconds
    while not untraced or perf_counter() < deadline or (tracer and len(traced) < MIN_TRACED_PASSES):
        if tracer is None:
            untraced.append(runner.run_pass(len(untraced) % VARIANTS))
            refs.append(reference_time())
            setup.append(setup_time(setup_paths))
            continue
        untraced.append(runner.run_pass(0))
        tracer.install()
        try:
            traced.append(runner.run_pass(0, tracer))
        finally:
            tracer.restore()
        pass_spans = tracer.take()
        spans.append(pass_spans)
        layers.append(layer_metrics(pass_spans))
    if tracer is None:
        refs.append(reference_time())  # closes the bracket around the last set-up
    runner.check_determinism(load_config, stablab.cli._COMMANDS, report_json_bytes)

    counters_repeat = all(
        all(layer[name] == layers[0][name] for name in COUNTERS) for layer in layers
    )
    if not counters_repeat:
        runner.failures.append("work counters differ between traced passes")

    walls = [w for w, _ in untraced]
    if args.trace:
        traced_walls = [w for w, _ in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name, _ in PER_LAYER}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        metrics["trace.target_share"] = statistics.median(
            layer[workload.target] / w for layer, w in zip(layers, traced_walls)
        )
        metrics["trace.spans"] = statistics.median(len(s) for s in spans)
        units = dict(PER_LAYER) | {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.target_share": "ratio", "trace.spans": "count"}
        detail = {"trace.wall_s": traced_walls}
        info = {}
    else:
        # Each pass and each set-up against the mean of the reference runs
        # around it: refs[k] and refs[k + 1] bracket pass k, refs[k + 1] and
        # refs[k + 2] bracket set-up k (with pass k + 1 in between).
        cpus = [c for _, c in untraced]
        wall_ref = [w / ((a[0] + b[0]) / 2.0) for w, a, b in zip(walls, refs, refs[1:])]
        cpu_ref = [c / ((a[1] + b[1]) / 2.0) for c, a, b in zip(cpus, refs, refs[1:])]
        setup_nominal = [
            x * REFERENCE_NOMINAL_S / ((a[0] + b[0]) / 2.0) for x, a, b in zip(setup, refs[1:], refs[2:])
        ]
        metrics = {
            "wall_ref": statistics.median(wall_ref),
            "cpu_ref": statistics.median(cpu_ref),
            "setup_s": statistics.median(setup_nominal),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END) | {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s", "reference_s": "s"}
        info = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                "setup_raw_s": statistics.median(setup), "reference_s": statistics.median(r for r, _ in refs)}
        detail = {"wall_ref": wall_ref, "cpu_ref": cpu_ref, "setup_s": setup_nominal, "wall_s": walls, "cpu_s": cpus,
                  "setup_raw_s": setup, "reference_s": [r for r, _ in refs]}

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {len(untraced)} measured passes "
          f"over {len(runner.variants)} variants; target layer {workload.target}")
    for name, value in (metrics | info).items():
        extra = f"  ({_summary(detail[name])})" if name in detail else ""
        print(f"  {name:34s} {value:.6g} {units[name]}{extra}")
    print(f"  {'failed_ratio':34s} {failed / runner.attempted:.6g} ratio  ({failed} of {runner.attempted} invocations)")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, machine=machine,
                  failures=runner.failures, samples=detail,
                  invocation_walls=runner.invocation_walls)
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        fields = ["group", "start", "end", "parent", "invocation", "work"]
        (workdir / "spans.json").write_text(json.dumps({"fields": fields, "passes": spans}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden reports: the committed report of every shipped config, and how to compare one.

Each case is one command run on one config in ``configs/`` (or the built-in
``bounds-table`` default) with the timestamp fixed.  ``compare`` holds a
fresh report against its golden file:

- exactly: the config digest, exit code and verdicts, check names,
  ``num_samples``, row keys, and every other string, integer, boolean and
  null (dict keys and list lengths included);
- floats: within REL_TOL relative when the larger magnitude is above
  SMALL, otherwise within ABS_TOL absolute (trace entries near 1e-6 are
  dominated by cancellation, so only their absolute change is meaningful);
  NaN matches NaN and an infinity only itself;
- a worst witness may name another sample only when its residual ties the
  golden one within the float tolerance; its other fields then belong to a
  different sample and are not compared.

Regenerate with ``PYTHONPATH=src python -m tests.golden --write``; without
``--write`` it only prints what moved.  A change that moves report bytes
regenerates the files on purpose and explains the printed summary; the
tolerance is never widened to absorb a change.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Iterator

from stablab.cli import _COMMANDS
from stablab.harness import default_bounds_table_config, load_config, report_json_bytes

GOLDEN_DIR = Path(__file__).resolve().parent
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"
FIXED_TIMESTAMP = "1970-01-01T00:00:00+00:00"
REL_TOL = 3e-14
ABS_TOL = 5e-16
SMALL = 1e-6

# golden file stem -> (command, config file in configs/, or None for the built-in default)
CASES = {
    "bounds_table": ("bounds-table", "bounds_table.json"),
    "bounds_table_default": ("bounds-table", None),
    "lemma_affine_counterexample": ("lemma-check", "lemma_affine_counterexample.json"),
    "lemma_transpose": ("lemma-check", "lemma_transpose.json"),
    "lemma_unitary": ("lemma-check", "lemma_unitary.json"),
    "stability_backward_constant": ("stability", "stability_backward_constant.json"),
    "stability_forward_power": ("stability", "stability_forward_power.json"),
    "superstability_p05": ("superstability", "superstability_p05.json"),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def run_case(name: str) -> dict:
    """The case's report as parsed JSON, timestamp fixed."""
    command, config_name = CASES[name]
    config = default_bounds_table_config() if config_name is None else load_config(str(CONFIG_DIR / config_name))
    return json.loads(report_json_bytes(_COMMANDS[command](config), timestamp=FIXED_TIMESTAMP))


def load_golden(name: str) -> dict:
    return json.loads(golden_path(name).read_text(encoding="utf-8"))


def dump_golden(name: str, report: dict) -> None:
    golden_path(name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def float_close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    larger = max(abs(a), abs(b))
    return abs(a - b) <= (REL_TOL * larger if larger > SMALL else ABS_TOL)


def _leaves(expected: Any, actual: Any, path: str) -> Iterator[tuple[str, Any, Any]]:
    """Every (path, expected, actual) pair that is not bit-identical.

    A structural or type difference is reported at the path where it starts.
    A moved witness yields its ``sample_index`` and ``residual`` only.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{path}.<keys>", sorted(expected), sorted(actual)
            return
        if "sample_index" in expected and expected["sample_index"] != actual["sample_index"]:
            yield f"{path}.sample_index", expected["sample_index"], actual["sample_index"]
            yield from _leaves(expected["residual"], actual["residual"], f"{path}.residual")
            return
        for key in expected:
            yield from _leaves(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}.<len>", len(expected), len(actual)
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _leaves(e, a, f"{path}[{i}]")
    elif type(expected) is not type(actual):
        yield path, expected, actual
    elif isinstance(expected, float):
        if not (expected == actual or (math.isnan(expected) and math.isnan(actual))):
            yield path, expected, actual
    elif expected != actual:
        yield path, expected, actual


def compare(expected: dict, actual: dict) -> list[str]:
    """Differences beyond the stated tolerance, one line each; empty when the report holds.

    A moved witness index is not a difference by itself: its residual, which
    ``_leaves`` yields next, must tie the golden one.
    """
    return [
        f"{path}: golden {e!r}, now {a!r}"
        for path, e, a in _leaves(expected, actual, "report")
        if not path.endswith(".sample_index")
        and not (isinstance(e, float) and isinstance(a, float) and float_close(e, a))
    ]


def moved_summary(expected: dict, actual: dict) -> list[str]:
    """What moved, one line per field: digest, verdicts, exit code, worst relative change."""
    worst: dict[str, float] = {}
    lines = []
    for path, e, a in _leaves(expected, actual, "report"):
        field = re.sub(r"\[\d+\]", "[]", path)
        if isinstance(e, float) and isinstance(a, float):
            change = abs(a - e) / max(abs(e), abs(a), 1e-300)
            change = math.inf if math.isnan(change) else change
            worst[field] = max(worst.get(field, 0.0), change)
        else:
            lines.append(f"{path}: {e!r} -> {a!r}")
    lines.extend(f"{field}: largest relative change {change:.3e}" for field, change in sorted(worst.items()))
    return lines

"""Command-line entry point.

Subcommands: lemma-check, stability, superstability, bounds-table.  Every
command reads its experiment from --config (required) and writes its JSON
report to --out; without --out no report file is written.  A human-readable
line per check is printed either way.

Exit codes: 0 all satisfied, 1 violated, 2 divergence, 3 config or usage
error (no --config, an unknown flag, a missing subcommand, a non-integer
--seed, an unwritable --out and a run that needs more memory than is
available included), 4 numerical failure (overflow, non-finite values or an
SVD that does not converge).  Exits 2-4 print one stderr line and no
traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NoReturn

import numpy as np

from .harness import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    ConfigError,
    RunSummary,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    load_config,
    report_json_bytes,
)

_COMMANDS = {
    "lemma-check": cmd_lemma_check,
    "stability": cmd_stability,
    "superstability": cmd_superstability,
    "bounds-table": cmd_bounds_table,
}


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError (exit 3, one stderr line) in place of argparse's exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser unchanged, so every main() call shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablab",
        description="Stability experiments for Jordan *-homomorphisms on matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="experiment config JSON path (required)")
        cmd.add_argument("--out", help="report output path")
        cmd.add_argument("--seed", type=int, help="seed override for the config's sampling seed")
    return parser


def _print_summary(summary: RunSummary) -> None:
    for check in summary.checks:
        tag = {"satisfied": "ok", "violated": "FAIL"}[check.verdict]
        print(f"[{tag:4s}] {check.name}: max_residual={check.max_residual:.6e} samples={check.num_samples}")
    print(f"verdict: {summary.verdict} (exit {summary.exit_code})")


def _write_output(summary: RunSummary, out: str | None) -> None:
    if out is None:
        return
    payload = report_json_bytes(summary)
    try:
        with open(out, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out}: {exc.strerror or exc}")
    print(f"report written: {out}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.config is None:
            raise ConfigError("--config: required by every command")
        config = load_config(args.config, seed_override=args.seed)
        summary = _COMMANDS[args.command](config)
        _write_output(summary, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a config asking for more than the machine holds, not a violation
        detail = str(exc) or "MemoryError"
        print(f"config error: config: the run needs more memory than is available ({detail})", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _print_summary(summary)
    if summary.reason:
        print(f"{summary.verdict}: {summary.reason}", file=sys.stderr)
    return summary.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: lemma-check, stability, superstability, bounds-table.
Reports go to --out (or the config's output path) as JSON or CSV;
a human-readable line per check is printed either way.

Exit codes: 0 all satisfied, 1 violated, 2 divergence, 3 config or usage
error (an unwritable --out or outputs.path included), 4 numerical failure
(overflow or non-finite values).  Exits 2-4 print one stderr line and no
traceback.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    ConfigError,
    ExperimentConfig,
    RunSummary,
    _field_path,
    checks_to_csv,
    cmd_bounds_table,
    cmd_lemma_check,
    cmd_stability,
    cmd_superstability,
    default_bounds_table_config,
    load_config,
    report_json_bytes,
    rows_to_csv,
)

_COMMANDS = {
    "lemma-check": cmd_lemma_check,
    "stability": cmd_stability,
    "superstability": cmd_superstability,
    "bounds-table": cmd_bounds_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablab",
        description="Stability experiments for Jordan *-homomorphisms on matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="experiment config JSON path")
        cmd.add_argument("--out", help="report output path (overrides the config's output path)")
        cmd.add_argument(
            "--format", choices=("json", "csv"), help="report format (overrides the config's output format)"
        )
        cmd.add_argument("--seed", type=int, help="seed override for the config's sampling seed")
    return parser


def _print_summary(summary: RunSummary) -> None:
    for check in summary.checks:
        tag = {"satisfied": "ok", "violated": "FAIL", "vacuous": "info"}[check.verdict]
        print(
            f"[{tag:4s}] {check.name}: max_residual={check.max_residual:.6e} "
            f"max_slack={check.max_slack:.6e} samples={check.num_samples}"
        )
    print(f"verdict: {summary.verdict} (exit {summary.exit_code})")


def _write_output(summary: RunSummary, config: ExperimentConfig, out: str | None, fmt: str | None) -> None:
    path = out if out is not None else config.output_path
    if path is None:
        return
    source = "--out" if out is not None else _field_path("output_path")
    chosen = fmt if fmt is not None else config.output_format
    if chosen == "json":
        payload = report_json_bytes(summary)
    else:
        body = rows_to_csv(summary.sample_rows) if summary.sample_rows else checks_to_csv(summary.checks)
        payload = body.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot write {path}: {exc.strerror or exc}")
    print(f"report written: {path}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            if args.command != "bounds-table":
                raise ConfigError("config: --config is required for this command")
            config = default_bounds_table_config()
            if args.seed is not None:
                raise ConfigError("config: --seed needs --config")
        else:
            config = load_config(args.config, seed_override=args.seed)
        summary = _COMMANDS[args.command](config)
        _write_output(summary, config, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _print_summary(summary)
    if summary.reason:
        print(f"{summary.verdict}: {summary.reason}", file=sys.stderr)
    return summary.exit_code


if __name__ == "__main__":
    sys.exit(main())

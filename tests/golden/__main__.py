"""Re-run every golden case and print what moved; ``--write`` also rewrites the files.

Usage, from the repository root:

    PYTHONPATH=src python -m tests.golden            # report only
    PYTHONPATH=src python -m tests.golden --write    # regenerate tests/golden/*.json
    PYTHONPATH=src python -m tests.golden --digest   # print each case's report sha256 and size

``--digest`` prints ``<case>: <sha256> <bytes>`` of each case's report bytes
(timestamp fixed) and compares nothing; two checkouts report byte-identical
reports exactly when their outputs are equal, so one ``diff`` shows it.
"""

import argparse
import hashlib

from . import CASES, _case_bytes, compare, dump_golden, golden_path, load_golden, moved_summary, run_case


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite the golden files with the fresh reports")
    mode.add_argument("--digest", action="store_true", help="print the sha256 and size of each case's report bytes")
    args = parser.parse_args(argv)
    if args.digest:
        for name in CASES:
            body = _case_bytes(name)
            print(f"{name}: {hashlib.sha256(body).hexdigest()} {len(body)}")
        return 0
    failing = 0
    for name in CASES:
        report = run_case(name)
        if not golden_path(name).exists():
            print(f"{name}: no golden file")
            failing += 1
        else:
            golden = load_golden(name)
            moved = moved_summary(golden, report)
            beyond = compare(golden, report)
            failing += bool(beyond)
            status = "identical" if not moved else f"{len(beyond)} differences beyond tolerance"
            print(f"{name}: {status}")
            for line in moved:
                print(f"  {line}")
        if args.write:
            dump_golden(name, report)
    if args.write:
        print(f"wrote {len(CASES)} golden reports")
        return 0
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())

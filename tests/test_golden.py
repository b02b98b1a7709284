"""Every shipped config still produces its committed golden report.

Exact on digests, exit codes, verdicts, check names, sample counts and row
keys; floats within the tolerance stated in ``tests/golden/__init__.py``.
Regenerate on purpose with ``PYTHONPATH=src python -m tests.golden --write``;
``--digest`` prints the sha256 of each case's report bytes instead.
``run_case`` parses each fresh report strictly, so a NaN or Infinity fails too.
"""

import hashlib

import pytest

from golden import CASES, _case_bytes, compare, load_golden, run_case
from golden.__main__ import main as golden_main


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    problems = compare(load_golden(name), run_case(name))
    assert not problems, f"{name} moved beyond tolerance:\n" + "\n".join(problems[:20])


def test_digest_prints_the_sha256_of_each_case_report(capsys):
    assert golden_main(["--digest"]) == 0
    digests = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert list(digests) == list(CASES)
    assert digests["lemma_transpose"] == hashlib.sha256(_case_bytes("lemma_transpose")).hexdigest()


def test_every_case_reports_a_distinct_report():
    digests = {name: hashlib.sha256(_case_bytes(name)).hexdigest() for name in CASES}
    assert len(set(digests.values())) == len(CASES), digests

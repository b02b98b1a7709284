"""Every shipped config still produces its committed golden report.

Exact on digests, exit codes, verdicts, check names, sample counts and row
keys; floats within the tolerance stated in ``tests/golden/__init__.py``.
Regenerate on purpose with ``PYTHONPATH=src python -m tests.golden --write``;
``--digest`` prints the sha256 and size of each case's report bytes instead.
``run_case`` parses each fresh report strictly, so a NaN or Infinity fails too.
"""

import hashlib

import pytest

from golden import CASES, CONFIG_DIR, GOLDEN_DIR, _case_bytes, compare, load_golden, run_case
from golden.__main__ import main as golden_main


def test_configs_cases_and_goldens_correspond():
    # --write writes only the CASES files, so an orphan golden or a config with no case shows only here
    assert {config for _, config in CASES.values()} == {path.name for path in CONFIG_DIR.glob("*.json")}
    assert set(CASES) == {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert all(config == f"{name}.json" for name, (_, config) in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    problems = compare(load_golden(name), run_case(name))
    assert not problems, f"{name} moved beyond tolerance:\n" + "\n".join(problems[:20])


def test_digest_prints_the_sha256_of_each_case_report(capsys):
    assert golden_main(["--digest"]) == 0
    digests = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert list(digests) == list(CASES)
    body = _case_bytes("lemma_transpose")
    assert digests["lemma_transpose"] == f"{hashlib.sha256(body).hexdigest()} {len(body)}"


def test_every_case_reports_a_distinct_report():
    digests = {name: hashlib.sha256(_case_bytes(name)).hexdigest() for name in CASES}
    assert len(set(digests.values())) == len(CASES), digests


def _nesting(value) -> int:
    """How deep lists nest in a JSON value: 1 for a row of numbers, 3 for a matrix of [re, im] pairs."""
    if isinstance(value, dict):
        return max(map(_nesting, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    return 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_report_holds_a_matrix(name):
    # a witness names its sample; the longest nesting left is a decay sequence per row
    assert _nesting(run_case(name)) <= 2

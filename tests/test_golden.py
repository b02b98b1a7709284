"""Every shipped config still produces its committed golden report.

Exact on digests, exit codes, verdicts, check names, sample counts and row
keys; floats within the tolerance stated in ``tests/golden/__init__.py``.
Regenerate on purpose with ``PYTHONPATH=src python -m tests.golden --write``.
"""

import pytest

from golden import CASES, compare, load_golden, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    problems = compare(load_golden(name), run_case(name))
    assert not problems, f"{name} moved beyond tolerance:\n" + "\n".join(problems[:20])

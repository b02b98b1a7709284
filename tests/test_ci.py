"""CI runs the tier-1 command that ROADMAP.md names, so the two cannot drift apart."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_tier1_step_runs_the_roadmap_tier1_command():
    roadmap = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = re.search(r"^\s*- name: Tier-1 tests\n\s*run: (.+)$", workflow, re.M)
    assert roadmap and step, "ROADMAP.md's Tier-1 verify line or the workflow's Tier-1 tests step is missing"
    assert step.group(1) == roadmap.group(1)

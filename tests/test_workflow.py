"""The CI workflow file loads, and each of its steps is well formed."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_loads_and_every_step_uses_or_runs():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = workflow["jobs"]["tier1"]["steps"]
    assert steps
    for step in steps:
        assert ("uses" in step) != ("run" in step), step
        if "run" in step:
            assert isinstance(step["run"], str), step

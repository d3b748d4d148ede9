"""Every script in ``demos/`` runs to the end on this source tree."""

from pathlib import Path

import pytest

import child

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    run = child.run(str(demo), cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()

"""Smoke test: every script under demos/ and the README's library tour
run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_child(args, cwd):
    """Run python with args in a fresh child process in cwd, the package
    on its path, as a reader runs a demo."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    # The demos only print.
    assert list(tmp_path.iterdir()) == []


def test_readme_library_tour_runs(tmp_path):
    # The README's one Python block names the package's public calls; a
    # call renamed or deleted under it fails here, not in a reader's hands.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_child(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []

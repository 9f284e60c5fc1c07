"""Smoke test: every script under demos/ and the README's library tour
run to completion."""

import hashlib
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


#: sha256 of each demo's stdout.  Demo 05 prints its own wall time, as
#: "(0.0s)", which is masked to "(-s)" before hashing.
DEMO_STDOUT_SHA256 = {
    "01_city_layouts": "078645a19fee5e55921e9d62cc1b21c40b26e8dbe3033c21e49fb0b32cf47873",
    "02_los_in_3d_city": "73d9809aab1ecdd0ccefecacfca7249b73bf1fd1552d36f6dedd4c2e7b4fa2e7",
    "03_geometry_engine": "660d36890b1611e9399a27e243b5d3ed5d24d5c5d3539464402754e7260870cd",
    "04_baseline_models": "8664951fbf11dc5b88bd0f5a2491a896ff00025f09f9db07371103f5e0bfdbbf",
    "05_engine_agreement": "6d4b41eb84137dd2495638c80b5b6088a13c0a8209dcb0346523263e1d4bb7e7",
    "06_azimuth_heatmaps": "7de8c355d547bd16c3437b2e2f83befe89ef06c7126af42ce60e423c7d421764",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    # The demos only print.
    assert list(tmp_path.iterdir()) == []
    stdout = re.sub(r"\([0-9.]+s\)", "(-s)", proc.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]


def test_readme_library_tour_runs(tmp_path):
    # The README's one Python block names the package's public calls; a
    # call renamed or deleted under it fails here, not in a reader's hands.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_child(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []

"""The quick demos run to completion against the current API.

``04_mode_comparison.py`` simulates three full modes (about 20 s) and is
left out.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ("01_string_tracking.py", "02_merge_sequencing.py", "03_idm_platoon.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

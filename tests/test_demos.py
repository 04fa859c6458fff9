"""The demos run to completion against the current API.

``04_mode_comparison.py`` runs its short path: three ten-minute runs, one
per mode, in 6-8 s on a 2 vCPU host.  It is the one demo that builds a
``ScenarioConfig`` by hand, so it is the first to break on a config change.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ("01_string_tracking.py", "02_merge_sequencing.py", "03_idm_platoon.py",
               "04_mode_comparison.py")


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

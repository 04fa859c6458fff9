"""Exported trajectories stay bit for bit the same.

Runs ``configs/smoke.yaml`` (120 s, seed 3) in each mode and compares the
SHA-256 of its trajectory CSV with the digests below, recorded with
numpy 2.4.6.  A change that alters trajectories on purpose updates these
digests and says so in CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

from rampmerge.cli import export_trajectories, load_config
from rampmerge.simulation import run_scenario

SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml"

EXPORT_SHA256 = {
    "optimal": "0adef2538bad4b36ad1d345eef4233d7939143d5fa5537ed7402202d79c3f134",
    "metering": "7dcc4bdea76326be879b733c77561db41cda675e5e52cb4321bd7dde5d657065",
    "none": "8241c9ab89446c4c579c9ef12ba3b8cf98d35f9a7d25aaa68402a0afa2a2ec1f",
}


@pytest.mark.parametrize("mode", list(EXPORT_SHA256))
def test_smoke_export_is_unchanged(tmp_path, mode):
    result = run_scenario(load_config(SMOKE, mode=mode))
    path = export_trajectories(result.log, tmp_path / "trajectories.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[mode]

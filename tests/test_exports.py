"""Exported trajectories stay bit for bit the same.

Runs ``configs/smoke.yaml`` (120 s, seed 3) in each mode, a 180 s window
of ``configs/scenario2.yaml`` (seed 2, coordinated) whose strings get
re-planned, and the first 300 s of ``configs/scenario1.yaml`` (seed 1)
with no control, where ramp vehicles force their way in, and under
metering, where the stop bar releases a queue, and compares the
SHA-256 of each trajectory CSV with the digests below, recorded with
numpy 2.4.6.  A change that alters trajectories on purpose updates these
digests and says so in CHANGES.md.

The re-plan window was 120 s until mainline partners were chosen by the
same travel-time estimate as ramp members.  Since then no string in the
120 s windows of seeds 2 to 5 re-plans, and seed 2's 180 s window
re-plans three times.

The place-value writer is also compared byte for byte with the
``np.savetxt`` writer it replaced (``oracles.export_trajectories_savetxt``)
on the smoke runs, on ``tiny_log()`` and on hand-made columns that hold
the values whose spelling is easy to get wrong.
"""
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import export_trajectories_savetxt
from rampmerge import cli
from rampmerge.cli import export_trajectories, load_config
from rampmerge.coordinator import EventKind
from rampmerge.simulation import TrajectoryLog, run_scenario
from test_cli import tiny_log

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMOKE = CONFIGS / "smoke.yaml"

EXPORT_SHA256 = {
    "optimal": "fe60e3dde00f4a6313d92cc2e442295937569631b5a1f74521984c04586f7d98",
    "metering": "7dcc4bdea76326be879b733c77561db41cda675e5e52cb4321bd7dde5d657065",
    "none": "8241c9ab89446c4c579c9ef12ba3b8cf98d35f9a7d25aaa68402a0afa2a2ec1f",
}


@pytest.fixture(scope="module", params=list(EXPORT_SHA256))
def smoke(request):
    return request.param, run_scenario(load_config(SMOKE, mode=request.param)).log


def test_smoke_export_is_unchanged(tmp_path, smoke):
    mode, log = smoke
    path = export_trajectories(log, tmp_path / "trajectories.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[mode]


def assert_same_bytes_as_savetxt(log, tmp_path):
    new = export_trajectories(log, tmp_path / "columns.csv").read_bytes()
    old = export_trajectories_savetxt(log, tmp_path / "savetxt.csv").read_bytes()
    for k, (a, b) in enumerate(zip(new.split(b"\n"), old.split(b"\n"))):
        assert a == b, f"line {k}"
    assert new == old


def test_smoke_export_matches_savetxt(tmp_path, smoke):
    assert_same_bytes_as_savetxt(smoke[1], tmp_path)


def test_tiny_log_matches_savetxt(tmp_path):
    assert_same_bytes_as_savetxt(tiny_log(), tmp_path)


def awkward_floats(rng, n):
    """Logged-like values, and in about one row in ten a value at or near
    the ties, signs and limits of ``%.6f``."""
    special = [0.9999995, -0.9999995, 0.0, -0.0, 1e-9, -1e-9, 5e-7, -5e-7,
               1e12, -1e12, 123456789.1234565, 1099511.627776, -1099511.627775,
               5e-324, -5e-324, 1e300, np.nan, np.inf, -np.inf]
    exact_ties = np.arange(-1025, 1025, 2) / 128.0  # k/128, k odd: 7th decimal is 5
    units = rng.integers(-10**12, 10**12, 4000) // 10 ** rng.integers(0, 12, 4000)
    halves = (units + 0.5) / 1e6  # nearest doubles to ties at the 6th decimal
    spread = rng.normal(0.0, 1.0, 4000) * 10.0 ** rng.integers(-8, 13, 4000)
    awkward = np.concatenate([special, exact_ties, rng.choice(np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf), spread,
    ]), n // 10)])
    logged = np.round(rng.normal(0.0, 300.0, n - len(awkward)), 6)
    return rng.permutation(np.concatenate([awkward, logged]))


def test_awkward_values_match_savetxt(tmp_path, monkeypatch):
    # small blocks, so rows spelled by % are spliced in at block edges too
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 997)
    rng = np.random.default_rng(20)
    n = 30_000
    log = {}
    for name, dtype in TrajectoryLog.FIELDS.items():
        if dtype is np.int64:
            log[name] = rng.integers(-10**6, 10**6, n) * 10 ** rng.integers(0, 9, n)
        else:
            log[name] = awkward_floats(rng, n)
    assert_same_bytes_as_savetxt(log, tmp_path)
    text = (tmp_path / "columns.csv").read_text()
    for spelled in (",-0.000000,", ",0.007812,", ",1.000000,", ",-1.000000,",
                    ",nan,", ",inf,", ",-inf,", ",-1000000000000.000000,"):
        assert spelled in text
    # two blocks of their own: one whose widest int has ten digits, where
    # uint32 no longer holds every value, and one whose floats % spells
    rows = 997
    ints = [0, 999_999_999, -999_999_999, 10**9, -10**9, 2**32 - 1, 2**32,
            9_999_999_999, -9_999_999_999]
    unspelled = [np.nan, np.inf, -np.inf, cli._EXACT_BELOW, -cli._EXACT_BELOW, -1e300]
    log = {}
    for name, dtype in TrajectoryLog.FIELDS.items():
        if dtype is np.int64:
            log[name] = rng.permutation(np.resize(ints, 2 * rows))
        else:
            log[name] = np.concatenate([np.round(rng.normal(0.0, 300.0, rows), 6),
                                        rng.choice(unspelled, rows)])
    # the time column sorts every unspelled row after the ten-digit block
    log["t"] = np.concatenate([rng.uniform(0.0, 1000.0, rows),
                               rng.choice([np.nan, np.inf, cli._EXACT_BELOW, 1e300], rows)])
    assert_same_bytes_as_savetxt(log, tmp_path)


REPLAN_SHA256 = "30acde9d8ee6868d91323035fdbb2aab842f3510adad03b87ecee522d11aca4c"


def test_replanning_export_is_unchanged(tmp_path):
    config = load_config(CONFIGS / "scenario2.yaml", mode="optimal", seed=2)
    scale = 180.0 / config.total_duration
    config.phases = [replace(p, duration=p.duration * scale) for p in config.phases]
    result = run_scenario(config)
    # the case pins the lookahead's repair path only while a string re-plans
    assert any(event.kind is EventKind.REPLAN for event in result.coordinator.events)
    path = export_trajectories(result.log, tmp_path / "trajectories.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPLAN_SHA256


FORCED_MERGE_SHA256 = "6f22ad3ab84df39aaaa125b7d7fb2f20b94bbafb5b58deda9e863430b35be991"


def test_forced_merge_export_is_unchanged(tmp_path):
    config = load_config(CONFIGS / "scenario1.yaml", mode="none", seed=1)
    config.phases = [replace(config.phases[0], duration=300.0)]
    result = run_scenario(config)
    # the case pins the pushy-insertion path only while a merge is forced
    assert result.counters.forced_merges > 0
    path = export_trajectories(result.log, tmp_path / "trajectories.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FORCED_MERGE_SHA256


METERING_SHA256 = "28a056ba55d9c64f5ee172013135b8891a2bd9f82ac458191265361efdc7880e"


def test_metering_export_is_unchanged(tmp_path):
    """The forced-merge window under metering, where the bar holds a queue."""
    config = load_config(CONFIGS / "scenario1.yaml", mode="metering", seed=1)
    config.phases = [replace(config.phases[0], duration=300.0)]
    result = run_scenario(config)
    # the case pins the stop bar only while it releases a queue
    assert result.counters.meter_releases > 10
    path = export_trajectories(result.log, tmp_path / "trajectories.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == METERING_SHA256

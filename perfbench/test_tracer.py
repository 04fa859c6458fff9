"""Tests for the benchmark tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import LAYER_FUNCTIONS, Tracer

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer():
    import rampmerge.cli  # noqa: F401  (loads every layer module)

    t = Tracer("test")
    t.install()
    yield t
    t.uninstall()


def test_each_function_wrapped_once_across_modules(tracer):
    from rampmerge import coordinator, idm, sequencing, simulation, tracking

    assert tracking.solve_with_repair is sequencing.solve_with_repair
    assert tracking.solve_with_repair is coordinator.solve_with_repair
    assert idm.idm_accel is simulation.idm_accel is coordinator.idm_accel
    params = idm.IdmParams(v0=30.0)
    simulation.idm_accel(20.0, 30.0, 0.0, params)
    coordinator.idm_accel(np.array([20.0, 21.0]), np.array([30.0, 40.0]),
                          np.zeros(2), params)
    spans = [s for s in tracer.spans if s[0] == "idm.idm_accel"]
    assert [s[4] for s in spans] == [0, 1]  # one scalar, one vector call


def test_install_twice_does_not_nest(tracer):
    from rampmerge import fuel

    tracer.install()
    fuel.fuel_rate(20.0, 0.0)
    assert sum(1 for s in tracer.spans if s[0] == "fuel.fuel_rate") == 1


def test_uninstall_restores_originals():
    from rampmerge import sequencing, tracking

    original = tracking.solve_with_repair
    t = Tracer("test")
    t.install()
    assert sequencing.solve_with_repair is not original
    t.uninstall()
    assert tracking.solve_with_repair is original
    assert sequencing.solve_with_repair is original


def test_absent_function_is_reported_not_raised():
    t = Tracer("test")
    t.install(LAYER_FUNCTIONS[:1] + (
        ("rampmerge.tracking", "solve_removed_later", None),
        ("rampmerge.gone", "anything", None),
    ))
    t.uninstall()
    assert t.absent == ["tracking.solve_removed_later", "gone.anything"]


def _traced_window(tmp_path, mode: str, window_s: float) -> dict:
    rep = run.run_repetition(ROOT, mode, 1, window_s, tmp_path, True, "test")
    assert rep["collision"] is None
    assert all(rep["checks"].values()), rep["checks"]
    return run.per_layer([rep], None)


def test_uncontrolled_never_enters_the_coordinator_layers(tmp_path):
    metrics = _traced_window(tmp_path, "none", 60.0)
    idle = {name: value for name, (value, _) in metrics.items()
            if name.split(".")[0] in ("sequencing", "tracking", "coordinator")}
    assert idle and all(value == 0 for value in idle.values()), idle
    assert metrics["simulation.veh_steps"][0] > 0
    assert metrics["idm.vector_calls"][0] > 0


def test_coordinated_counts_each_candidate_once(tmp_path):
    metrics = _traced_window(tmp_path, "optimal", 120.0)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["coordinator.cycles"] > 0
    # every candidate solves once through solve_with_repair; horizon
    # growth only adds Riccati solves, so the ratio is at most one
    assert 0.0 < value["tracking.first_try_ratio"] <= 1.0
    assert value["tracking.riccati_calls"] >= value["sequencing.candidates"]
    assert value["statespace.build_calls"] >= value["sequencing.candidates"]
    assert value["sequencing.distinct_patterns"] <= value["sequencing.candidates"]
    assert value["simulation.self_s"] < value["simulation.run_s"]
    assert not any(math.isnan(v) for v in value.values())

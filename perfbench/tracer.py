"""Span tracer that times rampmerge's layers from outside the package.

The tracer replaces each public layer function with a wrapper that
records one span per call: name, start, end, parent span and an optional
work quantity (a horizon, a lane pattern, ...).  Spans stay in memory
and are written out as JSON lines when the run ends.

A function object is wrapped once, and every module that binds it
(``solve_with_repair`` is bound in ``tracking``, ``sequencing`` and
``coordinator``) is pointed at the same wrapper, so no call is counted
twice.  A function that no longer exists is listed in ``absent`` rather
than raising.  The span stack is not thread-safe: the traced program
must call the layers from one thread, as the scoring default
(``workers: 1``) does.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


def _horizon(args, kwargs, result):
    return int(result.horizon)


def _rollout_steps(args, kwargs, result):
    return int(result.u.shape[0])


def _lane_pattern(args, kwargs, result):
    sequence = args[0] if args else kwargs["sequence"]
    return "".join(str(lane.code) for lane in sequence.lanes)


def _is_vector(args, kwargs, result):
    speed = args[0] if args else kwargs["speed"]
    return int(np.ndim(speed) > 0)


#: (module, qualified name, work extractor) of every function the traced
#: run times; span names drop the package prefix, e.g. "tracking.rollout"
LAYER_FUNCTIONS = (
    ("rampmerge.cli", "load_config", None),
    ("rampmerge.cli", "export_trajectories", None),
    ("rampmerge.simulation", "run_scenario", None),
    ("rampmerge.coordinator", "MergeCoordinator.step", None),
    ("rampmerge.sequencing", "optimal_sequence", None),
    ("rampmerge.sequencing", "score_sequence", _lane_pattern),
    ("rampmerge.tracking", "solve_with_repair", None),
    ("rampmerge.tracking", "solve_finite_horizon", _horizon),
    ("rampmerge.tracking", "rollout", _rollout_steps),
    ("rampmerge.tracking", "check_constraints", None),
    ("rampmerge.tracking", "converged_gains", None),
    ("rampmerge.tracking", "steady_state_feedforward", None),
    ("rampmerge.statespace", "build_model", None),
    ("rampmerge.fuel", "trajectory_fuel", None),
    ("rampmerge.fuel", "fuel_rate", None),
    ("rampmerge.idm", "idm_accel", _is_vector),
    ("rampmerge.idm", "predict_eta", None),
)

#: the two hooks the untraced run keeps, to tell decision steps (those
#: that score merge orders) from plain control steps
DECISION_FUNCTIONS = tuple(
    spec for spec in LAYER_FUNCTIONS
    if spec[1] in ("MergeCoordinator.step", "optimal_sequence")
)

STEP = "coordinator.MergeCoordinator.step"
DECIDE = "sequencing.optimal_sequence"


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # span: [name, parent index or -1, start ns, end ns, work]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        wrappers: dict[int, object] = {}
        for module_name, qualname, work in functions:
            name = span_name(module_name, qualname)
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if hasattr(original, "_traced_span"):
                continue  # already installed
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(name, original, work)
            if path:  # a method: the class is its only binding
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("rampmerge"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if work is not None:
                try:
                    span[4] = work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[4] = None
            return result

        traced.__wrapped__ = fn
        traced._traced_span = name
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w") as handle:
            for index, (name, parent, start, end, work) in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "span": index, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end, "work": work,
                }, separators=(",", ":")) + "\n")
        return path


def step_latencies(spans) -> tuple[list[float], list[float]]:
    """Coordinator step durations (ms), split into decision steps (the
    step called ``optimal_sequence``) and plain control steps."""
    deciding = {parent for name, parent, *_ in spans if name == DECIDE}
    decision, control = [], []
    for index, (name, _, start, end, _) in enumerate(spans):
        if name == STEP:
            (decision if index in deciding else control).append((end - start) / 1e6)
    return decision, control


def totals(spans) -> dict[str, int]:
    """Per-layer sums from one process's spans, flat so that runs add up.

    Keys are ``<span>.calls``, ``<span>.ns`` and ``<span>.work`` plus a
    few derived counts: distinct lane patterns scored, vector and scalar
    IDM calls, repairs (``solve_with_repair`` called by a coordinator step
    rather than by candidate scoring) and the simulation's self time.
    """
    out: dict[str, int] = {}

    def add(key: str, value: int) -> None:
        out[key] = out.get(key, 0) + value

    child_ns = [0] * len(spans)
    patterns = set()
    for name, parent, start, end, work in spans:
        dur = end - start
        add(f"{name}.calls", 1)
        add(f"{name}.ns", dur)
        if parent >= 0:
            child_ns[parent] += dur
        if name == "sequencing.score_sequence":
            patterns.add(work)
        elif name == "idm.idm_accel":
            add("idm_vector_calls" if work else "idm_scalar_calls", 1)
        elif isinstance(work, int):
            add(f"{name}.work", work)
        if name == "tracking.solve_with_repair" and parent >= 0 \
                and spans[parent][0] == STEP:
            add("repairs", 1)
            add("repair_ns", dur)
    for index, (name, _, start, end, _) in enumerate(spans):
        if name == "simulation.run_scenario":
            add("simulation_self_ns", end - start - child_ns[index])
    out["distinct_patterns"] = len(patterns)
    return out

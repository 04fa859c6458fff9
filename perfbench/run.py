"""rampmerge benchmark: three control modes on one demand study.

    python3 perfbench/run.py --workload coordinated --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Every workload simulates the shipped
``configs/scenario1.yaml`` study with both demand phases shortened in
proportion to a 300 s window; only the control mode differs, so for one
seed all three see identical Poisson arrivals.  A run simulates
``WINDOWS`` windows, the first at ``--seed`` and the others at seeds
drawn from it, and runs the first window twice to check that exports
are byte-identical.  Each repetition is a fresh interpreter, one at a time,
with BLAS/OpenMP threads capped at the CPU count.  When that pass
finishes early, further passes run while they fit in ``--seconds``.
``--full`` runs one window of the whole 1,200 s study instead.

The windows are short because a full coordinated study takes about a
minute of host time on a 2 vCPU Xeon, and every run of the benchmark has
to fit a shared time budget.  ``BENCHMARK.json`` lists ``coordinated``
and ``uncontrolled``; ``metering`` runs the same way but is left out of
that list, since on a shared host a third workload could not get runs
long enough to average out the host's changing CPU speed.

With ``--trace 0`` the last line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the windows run under the span
tracer (``tracer.py``) and the object carries the per-layer metrics,
while the second copy of the first window runs untraced to measure the
tracing overhead.  A window that aborts with ``CollisionError`` counts
as failed: its reached time and host time still go into ``sim_speed``,
and it adds nothing to the modelled metrics.  A failed correctness check
is named on stdout and the command exits 1; a missing checkout exits 2
without a result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {"coordinated": "optimal", "uncontrolled": "none", "metering": "metering"}
WINDOWS = 4
WINDOW_S = 300.0
STUDY_S = 1200.0
CHILD_TIMEOUT_S = 900.0
ML_PER_GALLON = 3785.411784
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REQUIRED = ("src/rampmerge/cli.py", "src/rampmerge/simulation.py",
            "configs/scenario1.yaml")


def window_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2**31) for _ in range(count - 1)]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; NaN for no samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def run_repetition(root: Path, mode: str, seed: int, window_s: float,
                   out: Path, trace: bool, run_id: str) -> dict:
    result_path = out / "result.json"
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({name: threads for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "repetition.py"), "--root", str(root),
           "--mode", mode, "--seed", str(seed), "--window-s", repr(window_s),
           "--out", str(out), "--result", str(result_path),
           "--trace", str(int(trace)), "--run-id", run_id]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repetition {run_id} exceeded {CHILD_TIMEOUT_S:.0f} s")
    if code != 0:
        raise RuntimeError(f"repetition {run_id} exited with code {code}")
    rep = json.loads(result_path.read_text())
    rep["setup_s"] = rep["ready_monotonic"] - spawned
    rep["seed"] = seed
    rep["traced"] = trace
    return rep


def modelled(reps: list[dict]) -> dict:
    """Pooled traffic metrics over the distinct windows that completed."""
    first = {}
    for rep in reps:
        if rep["collision"] is None:
            first.setdefault(rep["seed"], rep)
    vmt = sum(r["vmt_miles"] for r in first.values())
    vht = sum(r["vht_hours"] for r in first.values())
    gallons = sum(r["fuel_ml"] for r in first.values()) / ML_PER_GALLON
    arrived = sum(r["counters"]["arrived"] for r in first.values())
    exited = sum(r["counters"]["exited"] for r in first.values())
    return {
        "q_mph": (vmt / vht if vht else 0.0, "mph"),
        "economy_mpg": (vmt / gallons if gallons else 0.0, "mpg"),
        "served_share": (exited / arrived if arrived else 0.0, "fraction"),
    }


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "sim_speed": (sum(r["sim_s"] for r in reps) / sum(r["host_s"] for r in reps),
                      "sim-s/host-s"),
        **modelled(reps),
    }


def latency_report(reps: list[dict]) -> dict:
    """Coordinator step latencies (ms), pooled over repetitions."""
    decision = [x for r in reps for x in r["decision_ms"]]
    control = [x for r in reps for x in r["control_ms"]]
    return {
        "decision_ms_p50": (percentile(decision, 50), len(decision)),
        "decision_ms_p80": (percentile(decision, 80), len(decision)),
        "control_ms_p50": (percentile(control, 50), len(control)),
        "control_ms_p99": (percentile(control, 99), len(control)),
    }


def per_layer(traced: list[dict], untraced_twin: dict | None) -> dict:
    """Per-layer metrics summed over the traced repetitions."""
    agg: Counter = Counter()
    for rep in traced:
        agg.update(rep["totals"])

    def n(name):
        return agg[f"{name}.calls"]

    def s(name):
        return agg[f"{name}.ns"] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(values, p):
        return percentile(values, p) if values else 0.0

    completed = [r for r in traced if r["collision"] is None]
    counters = Counter()
    for rep in completed:
        counters.update(rep["counters"])
    veh_steps = sum(r["veh_steps"] for r in completed)
    export_mb = sum(r["export_mb"] for r in completed)
    decision = [x for r in traced for x in r["decision_ms"]]
    control = [x for r in traced for x in r["control_ms"]]
    candidates = n("sequencing.score_sequence")
    overhead = 0.0
    if untraced_twin is not None and traced:
        overhead = traced[0]["host_s"] / untraced_twin["host_s"] - 1.0
    return {
        "sequencing.decide_s": (s("sequencing.optimal_sequence"), "s"),
        "sequencing.candidates": (candidates, "count"),
        "sequencing.score_s": (s("sequencing.score_sequence"), "s"),
        "sequencing.ms_per_candidate": (
            1e3 * ratio(s("sequencing.score_sequence"), candidates), "ms"),
        "sequencing.distinct_patterns": (agg["distinct_patterns"], "count"),
        "sequencing.pattern_reuse": (
            1.0 - agg["distinct_patterns"] / candidates if candidates else 0.0,
            "fraction"),
        "tracking.riccati_calls": (n("tracking.solve_finite_horizon"), "count"),
        "tracking.riccati_steps": (agg["tracking.solve_finite_horizon.work"], "count"),
        "tracking.riccati_s": (s("tracking.solve_finite_horizon"), "s"),
        "tracking.rollout_steps": (agg["tracking.rollout.work"], "count"),
        "tracking.rollout_s": (s("tracking.rollout"), "s"),
        "tracking.check_s": (s("tracking.check_constraints"), "s"),
        "tracking.first_try_ratio": (
            ratio(n("tracking.solve_with_repair"), n("tracking.solve_finite_horizon")),
            "fraction"),
        "tracking.gains_calls": (n("tracking.converged_gains"), "count"),
        "tracking.gains_s": (s("tracking.converged_gains"), "s"),
        "tracking.feedforward_s": (s("tracking.steady_state_feedforward"), "s"),
        "statespace.build_calls": (n("statespace.build_model"), "count"),
        "statespace.build_s": (s("statespace.build_model"), "s"),
        "fuel.integral_calls": (n("fuel.trajectory_fuel"), "count"),
        "fuel.integral_s": (s("fuel.trajectory_fuel"), "s"),
        "fuel.rate_calls": (n("fuel.fuel_rate"), "count"),
        "fuel.rate_s": (s("fuel.fuel_rate"), "s"),
        "coordinator.steps": (n("coordinator.MergeCoordinator.step"), "count"),
        "coordinator.cycles": (len(decision), "count"),
        "coordinator.decision_s": (sum(decision) / 1e3, "s"),
        "coordinator.control_s": (sum(control) / 1e3, "s"),
        "coordinator.decision_ms_p50": (pct(decision, 50), "ms"),
        "coordinator.decision_ms_p80": (pct(decision, 80), "ms"),
        "coordinator.control_ms_p50": (pct(control, 50), "ms"),
        "coordinator.control_ms_p99": (pct(control, 99), "ms"),
        "coordinator.repairs": (agg["repairs"], "count"),
        "coordinator.repair_s": (agg["repair_ns"] / 1e9, "s"),
        "coordinator.degraded_plans": (counters["degraded_plans"], "count"),
        "idm.eta_calls": (n("idm.predict_eta"), "count"),
        "idm.eta_s": (s("idm.predict_eta"), "s"),
        "idm.vector_calls": (agg["idm_vector_calls"], "count"),
        "idm.scalar_calls": (agg["idm_scalar_calls"], "count"),
        "idm.accel_s": (s("idm.idm_accel"), "s"),
        "simulation.run_s": (s("simulation.run_scenario"), "s"),
        "simulation.self_s": (agg["simulation_self_ns"] / 1e9, "s"),
        "simulation.veh_steps": (veh_steps, "count"),
        "simulation.veh_steps_per_s": (ratio(veh_steps, s("simulation.run_scenario")), "1/s"),
        "simulation.guard_interventions": (counters["envelope_interventions"], "count"),
        "simulation.forced_merges": (counters["forced_merges"], "count"),
        "simulation.meter_releases": (counters["meter_releases"], "count"),
        "cli.load_config_s": (s("cli.load_config"), "s"),
        "cli.export_s": (s("cli.export_trajectories"), "s"),
        "cli.export_mb": (export_mb, "MB"),
        "cli.export_mb_per_s": (ratio(export_mb, s("cli.export_trajectories")), "MB/s"),
        "process.peak_rss_mb": (untraced_twin["peak_rss_mb"] if untraced_twin else 0.0, "MB"),
        "trace.overhead": (overhead, "fraction"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rampmerge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="one window of the whole 1,200 s study")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"not a rampmerge checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    mode = WORKLOADS[args.workload]
    window_s, count = (STUDY_S, 1) if args.full else (WINDOW_S, WINDOWS)
    seeds = window_seeds(args.seed, count)
    out_root = root / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    print(f"workload {args.workload} (mode {mode}), seed {args.seed}, "
          f"{count} x {window_s:.0f} s windows at seeds {seeds}, trace {args.trace}")

    # the first window runs twice, back to back, to check determinism; in a
    # traced run the second copy runs untraced, which also prices the tracer
    # while the shared host's speed is least likely to have changed
    plan = [(s, bool(args.trace)) for s in seeds]
    plan.insert(1, (seeds[0], False))
    reps: list[dict] = []
    started = time.monotonic()
    try:
        while True:
            pass_start = time.monotonic()
            for seed, traced in plan:
                run_id = f"{args.workload}-{args.seed}-{len(reps)}"
                rep = run_repetition(root, mode, seed, window_s,
                                     out_root / f"rep{len(reps)}", traced, run_id)
                reps.append(rep)
                status = rep["collision"] or "ok"
                print(f"  rep {len(reps) - 1}: seed {seed} traced {int(traced)} "
                      f"host {rep['host_s']:.3f} s setup {rep['setup_s']:.3f} s "
                      f"rss {rep['peak_rss_mb']:.1f} MB: {status}", flush=True)
            elapsed = time.monotonic() - started
            if args.trace or elapsed + (time.monotonic() - pass_start) > args.seconds:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    first = reps[0]
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, "
          f"python {first['python']}, numpy {first['numpy']}")
    absent = sorted({name for r in reps for name in r["absent"]})
    if absent:
        print(f"absent functions (reported as zero): {', '.join(absent)}")

    failures = []
    ran = set()
    for i, rep in enumerate(reps):
        for check, ok in rep["checks"].items():
            ran.add(check)
            if not ok:
                failures.append(f"{check} (rep {i}, seed {rep['seed']})")
    digests: dict[int, set] = {}
    for rep in reps:
        digests.setdefault(rep["seed"], set()).add(rep["export_sha256"])
    for seed, found in digests.items():
        if len(found) > 1:
            failures.append(f"determinism (seed {seed}: exports differ between repetitions)")
    ran.add("determinism")
    for name in failures:
        print(f"CHECK FAILED: {name}")
    if not failures:
        print(f"checks passed: {', '.join(sorted(ran))}")

    failed = sum(1 for r in reps if r["collision"] is not None)
    untimed = [r for r in reps if not r["traced"]]
    print(f"peak_rss_mb {statistics.median(r['peak_rss_mb'] for r in untimed):.1f} MB "
          f"(median over {len(untimed)} untraced processes)")
    print(f"failed_share {failed / len(reps):.4f} fraction "
          f"({failed} of {len(reps)} repetitions aborted)")
    for name, (value, samples) in latency_report(untimed).items():
        shown = "n/a" if math.isnan(value) else f"{value:.4f} ms"
        print(f"{name} {shown} (n={samples})")

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = per_layer(traced, reps[1])
    else:
        metrics = end_to_end(reps)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

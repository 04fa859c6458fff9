"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

It takes the path of ``rampmerge run``: load ``configs/scenario1.yaml``,
shorten both demand phases in proportion to the requested window, call
``run_scenario``, then write the trajectory CSV and metrics JSON the way
the CLI does.  After the timed part it checks the outputs and writes one
JSON result file for the parent.

    python3 perfbench/repetition.py --root . --mode optimal --seed 1 \
        --window-s 300 --out perfbench/out/x --result r.json --trace 0
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _min_same_lane_gap(log, vehicle_length: float) -> float:
    """Smallest net gap between neighbours in one lane at one instant."""
    import numpy as np

    order = np.lexsort((-log["position"], log["lane"], log["t"]))
    t, lane, pos = log["t"][order], log["lane"][order], log["position"][order]
    same = (t[1:] == t[:-1]) & (lane[1:] == lane[:-1])
    gaps = pos[:-1][same] - pos[1:][same] - vehicle_length
    return float(gaps.min()) if gaps.size else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--window-s", required=True, type=float)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import rampmerge.cli as cli
    import rampmerge.simulation as sim
    from tracer import DECISION_FUNCTIONS, Tracer, step_latencies, totals

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"rampmerge imported from {cli.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2

    tracer = Tracer(args.run_id)
    if args.trace:
        tracer.install()
    else:
        tracer.install(DECISION_FUNCTIONS)

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"run_{args.mode}_seed{args.seed}"
    csv_path = args.out / f"{stem}_trajectories.csv"
    metrics_path = args.out / f"{stem}_metrics.json"

    # ---- timed: the run path of `rampmerge run`
    tic = time.perf_counter()
    config = cli.load_config(root / "configs" / "scenario1.yaml",
                             mode=args.mode, seed=args.seed)
    scale = args.window_s / config.total_duration
    config.phases = [replace(p, duration=p.duration * scale) for p in config.phases]
    ready = time.monotonic()
    collision = None
    try:
        result = sim.run_scenario(config)
    except sim.CollisionError as exc:
        collision = exc  # exported like `rampmerge run` does on exit code 3
        csv_path = args.out / f"{stem}_trajectories_partial.csv"
        log = exc.log if exc.log is not None else sim.TrajectoryLog().arrays()
        cli.export_trajectories(log, csv_path)
    else:
        log = result.log
        cli.export_trajectories(log, csv_path)
        metrics_path.write_text(
            json.dumps(asdict(result.metrics), indent=2, sort_keys=True) + "\n")
    host_s = time.perf_counter() - tic
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    decision_ms, control_ms = step_latencies(tracer.spans)
    out = {
        "ready_monotonic": ready,
        "host_s": host_s,
        "sim_s": config.total_duration if collision is None else collision.t,
        "peak_rss_mb": peak_rss_mb,
        "decision_ms": decision_ms,
        "control_ms": control_ms,
        "collision": None if collision is None else str(collision),
        "absent": tracer.absent,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "checks": {},
    }
    if args.trace:
        out["totals"] = totals(tracer.spans)
        tracer.write(args.out / "spans.jsonl")

    # ---- untimed: outputs and correctness checks
    gap = _min_same_lane_gap(log, config.vehicle_length)
    out["min_net_gap_m"] = gap
    out["checks"]["no_same_lane_overlap"] = gap > 0.0
    out["export_sha256"] = _sha256(csv_path)
    if collision is None:
        counters = result.counters
        overall = result.metrics.overall
        out.update(
            counters=asdict(counters),
            veh_steps=int(len(log["t"])),
            vmt_miles=overall.vmt_miles,
            vht_hours=overall.vht_hours,
            fuel_ml=overall.fuel_ml,
            export_mb=csv_path.stat().st_size / 1e6,
        )
        out["export_sha256"] += _sha256(metrics_path)
        reloaded = sim.compute_metrics(cli.load_trajectories(csv_path), config.dt)
        out["checks"]["conservation"] = (
            counters.spawned == counters.exited + result.final_vehicle_count
            and counters.spawned <= counters.arrived)
        out["checks"]["export_round_trip"] = reloaded == result.metrics
    csv_path.unlink()
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

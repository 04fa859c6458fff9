"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS line with the
measured margins (run with ``pytest -s`` to see them).  The scenario
matrix (two demand studies, three control modes, five seeds) is computed
once and shared by the criteria that consume it.
"""
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import interleaving_count, qp_control_sequence
from rampmerge.fuel import DEFAULT_COEFFICIENTS, fuel_rate, trajectory_fuel
from rampmerge.idm import IdmParams, equilibrium_gap, idm_accel
from rampmerge.sequencing import (
    ScoringContext,
    count_sequences,
    enumerate_sequences,
    optimal_sequence,
    score_sequences,
)
from rampmerge.simulation import (
    ControlMode,
    ramp_crossing_times,
    run_scenario,
)
from rampmerge.statespace import build_model
from rampmerge.tracking import (
    TrackerWeights,
    converged_gains,
    solve_finite_horizon_batch,
)
from rampmerge.vehicles import Lane, gap_floors
from rampmerge.cli import export_trajectories, load_config

SEEDS = (1, 2, 3, 4, 5)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SCENARIOS = {"scenario-1": CONFIGS / "scenario1.yaml", "scenario-2": CONFIGS / "scenario2.yaml"}
MODES = (ControlMode.OPTIMAL, ControlMode.METERING, ControlMode.NONE)
VEHICLE_LENGTH = 5.0


def _min_logged_net_gap(log) -> float:
    """Smallest same-lane, same-step net gap found in a trajectory log."""
    t, lane, pos = log["t"], log["lane"], log["position"]
    if t.size < 2:
        return math.inf
    order = np.lexsort((pos, lane, t))
    ts, ls, ps = t[order], lane[order], pos[order]
    same = (np.diff(ts) == 0.0) & (np.diff(ls) == 0)
    gaps = np.diff(ps)[same] - VEHICLE_LENGTH
    return float(gaps.min()) if gaps.size else math.inf


class MatrixRun:
    def __init__(self, metrics, wall, min_gap, crossings, export_sha, stalls):
        self.metrics = metrics
        self.wall = wall
        self.min_gap = min_gap
        self.crossings = crossings
        self.export_sha = export_sha
        self.stalls = stalls


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """All scenario runs, reduced on the fly so logs never accumulate."""
    out = {}
    tmp = tmp_path_factory.mktemp("acceptance")
    for scen_name, study in SCENARIOS.items():
        for mode in MODES:
            for seed in SEEDS:
                config = load_config(study, mode=mode, seed=seed)
                tic = time.perf_counter()
                result = run_scenario(config)
                wall = time.perf_counter() - tic
                crossings = None
                if mode is ControlMode.OPTIMAL:
                    crossings = ramp_crossing_times(
                        result.log, config.geometry.trigger_point)
                export_sha = None
                if mode is ControlMode.OPTIMAL and seed == SEEDS[0]:
                    path = export_trajectories(
                        result.log, tmp / f"{scen_name}_seed{seed}.csv")
                    export_sha = hashlib.sha256(path.read_bytes()).hexdigest()
                out[(scen_name, mode, seed)] = MatrixRun(
                    metrics=result.metrics,
                    wall=wall,
                    min_gap=_min_logged_net_gap(result.log),
                    crossings=crossings,
                    export_sha=export_sha,
                    stalls=result.counters.stalls,
                )
    return out


def test_criterion_1_tracker_matches_dense_qp():
    rng = np.random.default_rng(42)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        N = int(rng.choice([5, 10, 20]))
        model = build_model(n, dt=0.1)
        ny, nu, nx = model.output_dim, model.n, model.state_dim
        G = rng.normal(size=(ny, ny))
        H = rng.normal(size=(nu, nu))
        G_T = rng.normal(size=(ny, ny))
        weights = TrackerWeights(
            Q=G @ G.T,
            R=H @ H.T + 0.1 * np.eye(nu),
            Q_N=G_T @ G_T.T,
        )
        ref = rng.normal(scale=5.0, size=(N + 1, ny))
        x0 = rng.normal(scale=3.0, size=nx)
        [solution] = solve_finite_horizon_batch(model, [weights], ref[None])
        x = x0.copy()
        u_closed = np.empty((N, nu))
        for k in range(N):
            u_closed[k] = solution.control(k, x)
            x = model.A @ x + model.B @ u_closed[k]
        u_qp = qp_control_sequence(model, weights, ref, x0)
        worst = max(worst, float(np.max(np.abs(u_closed - u_qp))))
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"\nCRITERION 1: PASS — 50 instances, max |u_lq - u_qp| = "
          f"{worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_converged_gains_consistency():
    worst_gain = 0.0
    worst_asym = 0.0
    worst_eig = math.inf
    for n, lanes in ((1, (Lane.RAMP,)),
                     (2, (Lane.MAINLINE, Lane.RAMP)),
                     (3, (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE))):
        model = build_model(n, dt=0.1)
        weights = ScoringContext(control_weight=2.0).weights(lanes)
        K_inf, _ = converged_gains(model, weights)
        ny = model.output_dim
        ref = np.tile(np.linspace(20.0, 40.0, ny), (2001, 1))
        [solution] = solve_finite_horizon_batch(model, [weights], ref[None])
        worst_gain = max(worst_gain, float(np.max(np.abs(K_inf - solution.K[0]))))
        for S_i in solution.S:
            worst_asym = max(worst_asym, float(np.max(np.abs(S_i - S_i.T))))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(S_i).min()))
    assert worst_gain <= 1e-8
    assert worst_asym <= 1e-9
    assert worst_eig >= -1e-9
    print(f"\nCRITERION 2: PASS — |K_inf - K_0(N=2000)| = {worst_gain:.2e}, "
          f"asymmetry {worst_asym:.2e}, min eig {worst_eig:.2e}")


def test_criterion_3_sequence_enumeration_and_optimum():
    for m in range(7):
        for n in range(7):
            expected = interleaving_count(m, n)
            assert count_sequences(m, n) == expected
            assert expected == math.comb(m + n, n)
            if m + n == 0:
                continue
            seqs = enumerate_sequences(
                [100 + i for i in range(m)], [200 + i for i in range(n)],
                cap=1000)
            assert len(seqs) == expected
            assert len({s.ids for s in seqs}) == expected

    # independent re-scan: score every candidate again and pick the
    # minimum by the published selection rule
    ctx = ScoringContext(horizon=120, control_weight=2.0, desired_speed=30.0)
    # members 0, 1, 2 on the mainline, then 10, 11, 12 on the ramp
    positions = np.array([-40.0, -140.0, -240.0, -80.0, -180.0, -280.0])
    speeds = np.array([31.0] * 3 + [16.0] * 3)
    x0 = np.concatenate((positions, speeds))
    floors = gap_floors(speeds, speeds, ctx.limits)
    mainline_ids = [0, 1, 2]
    ramp_ids = [10, 11, 12]
    chosen = optimal_sequence(mainline_ids, ramp_ids, x0, floors, ctx)
    rescan = [score_sequences([s], x0, floors, ctx)[0]
              for s in enumerate_sequences(mainline_ids, ramp_ids, cap=ctx.cap)]
    feasible = [s for s in rescan if not s.result.degraded]
    pool = feasible if feasible else rescan
    best = min(pool, key=lambda s: (s.total_fuel, s.sequence.first_ramp_index,
                                    s.sequence.ids))
    assert chosen.sequence.ids == best.sequence.ids
    assert abs(chosen.total_fuel - best.total_fuel) <= 1e-9
    print(f"\nCRITERION 3: PASS — counts match C(M+N,N) for M,N <= 6; "
          f"optimum re-scan of {len(rescan)} candidates agrees "
          f"({chosen.total_fuel:.3f} mL)")


def test_criterion_4_fuel_model_properties():
    coeffs = DEFAULT_COEFFICIENTS
    assert fuel_rate(0.0, 0.0) == coeffs.b0

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        v = float(rng.uniform(0.0, 36.0))
        a = float(rng.uniform(-2.0, 2.0))
        steps = int(rng.integers(10, 400))
        dt = 0.1
        total = trajectory_fuel(np.full(steps, v), np.full(steps, a), dt, coeffs)
        expected = fuel_rate(v, a) * steps * dt
        if expected > 0.0:
            worst = max(worst, abs(total - expected) / expected)
    assert worst <= 1e-12

    grid_v = np.linspace(1.0, 40.0, 40)
    grid_a = np.linspace(0.0, 2.5, 26)
    rates = fuel_rate(grid_v[:, None], grid_a[None, :])
    assert np.all(np.diff(rates, axis=1) >= 0.0)
    print(f"\nCRITERION 4: PASS — idle rate exact, constant-profile "
          f"integral rel err {worst:.1e}, monotone in accel on "
          f"{grid_v.size}x{grid_a.size} grid")


def test_criterion_5_idm_equilibrium_and_platoon():
    params = IdmParams(v0=32.99)
    worst = 0.0
    for v in np.linspace(0.5, params.v0 - 0.5, 30):
        closed = equilibrium_gap(float(v), params)
        root = brentq(lambda s: idm_accel(float(v), s, 0.0, params),
                      1e-3, 1e5, xtol=1e-10)
        worst = max(worst, abs(closed - root))
    assert worst <= 1e-6

    # 50-vehicle platoon at 30 m/s equilibrium; leader slams to a stop
    n, dt, v_start = 50, 0.1, 30.0
    spacing = equilibrium_gap(v_start, params) + VEHICLE_LENGTH
    pos = -spacing * np.arange(n, dtype=float)
    v = np.full(n, v_start)
    min_gap = math.inf
    for _ in range(int(120.0 / dt)):
        acc = np.empty(n)
        acc[0] = -6.0 if v[0] > 0.0 else 0.0
        gaps = pos[:-1] - pos[1:] - VEHICLE_LENGTH
        acc[1:] = idm_accel(v[1:], gaps, v[1:] - v[:-1], params)
        acc = np.clip(acc, -6.0, params.a)
        v_next = np.clip(v + acc * dt, 0.0, None)
        pos = pos + 0.5 * (v + v_next) * dt
        v = v_next
        min_gap = min(min_gap, float((pos[:-1] - pos[1:]).min() - VEHICLE_LENGTH))
    assert min_gap > 0.0
    print(f"\nCRITERION 5: PASS — equilibrium closed form vs root "
          f"{worst:.1e} m; 50-vehicle hard-brake platoon min gap "
          f"{min_gap:.2f} m")


def test_criterion_6_suggested_inflow_compliance(matrix):
    window = 300.0
    worst_ratio = 0.0
    config = load_config(SCENARIOS["scenario-1"], mode="optimal", seed=SEEDS[0])
    durations = [p.duration for p in config.phases]
    rates = [p.suggested for p in config.phases]
    bounds = np.cumsum([0.0] + durations)
    total = bounds[-1]

    def allowed(t0, t1):
        veh = 0.0
        for i, rate in enumerate(rates):
            lo = max(t0, bounds[i])
            hi = min(t1, bounds[i + 1])
            if hi > lo:
                veh += rate * (hi - lo)
        return veh

    for seed in SEEDS:
        run = matrix[("scenario-1", ControlMode.OPTIMAL, seed)]
        times = run.crossings
        for w in np.arange(0.0, total - window + 0.5, 1.0):
            count = int(np.count_nonzero((times >= w) & (times < w + window)))
            cap = 1.05 * allowed(w, w + window)
            assert count <= cap, (
                f"seed {seed}: window [{w:.0f}, {w + window:.0f}) s saw "
                f"{count} ramp admissions, allowance {cap:.2f}")
            if cap > 0.0:
                worst_ratio = max(worst_ratio, count / cap)
    print(f"\nCRITERION 6: PASS — rolling 5-min ramp inflow <= +5% of "
          f"suggestion on all windows, 5 seeds; worst ratio "
          f"{worst_ratio:.3f} of allowance")


def test_criterion_7_directional_reproduction(matrix):
    lines = []
    for scen_name in SCENARIOS:
        mean = {}
        for mode in MODES:
            qs = [matrix[(scen_name, mode, s)].metrics.overall.q_mph
                  for s in SEEDS]
            mpgs = [matrix[(scen_name, mode, s)].metrics.overall.economy_mpg
                    for s in SEEDS]
            mean[mode] = (sum(qs) / len(qs), sum(mpgs) / len(mpgs))
        q_oc, e_oc = mean[ControlMode.OPTIMAL]
        q_rm, e_rm = mean[ControlMode.METERING]
        q_nc, e_nc = mean[ControlMode.NONE]
        assert q_oc > q_rm > q_nc, (scen_name, q_oc, q_rm, q_nc)
        assert e_oc > e_rm and e_oc > e_nc, (scen_name, e_oc, e_rm, e_nc)
        if scen_name == "scenario-1":
            assert q_oc >= 1.5 * q_nc, (q_oc, q_nc)
        lines.append(
            f"{scen_name}: Q {q_oc:.1f}/{q_rm:.1f}/{q_nc:.1f} mph, "
            f"economy {e_oc:.1f}/{e_rm:.1f}/{e_nc:.1f} mpg "
            f"(coordinated/metered/uncontrolled)")
    walls = [run.wall for run in matrix.values()]
    assert max(walls) < 60.0
    print(f"\nCRITERION 7: PASS — {'; '.join(lines)}; "
          f"slowest run {max(walls):.1f} s")


def test_criterion_8_no_gap_violations(matrix):
    worst = min(run.min_gap for run in matrix.values())
    assert worst > 0.0
    print(f"\nCRITERION 8: PASS — smallest same-lane net gap across all "
          f"{len(matrix)} runs: {worst:.3f} m")


def test_criterion_9_deterministic_exports(matrix, tmp_path):
    for scen_name, study in SCENARIOS.items():
        reference_sha = matrix[(scen_name, ControlMode.OPTIMAL,
                                SEEDS[0])].export_sha
        result = run_scenario(load_config(study, mode="optimal", seed=SEEDS[0]))
        path = export_trajectories(result.log, tmp_path / f"{scen_name}.csv")
        again_sha = hashlib.sha256(path.read_bytes()).hexdigest()
        assert again_sha == reference_sha, scen_name
    print("\nCRITERION 9: PASS — repeated (config, seed) runs export "
          "byte-identical trajectories for both studies")


def test_criterion_10_no_stalls(matrix):
    stalled = {key: run.stalls for key, run in matrix.items() if run.stalls}
    assert not stalled, stalled
    print(f"\nCRITERION 10: PASS — no mainline string member stands with "
          f"its lane clear ahead in any of the {len(matrix)} runs")

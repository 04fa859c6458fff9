import itertools
from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg

from oracles import qp_control_sequence, riccati_recursion, settled_by_loop
from rampmerge import tracking
from rampmerge.sequencing import ScoringContext, StringProblem
from rampmerge.statespace import build_model
from rampmerge.tracking import (
    TrackerWeights,
    active_pairs,
    build_reference,
    check_constraints,
    converged_gains,
    cross_lane,
    extend_tables,
    rollout_batch,
    solve_finite_horizon_batch,
    steady_state_feedforward,
)
from rampmerge.vehicles import ControlLimits, Lane

LIMITS = ControlLimits()


def unit_weights(ny, n):
    return TrackerWeights(Q=np.eye(ny), R=np.eye(n), Q_N=np.eye(ny))


class TestHandWorkedSingleStep:
    """One vehicle, one step, dt = 1: every recursion product by hand."""

    def setup_method(self):
        self.model = build_model(1, 1.0)
        self.weights = unit_weights(1, 1)
        self.sol = solve_finite_horizon_batch(
            self.model, [self.weights], np.full((1, 2, 1), 8.0)
        )[0]

    def test_terminal_quadratic_term(self):
        assert np.allclose(self.sol.S[1], [[0.0, 0.0], [0.0, 1.0]])

    def test_terminal_linear_term(self):
        assert np.allclose(self.sol.V[1], [0.0, 8.0])

    def test_gains(self):
        assert np.allclose(self.sol.K[0], [[0.0, 0.5]])
        assert np.allclose(self.sol.Ky[0], [[0.25, 0.5]])

    def test_initial_quadratic_term(self):
        assert np.allclose(self.sol.S[0], [[0.0, 0.0], [0.0, 1.5]])

    def test_control_halves_speed_error(self):
        u = self.sol.control(0, np.array([0.0, 10.0]))
        assert u[0] == pytest.approx(-1.0)
        u = self.sol.control(0, np.array([123.0, 6.0]))
        assert u[0] == pytest.approx(1.0)


class TestAgainstDenseQp:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3):
            for N in (3, 8, 14):
                model = build_model(n, 0.1)
                ny = model.output_dim
                weights = TrackerWeights(
                    Q=np.diag(rng.uniform(0.2, 3.0, ny)),
                    R=np.diag(rng.uniform(0.2, 3.0, n)),
                    Q_N=np.diag(rng.uniform(1.0, 20.0, ny)),
                )
                ref = rng.normal(10.0, 5.0, (N + 1, ny))
                x0 = rng.normal(0.0, 20.0, 2 * n)
                [sol] = solve_finite_horizon_batch(model, [weights], ref[None])
                u = rollout_batch(model, [sol], x0[None]).u[0]
                u_qp = qp_control_sequence(model, weights, ref, x0)
                assert np.max(np.abs(u - u_qp)) < 1e-8

    def test_string_instance_tight_tolerance(self):
        model = build_model(3, 0.1)
        weights = ScoringContext().weights((Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE))
        ref = np.tile(build_reference(np.array([30.0, 30.0]), 30.0, 1.2, 5.0), (13, 1))
        x0 = np.array([0.0, -42.0, -80.0, 29.0, 31.0, 30.0])
        [sol] = solve_finite_horizon_batch(model, [weights], ref[None])
        u = rollout_batch(model, [sol], x0[None]).u[0]
        u_qp = qp_control_sequence(model, weights, ref, x0)
        assert np.max(np.abs(u - u_qp)) < 1e-10


class TestRecursionProperties:
    def setup_method(self):
        self.model = build_model(4, 0.1)
        self.weights = ScoringContext().weights(
            (Lane.MAINLINE, Lane.MAINLINE, Lane.RAMP, Lane.RAMP)
        )
        ref = np.tile(build_reference(np.full(3, 30.0), 32.99, 1.2, 5.0), (81, 1))
        [self.sol] = solve_finite_horizon_batch(self.model, [self.weights], ref[None])

    def test_cost_to_go_symmetric(self):
        for k in range(0, 81, 8):
            assert np.allclose(self.sol.S[k], self.sol.S[k].T, atol=1e-12)

    def test_cost_to_go_psd(self):
        for k in range(0, 81, 8):
            assert np.min(np.linalg.eigvalsh(self.sol.S[k])) > -1e-9

    def test_control_linear_in_state_and_reference(self):
        model = build_model(2, 0.1)
        weights = ScoringContext().weights((Lane.MAINLINE, Lane.RAMP))
        r = np.array([40.0, 30.0, 30.0])
        x0 = np.array([0.0, -60.0, 25.0, 32.0])
        sol1 = solve_finite_horizon_batch(model, [weights], np.tile(r, (1, 51, 1)))
        sol2 = solve_finite_horizon_batch(model, [weights], np.tile(2 * r, (1, 51, 1)))
        u1 = rollout_batch(model, sol1, x0[None]).u[0]
        u2 = rollout_batch(model, sol2, 2 * x0[None]).u[0]
        assert np.allclose(u2, 2 * u1, atol=1e-9)

    def test_expensive_control_goes_quiet(self):
        model = build_model(2, 0.1)
        r = np.array([40.0, 30.0, 30.0])
        x0 = np.array([0.0, -70.0, 26.0, 33.0])
        cheap = ScoringContext(control_weight=1.0).weights((Lane.MAINLINE, Lane.RAMP))
        dear = ScoringContext(control_weight=1e6).weights((Lane.MAINLINE, Lane.RAMP))
        ref = np.tile(r, (1, 101, 1))
        u_cheap = rollout_batch(
            model, solve_finite_horizon_batch(model, [cheap], ref), x0[None]).u[0]
        u_dear = rollout_batch(
            model, solve_finite_horizon_batch(model, [dear], ref), x0[None]).u[0]
        assert np.max(np.abs(u_dear)) < 1e-3 * np.max(np.abs(u_cheap))

    def test_horizon_validation(self):
        # one row is the terminal step alone: horizon 0, refused before the
        # table lookup could read it as a full-table slice
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            solve_finite_horizon_batch(self.model, [self.weights], np.ones((1, 1, 7)))

    def test_reference_width_must_match_the_model(self):
        r = np.tile(build_reference(np.array([30.0]), 30.0, 1.2, 5.0), (11, 1))
        with pytest.raises(ValueError, match=r"\(1, 11, 3\).*\(5,\)"):
            solve_finite_horizon_batch(build_model(3, 0.1), [unit_weights(5, 3)], r[None])


def test_closed_loop_reaches_constant_reference():
    model = build_model(3, 0.1)
    weights = ScoringContext(control_weight=1.0).weights(
        (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE))
    r_vec = build_reference(np.array([30.0, 30.0]), 30.0, 1.2, 5.0)
    x0 = np.array([0.0, -30.0, -75.0, 26.0, 33.0, 28.0])
    sol = solve_finite_horizon_batch(model, [weights], np.tile(r_vec, (1, 601, 1)))
    traj = rollout_batch(model, sol, x0[None])
    err = model.C @ traj.x[0, -1] - r_vec
    assert np.max(np.abs(err)) < 1e-3
    # and the inputs die out once the string is formed
    assert np.max(np.abs(traj.u[0, -50:])) < 1e-3


class TestSharedRiccatiTable:
    """The time-to-go table reproduces the per-horizon recursion bit for bit."""

    PATTERNS = (
        (Lane.RAMP,),
        (Lane.MAINLINE, Lane.RAMP),
        (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE),
        (Lane.RAMP, Lane.MAINLINE, Lane.MAINLINE, Lane.RAMP),
    )

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(tracking, "_riccati_tables", OrderedDict())

    @staticmethod
    def problem(lanes, N):
        n = len(lanes)
        r_vec = build_reference(np.full(n - 1, 12.0), 30.0, 1.2, 5.0)
        return (build_model(n, 0.1), ScoringContext(control_weight=100.0).weights(lanes),
                np.tile(r_vec, (N + 1, 1)))

    def assert_bitwise(self, lanes, horizons):
        for N in horizons:
            model, weights, ref = self.problem(lanes, N)
            [sol] = solve_finite_horizon_batch(model, [weights], ref[None])
            for got, want in zip((sol.K, sol.Ky, sol.S, sol.V),
                                 riccati_recursion(model, weights, ref)):
                assert got.shape == want.shape
                assert np.array_equal(got, want), (lanes, N)

    @pytest.mark.parametrize("lanes", PATTERNS, ids=lambda p: f"n{len(p)}")
    def test_growing_then_shorter_horizons(self, lanes):
        self.assert_bitwise(lanes, (300, 450, 1200, 300))

    @pytest.mark.parametrize("lanes", PATTERNS, ids=lambda p: f"n{len(p)}")
    def test_decreasing_horizons(self, lanes):
        self.assert_bitwise(lanes, (1200, 450, 300))

    def test_evicted_table_rebuilds_exactly(self, monkeypatch):
        monkeypatch.setattr(tracking, "RICCATI_CACHE_BYTES", 0)
        for lanes in self.PATTERNS[1:3]:
            self.assert_bitwise(lanes, (300, 450))
        assert len(tracking._riccati_tables) == 1

    def test_stacked_fill_matches_the_oracle(self):
        # three 3-vehicle tables enter at different fill levels and stack;
        # the first fills once though passed twice
        patterns = (
            self.PATTERNS[2],
            (Lane.RAMP, Lane.MAINLINE, Lane.MAINLINE),
            (Lane.MAINLINE, Lane.MAINLINE, Lane.RAMP),
        )
        tables = []
        for lanes, filled in zip(patterns, (0, 120, 250)):
            model, weights, _ = self.problem(lanes, 1)
            table = tracking.RiccatiTable(model, weights)
            extend_tables(model, [table], filled)
            tables.append(table)
        extend_tables(model, tables + tables[:1], 300)
        for lanes, table in zip(patterns, tables):
            K, Ky, S, _ = riccati_recursion(*self.problem(lanes, 300))
            assert table.size == 300
            assert np.array_equal(table.K, K[::-1]), lanes
            assert np.array_equal(table.Ky, Ky[::-1]), lanes
            assert np.array_equal(table.S, S[::-1]), lanes

    def test_tables_of_two_string_sizes_are_refused(self):
        tables = [tracking.RiccatiTable(*self.problem(lanes, 1)[:2])
                  for lanes in self.PATTERNS[1:3]]
        for n in (2, 3):
            with pytest.raises(ValueError, match="state size"):
                extend_tables(build_model(n, 0.1), tables, 10)
        assert [t.size for t in tables] == [0, 0]

    def test_request_keeps_its_own_tables(self, monkeypatch):
        monkeypatch.setattr(tracking, "RICCATI_CACHE_BYTES", 0)
        ctx = ScoringContext(control_weight=100.0)
        model = build_model(3, 0.1)
        weights = [ctx.weights(lanes) for lanes in (
            self.PATTERNS[2], (Lane.RAMP, Lane.MAINLINE, Lane.MAINLINE))]
        tables = tracking._riccati_tables_for(model, weights + weights[:1], 300)
        assert tables[0] is tables[2] and tables[0] is not tables[1]
        assert [t.size for t in tables] == [300] * 3
        assert list(tracking._riccati_tables.values()) == tables[:2]
        # the next request makes room for its own
        [table] = tracking._riccati_tables_for(model, weights[1:], 450)
        assert list(tracking._riccati_tables.values()) == [table] == tables[1:2]
        assert table.size == 450

    def test_solution_is_read_only(self):
        model = build_model(2, 0.1)
        weights = ScoringContext().weights(self.PATTERNS[1])
        [sol] = solve_finite_horizon_batch(
            model, [weights], np.tile(np.array([40.0, 30.0, 30.0]), (1, 21, 1))
        )
        with pytest.raises(ValueError):
            sol.K[0, 0, 0] = 1.0
        sol.V[0, 0] = 1.0  # the reference-dependent term is the caller's own


class TestTimeBlocks:
    """Flushing the fill and gathering gains in time blocks changes no number."""

    N = 150  # a multiple of neither 7 nor 64
    PATTERNS = (
        (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE),
        (Lane.RAMP, Lane.MAINLINE, Lane.MAINLINE),
        (Lane.MAINLINE, Lane.MAINLINE, Lane.RAMP),
    )

    def solve_and_roll_out(self, monkeypatch, block):
        monkeypatch.setattr(tracking, "_riccati_tables", OrderedDict())
        monkeypatch.setattr(tracking, "TIME_BLOCK", block)
        model = build_model(3, 0.1)
        weights = [ScoringContext(control_weight=100.0).weights(p) for p in self.PATTERNS]
        # the tables enter the stacked fill at different levels
        for w, filled in zip(weights[1:], (20, 45)):
            solve_finite_horizon_batch(model, [w], np.zeros((1, filled + 1, 5)))
        # references that move with time, so each step's forcing is its own
        drift = np.linspace(0.0, 6.0, self.N + 1)[:, None]
        r = np.stack([build_reference(np.full(2, floor), 30.0, 1.2, 5.0) + drift
                      for floor in (12.0, 30.0, 45.0)])
        solutions = solve_finite_horizon_batch(model, weights, r)
        # tight gaps and a slow ramp vehicle saturate the inputs
        x0 = np.array([[0.0, -10.0, -30.0, 30.0, 12.0, 25.0]] * 3)
        return solutions, rollout_batch(model, solutions, x0, LIMITS)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_match_one_block(self, monkeypatch, block):
        want, want_traj = self.solve_and_roll_out(monkeypatch, self.N)
        got, got_traj = self.solve_and_roll_out(monkeypatch, block)
        assert np.max(want_traj.u) == LIMITS.acc_max
        for a, b in zip(got, want):
            for name in ("K", "Ky", "S", "V"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(got_traj.x, want_traj.x)
        assert np.array_equal(got_traj.u, want_traj.u)


class TestConvergedGains:
    def setup_method(self):
        self.model = build_model(3, 0.1)
        self.weights = ScoringContext(control_weight=1.0).weights(
            (Lane.MAINLINE, Lane.RAMP, Lane.RAMP))

    def test_matches_algebraic_riccati_solution(self):
        # The tracked outputs evolve linearly on their own (gaps and speeds
        # close under the dynamics), and that reduced system is controllable
        # with a positive-definite state cost, so scipy's algebraic Riccati
        # solver applies; its gain lifts back through the output map.
        K, Ky = converged_gains(self.model, self.weights)
        n, dt, C = self.model.n, self.model.dt, self.model.C
        D = np.zeros((n - 1, n))
        for i in range(n - 1):
            D[i, i], D[i, i + 1] = 1.0, -1.0
        Ay = np.block([
            [np.eye(n - 1), dt * D],
            [np.zeros((n, n - 1)), np.eye(n)],
        ])
        By = np.vstack([0.5 * dt * dt * D, dt * np.eye(n)])
        assert np.allclose(C @ self.model.A, Ay @ C)
        assert np.allclose(C @ self.model.B, By)
        P = scipy.linalg.solve_discrete_are(Ay, By, self.weights.Q, self.weights.R)
        K_red = np.linalg.solve(
            self.weights.R + By.T @ P @ By, By.T @ P @ Ay
        )
        assert np.max(np.abs(K - K_red @ C)) < 1e-8

    def test_matches_long_horizon_initial_gain(self):
        K, Ky = converged_gains(self.model, self.weights)
        r_vec = build_reference(np.array([30.0, 30.0]), 30.0, 1.2, 5.0)
        [sol] = solve_finite_horizon_batch(
            self.model, [self.weights], np.tile(r_vec, (1, 2001, 1)))
        assert np.max(np.abs(sol.K[0] - K)) < 1e-8
        assert np.max(np.abs(sol.Ky[0] - Ky)) < 1e-8

    def test_iteration_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(tracking, "GAIN_MAX_ITER", 3)
        with pytest.raises(RuntimeError, match="within 3 steps"):
            converged_gains(self.model, self.weights)

    @pytest.mark.parametrize("control_weight", [1.0, 100.0])
    @pytest.mark.parametrize("lanes", [
        lanes for n in range(1, 8)
        for lanes in itertools.product((Lane.MAINLINE, Lane.RAMP), repeat=n)
    ], ids=lambda lanes: "".join(str(lane.code) for lane in lanes))
    def test_steady_feedforward_fixed_point(self, lanes, control_weight):
        n = len(lanes)
        model = build_model(n, 0.1)
        weights = ScoringContext(control_weight=control_weight).weights(lanes)
        K, _ = converged_gains(model, weights)
        rng = np.random.default_rng(n)
        r_vec = build_reference(rng.uniform(2.0, 40.0, n - 1), rng.uniform(10.0, 33.0), 1.2, 5.0)
        V = steady_state_feedforward(model, weights, K, r_vec)
        Acl = model.A - model.B @ K
        residual = Acl.T @ V + model.C.T @ (weights.Q @ r_vec) - V
        assert np.max(np.abs(residual)) < 1e-8
        # a uniform translation of the string is a neutral mode the
        # outputs never see, so the costate carries none of it
        translation = np.concatenate([np.ones(n), np.zeros(n)])
        assert abs(translation @ V) <= 1e-12 * np.max(np.abs(V))

    def test_receding_horizon_loop_tracks_constant_reference(self):
        K, Ky = converged_gains(self.model, self.weights)
        r_vec = np.array([40.0, 36.0, 30.0, 30.0, 30.0])
        V = steady_state_feedforward(self.model, self.weights, K, r_vec)
        x = np.array([0.0, -50.0, -95.0, 27.0, 32.0, 29.0])
        for _ in range(4000):
            u = -K @ x + Ky @ V
            x = self.model.A @ x + self.model.B @ u
        assert np.max(np.abs(self.model.C @ x - r_vec)) < 1e-6


class TestConvergedLaw:
    LANES = (Lane.MAINLINE, Lane.RAMP, Lane.RAMP)

    def test_gains_solved_once_per_model_and_weights(self, monkeypatch):
        monkeypatch.setattr(tracking, "_converged_gains", {})
        solved = []

        def spy(model, weights):
            solved.append(weights)
            return converged_gains(model, weights)

        monkeypatch.setattr(tracking, "converged_gains", spy)
        ctx = ScoringContext()
        model, weights = build_model(3, ctx.dt), ctx.weights(self.LANES)
        r_a = build_reference(np.array([10.0, 20.0]), 30.0, 1.2, 5.0)
        r_b = build_reference(np.array([5.0, 40.0]), 25.0, 1.2, 5.0)
        first = tracking.converged_law(model, weights, r_a)
        # an equal model and weights, built anew, and another reference
        again = tracking.converged_law(build_model(3, ctx.dt), ctx.weights(self.LANES), r_b)
        assert solved == [weights]
        assert again.K is first.K and again.Ky is first.Ky
        K, Ky = converged_gains(model, weights)
        assert np.array_equal(first.K, K) and np.array_equal(first.Ky, Ky)
        for law, r_vec in ((first, r_a), (again, r_b)):
            assert np.array_equal(law.V, steady_state_feedforward(model, weights, K, r_vec))
        tracking.converged_law(model, ctx.weights(self.LANES[::-1]), r_a)
        assert len(solved) == 2

    def test_control_weight_keys_the_gains(self, monkeypatch):
        # two policies that differ only in control weight, asked for the
        # same lanes one after the other, each get their own gains
        monkeypatch.setattr(tracking, "_converged_gains", {})
        model = build_model(3, 0.1)
        for weight in (1.0, 100.0):
            ctx = ScoringContext(control_weight=weight)
            law = ctx.law(ctx.problem(self.LANES, np.full(2, 10.0), np.zeros(6)))
            K, Ky = converged_gains(model, ctx.weights(self.LANES))
            assert np.array_equal(law.K, K) and np.array_equal(law.Ky, Ky)
        assert len(tracking._converged_gains) == 2


class TestRollout:
    def test_clipping_flagged_and_applied(self):
        model = build_model(2, 0.1)
        weights = ScoringContext().weights((Lane.MAINLINE, Lane.RAMP))
        # enormous initial gap error forces commands past the actuator range
        r_vec = build_reference(np.array([30.0]), 30.0, 1.2, 5.0)
        x0 = np.array([0.0, -400.0, 30.0, 30.0])
        sol = solve_finite_horizon_batch(model, [weights], np.tile(r_vec, (1, 121, 1)))
        u = rollout_batch(model, sol, x0[None], LIMITS).u
        assert np.max(u) == LIMITS.acc_max  # saturated, not exceeded
        assert np.min(u) >= LIMITS.acc_min

    def test_unclipped_when_no_limits(self):
        model = build_model(1, 0.1)
        [sol] = solve_finite_horizon_batch(
            model, [unit_weights(1, 1)], np.full((1, 21, 1), 5.0)
        )
        traj = rollout_batch(model, [sol], np.array([[0.0, 30.0]]))
        for k in range(sol.horizon):
            assert np.array_equal(traj.u[0, k], sol.control(k, traj.x[0, k]))

    def test_bad_state_shape(self):
        model = build_model(2, 0.1)
        sol = solve_finite_horizon_batch(
            model, [unit_weights(3, 2)], np.zeros((1, 6, 3))
        )
        with pytest.raises(ValueError, match=r"x0 must have shape \(1, 4\)"):
            rollout_batch(model, sol, np.zeros((1, 3)))


def _gap_trajectory(gaps, floor, cross_lane=False, follower_positions=None,
                    activation_line=-50.0):
    """Whether a hand-built 2-vehicle string with this net-gap profile ends
    short of its floor."""
    steps = len(gaps)
    positions = np.zeros((1, steps, 2))
    if follower_positions is None:
        positions[0, :, 0] = 100.0
        positions[0, :, 1] = 100.0 - 5.0 - np.asarray(gaps, dtype=float)
    else:
        positions[0, :, 1] = follower_positions
        positions[0, :, 0] = positions[0, :, 1] + 5.0 + np.asarray(gaps, dtype=float)
    short = check_constraints(
        positions, np.array([[floor]]), np.array([[cross_lane]]), 5.0, 0.1,
        activation_line=activation_line,
    )
    assert short.shape == (1,)
    return bool(short[0])


class TestActivePairs:
    def test_same_lane_always_cross_lane_from_the_margin(self):
        cross = cross_lane((Lane.MAINLINE, Lane.MAINLINE, Lane.RAMP))
        assert cross.tolist() == [False, True]
        edge = -50.0
        positions = np.array([
            [0.0, -900.0, -900.0],
            [0.0, -900.0, edge],
            [0.0, -900.0, np.nextafter(edge, -np.inf)],
        ])
        floors = np.zeros(2)
        got, _ = active_pairs(positions, floors, cross, 5.0, activation_line=edge)
        assert got.tolist() == [[True, False], [True, True], [True, False]]
        assert active_pairs(positions[1], floors, cross, 5.0, edge)[0].tolist() == [True, True]

    def test_net_gap_at_the_floor_is_not_short(self):
        # net gaps (position difference less the 5 m vehicle) against a
        # 10 m floor: exactly 10, half a meter under it, exactly 10 on a
        # cross-lane pair whose follower sits on the activation line, and
        # -4 on a cross-lane pair upstream of it, which does not apply
        positions = np.array([
            [0.0, -15.0],
            [0.0, -14.5],
            [-35.0, -50.0],
            [-100.0, -101.0],
        ])
        cross = np.array([[False], [False], [True], [True]])
        active, short = active_pairs(positions, np.full((4, 1), 10.0), cross, 5.0, -50.0)
        assert active.tolist() == [[True], [True], [True], [False]]
        assert short.tolist() == [[False], [True], [False], [False]]


class TestConstraintChecks:
    def test_forming_pair_is_not_punished(self):
        gaps = [1.0, 3.0, 10.0, 12.0] + [15.0] * 10
        assert not _gap_trajectory(gaps, 10.0)

    def test_dip_inside_settle_window_is_a_violation(self):
        gaps = [1.0, 3.0, 10.0, 8.0] + [15.0] * 8
        assert _gap_trajectory(gaps, 10.0)
        # two more settled steps push the dip out of the 10-step window
        assert not _gap_trajectory(gaps + [15.0] * 2, 10.0)

    def test_transient_dip_before_settle_window_is_forgiven(self):
        gaps = [50.0, 3.0] + [50.0] * 10
        assert not _gap_trajectory(gaps, 10.0)

    def test_never_forming_reports_final_step(self):
        assert _gap_trajectory([1.0, 2.0, 3.0, 4.0, 5.0], 10.0)

    def test_cross_lane_pair_ignored_far_upstream(self):
        assert not _gap_trajectory(
            [1.0, 1.0, 1.0, 20.0, 20.0, 20.0], 10.0, cross_lane=True,
            follower_positions=[-200.0, -150.0, -100.0, -49.0, -10.0, 5.0],
        )

    def test_cross_lane_pair_checked_near_merge(self):
        assert _gap_trajectory(
            [1.0, 2.0, 3.0], 10.0, cross_lane=True,
            follower_positions=[-49.0, -40.0, -30.0],
        )

    def test_spec_count_validated(self):
        positions = np.zeros((1, 2, 3))
        with pytest.raises(ValueError):
            check_constraints(
                positions, np.array([[10.0]]), np.array([[False]]), 5.0, 0.1, -50.0)
        with pytest.raises(ValueError):
            check_constraints(
                positions, np.full((1, 2), 10.0), np.array([[False]]), 5.0, 0.1, -50.0)

    def test_stacked_check_matches_the_per_pair_loop(self):
        """Random strings against the per-pair loop, checked as stacks.

        Positions wander back and forth, cross-lane followers sit exactly
        on the activation line or hop across it (so the
        active steps need not be contiguous), some gaps sit within or just
        past the millimeter of slack, and the settle window is often
        longer than the plan.
        """
        rng = np.random.default_rng(7)
        edge = -50.0
        checked = short_seen = 0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            steps = int(rng.integers(1, 25))
            G = int(rng.integers(1, 12))
            dt = float(rng.choice([0.05, 0.1, 0.5]))
            floors = rng.uniform(2.0, 20.0, (G, n - 1))
            lanes = [tuple(Lane.RAMP if r else Lane.MAINLINE for r in rng.integers(0, 2, n))
                     for _ in range(G)]
            gaps = floors[:, None] + rng.normal(0.5, 3.0, (G, steps, n - 1))
            # some gaps just inside and just outside the millimeter of slack
            near = rng.random(gaps.shape) < 0.2
            slack = rng.choice([0.5e-3, 2e-3], gaps.shape)
            gaps = np.where(near, floors[:, None] - slack, gaps)
            positions = np.empty((G, steps, n))
            positions[..., -1] = edge + rng.normal(0.0, 20.0, (G, steps))
            on_edge = rng.random((G, steps)) < 0.3
            positions[..., -1][on_edge] = edge
            for i in range(n - 2, -1, -1):
                positions[..., i] = positions[..., i + 1] + 5.0 + gaps[..., i]
            # put some followers of inner pairs on the activation edge too
            i = int(rng.integers(1, n))
            positions[:, ::2, i] = edge
            cross = np.stack([cross_lane(ln) for ln in lanes])
            short = check_constraints(
                positions, floors, cross, 5.0, dt, activation_line=edge,
            )
            for g in range(G):
                settled = settled_by_loop(
                    positions[g], floors[g], lanes[g], 5.0, dt, activation_line=edge,
                )
                assert short[g] == (not settled), (g, positions[g], floors[g], lanes[g])
                checked += 1
                short_seen += int(short[g])
        assert 0 < short_seen < checked


class TestRepair:
    def _setup(self, follower_pos, floor, **kwargs):
        ctx = ScoringContext(limits=LIMITS, vehicle_length=5.0, **kwargs)
        lanes = (Lane.MAINLINE, Lane.MAINLINE)
        r_vec = build_reference(np.array([floor]), 15.0, 1.2, 5.0)
        x0 = np.array([0.0, follower_pos, 15.0, 15.0])
        problem = StringProblem(ctx.weights(lanes), r_vec, x0, np.array([floor]), lanes)
        return ctx.solve_batch([problem])[0]

    def test_benign_instance_keeps_requested_horizon(self):
        # follower starts a half meter off the settle point
        result = self._setup(follower_pos=-36.0, floor=30.0, horizon=30)
        assert result.solution.horizon == 30
        assert not result.degraded

    def test_tight_gap_grows_horizon_until_clean(self):
        # opening 35 m of spacing takes ~7 s at the actuation limits,
        # far more than the 3 s first attempt
        result = self._setup(follower_pos=-10.0, floor=40.0, horizon=30)
        assert result.solution.horizon > 30
        assert not result.degraded

    @pytest.mark.parametrize("growth", [1.0, 0.5])
    def test_growth_must_lengthen_the_horizon(self, growth):
        with pytest.raises(ValueError, match="growth"):
            self._setup(follower_pos=-10.0, floor=40.0, horizon=30, horizon_growth=growth)

    def test_scoring_context_rejects_stalled_growth(self):
        ScoringContext().validate()
        with pytest.raises(ValueError, match="horizon_growth"):
            ScoringContext(horizon_growth=1.0).validate()

    def test_unreachable_spec_degrades_at_cap(self):
        result = self._setup(
            follower_pos=-10.0, floor=5000.0, horizon=30, max_horizon=60
        )
        assert result.degraded
        assert result.solution.horizon == 60
        # the fallback stays executable: applied inputs are clipped
        assert np.max(result.trajectory.u) <= LIMITS.acc_max + 1e-12
        assert np.min(result.trajectory.u) >= LIMITS.acc_min - 1e-12


class TestReferenceConstruction:
    def test_gap_floor_dominates_when_large(self):
        r_vec = build_reference(np.array([50.0, 20.0]), 32.99, 1.2, 5.0)
        # padded floor for the tight pair, headway gap for the loose one
        assert r_vec[0] == pytest.approx(55.5)
        assert r_vec[1] == pytest.approx(5.0 + 1.2 * 32.99)
        assert np.allclose(r_vec[2:], 32.99)

    def test_settle_point_strictly_above_floor(self):
        r_vec = build_reference(np.array([45.0]), 32.99, 1.2, 5.0)
        assert r_vec[0] - 5.0 > 45.0 + 0.4


class TestWeights:
    def test_lane_weighting_layout(self):
        w = ScoringContext(control_weight=1.0).weights(
            (Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE))
        d = np.diag(w.Q)
        # gap rows weighted by follower lane, speed rows by own lane
        assert np.allclose(d[:2], [2.0, 1.0])
        assert np.allclose(d[2:], [0.5, 1.0, 0.5])
        assert np.allclose(w.R, np.eye(3))
        assert np.allclose(w.Q_N, 10.0 * w.Q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoringContext().weights(())

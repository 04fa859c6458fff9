import numpy as np
import pytest

from collections import OrderedDict

from oracles import fuel_by_loop, interleaving_count, score_by_loop
from rampmerge import tracking
from rampmerge.sequencing import (
    MergeSequence,
    ScoringContext,
    SequenceCapError,
    count_sequences,
    enumerate_sequences,
    optimal_sequence,
    score_sequences,
)
from rampmerge.statespace import build_model
from rampmerge.tracking import solve_finite_horizon_batch
from rampmerge.vehicles import ControlLimits, Lane, gap_floors

CAP = ScoringContext().cap


class TestEnumeration:
    def test_counts_match_recursion_oracle(self):
        for m in range(0, 7):
            for n in range(0, 7):
                if m == n == 0:
                    continue
                assert count_sequences(m, n) == interleaving_count(m, n)
                got = enumerate_sequences(
                    list(range(m)), list(range(100, 100 + n)), cap=100000
                )
                assert len(got) == interleaving_count(m, n)

    def test_two_mainline_one_ramp_explicit(self):
        seqs = enumerate_sequences([1, 2], [9], CAP)
        orders = {s.ids for s in seqs}
        assert orders == {(1, 2, 9), (1, 9, 2), (9, 1, 2)}
        assert len(seqs) == 3

    def test_all_candidates_preserve_lane_order(self):
        main, ramp = [3, 1, 4], [15, 9, 2, 6]
        for s in enumerate_sequences(main, ramp, CAP):
            by_lane = {lane: [v for v, on in zip(s.ids, s.lanes) if on is lane]
                       for lane in Lane}
            assert by_lane == {Lane.MAINLINE: main, Lane.RAMP: ramp}

    def test_no_duplicates(self):
        seqs = enumerate_sequences([1, 2, 3], [7, 8, 9], CAP)
        assert len({s.ids for s in seqs}) == len(seqs) == 20

    def test_cap_enforced_before_enumeration(self):
        with pytest.raises(SequenceCapError):
            enumerate_sequences(list(range(6)), list(range(10, 15)), CAP)  # C(11,5)=462

    def test_largest_allowed_group(self):
        # C(10,5) = 252 sits exactly at the cap
        seqs = enumerate_sequences(list(range(5)), list(range(10, 15)), CAP)
        assert len(seqs) == 252

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sequences([], [], CAP)

    def test_single_lane_passthrough(self):
        (only,) = enumerate_sequences([4, 5, 6], [], CAP)
        assert only.ids == (4, 5, 6)
        assert only.first_ramp_index == 3

    def test_rows_index_mainline_then_ramp(self):
        main, ramp = [3, 1], [15, 9]
        members = main + ramp
        for s in enumerate_sequences(main, ramp, CAP):
            assert tuple(members[r] for r in s.rows) == s.ids


def test_first_ramp_index():
    s = MergeSequence(ids=(1, 9, 2), lanes=(Lane.MAINLINE, Lane.RAMP, Lane.MAINLINE),
                      rows=(0, 2, 1))
    assert s.first_ramp_index == 1


def _inputs(*members):
    """``x0`` and ``floors`` of members given in row order as (position,
    speed[, entry speed]); the entry speed defaults to the speed."""
    position, speed, entry = np.array([(*m, m[1])[:3] for m in members]).T
    return np.concatenate((position, speed)), gap_floors(speed, entry, ControlLimits())


class TestGapFloors:
    def test_taken_from_follower_entry_speed(self):
        (seq,) = enumerate_sequences([2], [1], CAP)[1:]  # ramp 1 ahead of mainline 2
        x0, floors = _inputs((-50.0, 12.0, 14.9758), (0.0, 30.0))
        assert seq.ids == (1, 2) and seq.rows == (1, 0)
        problem = score_sequences([seq], x0, floors, ScoringContext())[0].problem
        assert np.array_equal(problem.x0, [0.0, -50.0, 30.0, 12.0])
        assert np.array_equal(problem.floors, [2.0 * 14.9758])

    def test_falls_back_to_current_speed(self):
        _, floors = _inputs((0.0, 30.0), (-40.0, 20.0, np.nan))
        assert np.array_equal(floors, [60.0, 40.0])


class TestScoring:
    def test_fuel_matches_reintegration(self):
        ctx = ScoringContext(desired_speed=20.0)
        seq = MergeSequence(ids=(1, 2), lanes=(Lane.MAINLINE, Lane.RAMP), rows=(0, 1))
        x0, floors = _inputs((0.0, 18.0), (-55.0, 15.0))
        [score] = score_sequences([seq], x0, floors, ctx)
        traj = score.result.trajectory
        speeds = np.maximum(traj.x[:-1, 2:], 0.0)
        expect = sum(
            fuel_by_loop(speeds[:, i], traj.u[:, i], ctx.dt, ctx.fuel)
            for i in range(2)
        )
        assert score.total_fuel == pytest.approx(expect, rel=1e-12)

    def test_reports_grown_horizon(self):
        ctx = ScoringContext(horizon=30, desired_speed=15.0)
        seq = MergeSequence(ids=(1, 2), lanes=(Lane.MAINLINE, Lane.MAINLINE), rows=(0, 1))
        # 7 m net gap, floor 30
        x0, floors = _inputs((0.0, 15.0), (-12.0, 15.0))
        [score] = score_sequences([seq], x0, floors, ctx)
        assert score.result.solution.horizon > 30
        assert not score.result.degraded


class TestSelection:
    def test_picks_physical_order_when_clearly_cheaper(self):
        # the mainline car is 60 m downstream; putting the ramp car first
        # would demand a full swap of the string
        ctx = ScoringContext(desired_speed=25.0)
        x0, floors = _inputs((0.0, 25.0), (-60.0, 15.0))
        best = optimal_sequence([1], [2], x0, floors, ctx)
        assert best.sequence.ids == (1, 2)
        assert not best.result.degraded

    def test_exact_tie_breaks_toward_early_ramp_merge(self):
        # mirror-identical vehicles and lane-blind weights: both orders
        # produce bitwise-identical rollouts, so the tiebreak must decide
        ctx = ScoringContext(
            gap_weight_mainline=1.0, gap_weight_ramp=1.0,
            speed_weight_mainline=1.0, speed_weight_ramp=1.0,
            desired_speed=25.0,
        )
        x0, floors = _inputs((-100.0, 15.0), (-100.0, 15.0))
        best = optimal_sequence([1], [2], x0, floors, ctx)
        assert best.sequence.ids == (2, 1)
        assert best.sequence.first_ramp_index == 0


class TestBatchedScoring:
    """A cycle scored as one batch gives every candidate its lone score."""

    CTX = ScoringContext(control_weight=100.0, desired_speed=30.0,
                         horizon=60, max_horizon=150)
    MAIN, RAMP = [1, 2, 3], [11, 12, 13]
    X0, FLOORS = _inputs(
        (-28.0, 30.0), (-66.5, 27.5), (-85.0, 28.5),  # mainline 1, 2, 3
        (-29.0, 12.0), (-45.0, 16.5), (-63.5, 15.0),  # ramp 11, 12, 13
    )

    @pytest.fixture(scope="class")
    def expected(self):
        return [score_by_loop(seq, self.X0, self.FLOORS, self.CTX)
                for seq in self.candidates()]

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(tracking, "_riccati_tables", OrderedDict())

    def candidates(self):
        return enumerate_sequences(self.MAIN, self.RAMP, CAP)

    def assert_exact(self, expected):
        seqs = self.candidates()
        scores = score_sequences(seqs, self.X0, self.FLOORS, self.CTX)
        assert len(scores) == len(expected) == 20
        for seq, score, (fuel, feasible, horizon, x, u) in zip(seqs, scores, expected):
            assert score.sequence == seq
            assert score.problem.lanes == seq.lanes
            result = score.result
            assert (score.total_fuel, not result.degraded, result.solution.horizon) == (
                fuel, feasible, horizon), seq.ids
            assert np.array_equal(score.result.trajectory.x, x), seq.ids
            assert np.array_equal(score.result.trajectory.u, u), seq.ids

    def test_candidates_finishing_at_different_horizons(self, expected):
        # feasible at 135, feasible at the 150 cap, and degraded at the cap
        assert {(h, ok) for _, ok, h, _, _ in expected} == {
            (135, True), (150, True), (150, False)}
        self.assert_exact(expected)
        best = optimal_sequence(self.MAIN, self.RAMP, self.X0, self.FLOORS, self.CTX)
        lone = min(
            (e for e in zip(expected, self.candidates()) if e[0][1]),
            key=lambda e: (e[0][0], e[1].first_ramp_index, e[1].ids),
        )
        assert best.sequence == lone[1]

    def test_tables_evicted_during_the_batch(self, expected, monkeypatch):
        monkeypatch.setattr(tracking, "RICCATI_CACHE_BYTES", 0)
        self.assert_exact(expected)
        assert len(tracking._riccati_tables) == 1

    def test_tables_entering_at_different_fill_levels(self, expected):
        seqs = self.candidates()
        model = build_model(6, self.CTX.dt)
        r = np.full(11, 30.0)
        for seq, N in zip(seqs[:12], (40, 150, 90) * 4):
            weights = self.CTX.problem(seq.lanes, np.zeros(5), np.zeros(12)).weights
            solve_finite_horizon_batch(model, [weights], np.tile(r, (1, N + 1, 1)))
        sizes = {t.size for t in tracking._riccati_tables.values()}
        assert sizes == {40, 90, 150}
        self.assert_exact(expected)

    def test_round_split_into_chunks_of_three(self, expected, monkeypatch):
        n, N = len(self.MAIN + self.RAMP), self.CTX.horizon
        monkeypatch.setattr(tracking, "RICCATI_CACHE_BYTES", 3 * tracking.table_bytes(n, N))
        assert [len(c) for c in tracking.chunks(list(range(20)), n, N)] == [3] * 6 + [2]
        self.assert_exact(expected)

    @pytest.mark.parametrize("block", [1, 7])  # 7 divides neither 135 nor 150
    def test_time_blocks_change_no_number(self, expected, monkeypatch, block):
        monkeypatch.setattr(tracking, "TIME_BLOCK", block)
        self.assert_exact(expected)

    def test_rescoring_a_cycle_that_fits_builds_each_table_once(self, expected, monkeypatch):
        built = []

        class Counted(tracking.RiccatiTable):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(tracking, "RiccatiTable", Counted)
        self.assert_exact(expected)
        assert len(built) == 20  # one lane pattern per candidate
        # a budget that holds exactly the cycle's tables, as filled
        monkeypatch.setattr(tracking, "RICCATI_CACHE_BYTES",
                            sum(t.nbytes for t in tracking._riccati_tables.values()))
        tracking._riccati_tables.clear()
        built.clear()
        for _ in range(2):
            self.assert_exact(expected)
            assert len(built) == 20
        assert {id(t) for t in tracking._riccati_tables.values()} == {id(t) for t in built}

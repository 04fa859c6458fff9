import hashlib
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from rampmerge.cli import (
    ConfigError,
    EXIT_COLLISION,
    EXIT_CONFIG,
    EXIT_OK,
    config_digest,
    convert_quantity,
    dump_config,
    export_trajectories,
    load_config,
    load_trajectories,
    main,
    resolved_parameters,
)
from rampmerge.params import parts, settable
from rampmerge.simulation import (
    CollisionError,
    ControlMode,
    STEP_PHASES,
    DemandPhase,
    ScenarioConfig,
    TrajectoryLog,
    compute_metrics,
    run_scenario,
)

CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
demand:
  - {duration: 60 s, mainline: 900 veh/h, ramp: 300 veh/h, suggested: 300 veh/h}
"""

#: every key a scenario file may set; a new knob has to be added here
ACCEPTED_KEYS = {
    "top": {"name", "mode", "seed", "dt", "vehicle_length", "demand", "geometry",
            "limits", "mainline_idm", "ramp_idm", "scoring", "fuel"},
    "geometry": {"ramp_control_zone_len", "ramp_buffer_zone_len",
                 "mainline_control_zone_len", "merge_zone_len", "upstream_extent",
                 "downstream_extent", "ramp_length"},
    "limits": {"acc_min", "acc_max", "gap_min_headway", "gap_floor", "v_max"},
    "mainline_idm": {"v0", "T", "a", "b", "s0", "delta"},
    "ramp_idm": {"v0", "T", "a", "b", "s0", "delta"},
    "scoring": {"horizon", "horizon_growth", "max_horizon", "gap_weight_mainline",
                "gap_weight_ramp", "speed_weight_mainline", "speed_weight_ramp",
                "control_weight", "terminal_factor", "desired_speed",
                "desired_time_headway", "activation_margin", "cap"},
    "fuel": {"b0", "b1", "b2", "b3", "c0", "c1", "c2"},
    "demand": {"duration", "mainline", "ramp", "suggested"},
}


def merged(base, edit):
    """``base`` with the values of ``edit`` set, nested mappings and lists
    merged entry by entry."""
    if isinstance(edit, dict):
        base = base or {}
        return {**base, **{key: merged(base.get(key), value) for key, value in edit.items()}}
    if isinstance(edit, list):
        return [merged(b, e) for b, e in zip(base, edit)]
    return edit


class TestUnits:
    def test_si_passthrough(self):
        assert convert_quantity(32.99, "speed") == 32.99
        assert convert_quantity(4, "plain") == 4.0

    def test_bare_number_string(self):
        assert convert_quantity("2.5", "accel") == 2.5

    def test_mph(self):
        assert abs(convert_quantity("73.8 mph", "speed") - 32.991552) < 1e-9

    def test_feet_per_second_squared(self):
        assert abs(convert_quantity("8.2 ft/s2", "accel") - 2.49936) < 1e-9

    def test_unicode_minus(self):
        assert abs(convert_quantity("−9.8 ft/s2", "accel") + 2.98704) < 1e-9

    def test_flow_rates(self):
        assert abs(convert_quantity("1600 veh/h", "rate") - 1600 / 3600) < 1e-12
        assert abs(convert_quantity("1600 pcu/hr/ln", "rate") - 1600 / 3600) < 1e-12

    def test_time_units(self):
        assert convert_quantity("2 min", "time") == 120.0

    def test_unknown_unit_lists_known(self):
        with pytest.raises(ValueError, match="unknown speed unit"):
            convert_quantity("30 furlongs", "speed")

    def test_dimensionless_rejects_suffix(self):
        with pytest.raises(ValueError, match="dimensionless"):
            convert_quantity("4 m", "plain")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            convert_quantity("fast", "speed")
        with pytest.raises(ValueError):
            convert_quantity(True, "speed")
        with pytest.raises(ValueError):
            convert_quantity([30], "speed")

    @pytest.mark.parametrize("value,dimension", [
        (math.nan, "plain"), (math.inf, "time"), ("-inf mph", "speed"),
        ("nan", "plain"), (10**400, "plain"),
    ], ids=["nan", "inf", "-inf mph", "nan text", "10**400"])
    def test_non_finite_rejected(self, value, dimension):
        with pytest.raises(ValueError, match="finite"):
            convert_quantity(value, dimension)


class TestLoadConfig:
    def test_minimal_config_uses_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.limits.v_max == 34.65
        assert cfg.mainline_idm.a == 1.4
        assert cfg.ramp_idm.b == 2.8
        assert cfg.scoring.control_weight == 100.0
        assert cfg.name == "cfg"

    def test_mode_and_seed_overrides(self, tmp_path):
        path = write_config(tmp_path, "mode: none\nseed: 5\n" + MINIMAL)
        cfg = load_config(path)
        assert cfg.mode.value == "none" and cfg.seed == 5
        cfg = load_config(path, mode="metering", seed=11)
        assert cfg.mode.value == "metering" and cfg.seed == 11
        # a library caller may pass the member itself
        assert load_config(path, mode=ControlMode.METERING).mode is ControlMode.METERING

    def test_unknown_field_is_named(self, tmp_path):
        # a typo, the thread-pool knob that scoring no longer has, and the
        # trigger line, which is the start of the ramp control zone
        for section, name in (("scoring", "contrl_weight"), ("scoring", "workers"),
                              ("geometry", "trigger_point")):
            path = write_config(tmp_path, f"{section}: {{{name}: -3}}\n" + MINIMAL)
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert (f"{section}.{name}", "unknown field") in err.value.issues

    @pytest.mark.parametrize("field,value", [
        ("horizon_growth", 1.0), ("horizon", 0), ("max_horizon", 0), ("cap", 0),
        ("speed_weight_mainline", -0.5), ("gap_weight_ramp", -1),
        ("terminal_factor", -10), ("desired_time_headway", -1.2),
    ])
    def test_scoring_range_is_named(self, tmp_path, field, value):
        # growth 1 never lengthens the repair horizon; zero horizons and
        # a zero cap used to fail mid-run with a traceback; a negative
        # weight (an indefinite cost) or headway (a meaningless reference)
        # used to pass, then stop the gain iteration or run on regardless
        path = write_config(tmp_path, f"scoring: {{{field}: {value}}}\n" + MINIMAL)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert [p for p, _ in err.value.issues] == [f"scoring.{field}"]

    @pytest.mark.parametrize("text,path", [
        ("scoring: {horizon: 2.5}", "scoring.horizon"),
        ("scoring: {cap: 3.7}", "scoring.cap"),
        ("scoring: {max_horizon: 1200.9}", "scoring.max_horizon"),
        ("seed: 3.9", "seed"),
        ("scoring: {horizon: .nan}", "scoring.horizon"),
        ("scoring: {cap: .inf}", "scoring.cap"),
        ("dt: .nan", "dt"),
        ("limits: {v_max: .inf}", "limits.v_max"),
        ("seed: '1.5'", "seed"),
    ])
    def test_fractional_or_non_finite_number_is_named(self, tmp_path, capsys, text, path):
        # integer fields used to truncate silently, NaN and infinities to
        # pass validation or stop with a traceback
        bad = write_config(tmp_path, text + "\n" + MINIMAL)
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
        assert f"{path}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize("edit,path", [
        ({"seed": -1}, "seed"),
        ({"vehicle_length": -5}, "vehicle_length"),
        ({"ramp_idm": {"b": 0}}, "ramp_idm.b"),
        ({"mainline_idm": {"delta": 0}}, "mainline_idm.delta"),
        ({"scoring": {"desired_speed": 0}}, "scoring.desired_speed"),
        ({"scoring": {"control_weight": -1}}, "scoring.control_weight"),
        ({"geometry": {"ramp_length": 100}}, "geometry.ramp_length"),
        ({"demand": [{"duration": 0}]}, "demand[0].duration"),
        # a negative margin moved the cross-lane floors' activation
        # downstream of the merge, where no check ever applied them
        ({"scoring": {"activation_margin": -100}}, "scoring.activation_margin"),
        # the repair used to start at max_horizon instead, silently
        ({"scoring": {"horizon": 5000}}, "scoring.horizon"),
        # a negative desired gap squared into a braking term
        ({"mainline_idm": {"T": -1.5}}, "mainline_idm.T"),
        ({"mainline_idm": {"s0": -2}}, "mainline_idm.s0"),
        # the density estimate divided by roadway that is not modeled
        ({"geometry": {"mainline_control_zone_len": 2500}},
         "geometry.mainline_control_zone_len"),
        # the planner scored braking that integration clips at HARD_BRAKE
        ({"limits": {"acc_min": -6.5}}, "limits.acc_min"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_out_of_range_field_is_named(self, tmp_path, capsys, edit, path):
        # each used to validate and then fail mid-run, run on silently, or
        # come out under the catch-all path "config"
        smoke = yaml.safe_load(Path(CONFIG_DIR, "smoke.yaml").read_text())
        bad = write_config(tmp_path, yaml.safe_dump(merged(smoke, edit)))
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
        assert f"{path}: " in capsys.readouterr().err

    def test_every_issue_reported_at_once(self, tmp_path):
        text = ("seed: -1\ngeometry: {ramp_length: 100}\nscoring: {cap: fast}\n"
                "demand:\n  - {duration: 0, mainline: 0.1, ramp: 0.1, suggested: 0.1}\n"
                "  - {duration: 10, mainline: -1, ramp: 0.1}\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert [p for p, _ in err.value.issues] == [
            "scoring.cap", "demand[1]", "seed", "geometry.ramp_length",
            "demand[0].duration", "demand[1].mainline",
        ]

    def test_accepted_keys_are_pinned(self, tmp_path):
        cfg = load_config(CONFIG_DIR + "/smoke.yaml")
        params = resolved_parameters(cfg)
        sections = dict(parts(cfg))
        declared = {name: set(settable(part)) for name, part in sections.items()}
        declared["top"] = {"name", "mode", "demand", *sections, *settable(cfg)}
        declared["demand"] = set(settable(DemandPhase))
        assert declared == ACCEPTED_KEYS
        # every settable field is resolved, so config_digest covers it
        resolved = {name: set(params[name]) for name in sections}
        resolved["top"] = set(params)
        resolved["demand"] = set(params["demand"][0])
        assert resolved == ACCEPTED_KEYS
        # and a file setting every one of them loads
        load_config(write_config(tmp_path, dump_config(cfg), "all.yaml"))

    def test_every_config_field_is_declared(self):
        # an undeclared field is one no file can set and config_digest
        # leaves out, so two configs drawing different runs share a digest
        cfg = ScenarioConfig(phases=[])
        declared = {*settable(cfg), *dict(parts(cfg)), "phases", "mode", "name"}
        assert [f.name for f in fields(cfg) if f.name not in declared] == []

    def test_sections_default_to_their_classes(self):
        # each default is stated once, on its class; the ramp driver is a
        # second IdmParams and the one section with its own default
        cfg = ScenarioConfig(phases=[])
        differ = [name for name, part in parts(cfg) if part != type(part)()]
        assert differ == ["ramp_idm"]
        # the planner's limits agree with the world's before a run syncs them
        assert cfg.scoring.limits == cfg.limits

    @pytest.mark.parametrize("length,valid", [(4.9, False), (5.0, True)])
    def test_merge_zone_fits_the_ramp_stop(self, tmp_path, length, valid):
        # the merge bar sits 3 m short of the zone end and an unmerged ramp
        # vehicle stops s0 = 2 m short of it; any shorter and it stops
        # upstream of the merge point, so no uncontrolled vehicle merges
        path = write_config(tmp_path, f"geometry: {{merge_zone_len: {length}}}\n" + MINIMAL)
        if valid:
            assert load_config(path).geometry.merge_zone_len == length
        else:
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert [p for p, _ in err.value.issues] == ["geometry.merge_zone_len"]

    def test_hard_braking_is_the_lowest_acc_min(self, tmp_path):
        path = write_config(tmp_path, "limits: {acc_min: -6.0}\n" + MINIMAL)
        assert load_config(path).limits.acc_min == -6.0

    def test_integer_fields_are_exact_above_2_53(self, tmp_path, capsys):
        # a float holds 53 bits: this seed used to load, and print, as 2**53
        big = 2**53 + 1
        path = write_config(tmp_path, f"seed: {big}\nscoring: {{cap: '{big}', horizon: 1e3}}\n"
                            + MINIMAL)
        cfg = load_config(path)
        assert (cfg.seed, cfg.scoring.cap, cfg.scoring.horizon) == (big, big, 1000)
        again = load_config(write_config(tmp_path, dump_config(cfg), "again.yaml"))
        assert resolved_parameters(again) == resolved_parameters(cfg)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert f"seed: {big}\n" in capsys.readouterr().out

    def test_integral_float_counts_as_integer(self, tmp_path):
        path = write_config(tmp_path, "seed: 4.0\nscoring: {horizon: 250.0, cap: '1e2'}\n"
                            + MINIMAL)
        cfg = load_config(path)
        assert (cfg.seed, cfg.scoring.horizon, cfg.scoring.cap) == (4, 250, 100)
        assert all(type(v) is int for v in (cfg.seed, cfg.scoring.horizon, cfg.scoring.cap))

    def test_positive_acc_min_is_named(self, tmp_path):
        path = write_config(tmp_path, "limits: {acc_min: 1.0}\n" + MINIMAL)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "acc_min" in str(err.value)

    def test_all_issues_collected(self, tmp_path):
        path = write_config(
            tmp_path,
            "mode: warp\nlimits: {v_max: fast}\nbogus: 1\n" + MINIMAL,
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        paths = [p for p, _ in err.value.issues]
        assert "mode" in paths and "limits.v_max" in paths and "bogus" in paths

    def test_missing_demand_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="demand"):
            load_config(write_config(tmp_path, "seed: 1\n"))

    @pytest.mark.parametrize("demand", [
        "{duration: 60 s, mainline: 900 veh/h, ramp: 300 veh/h, suggested: 300 veh/h}",
        "600 s",
    ], ids=["mapping", "scalar"])
    def test_demand_must_be_a_list(self, tmp_path, demand):
        # used to be reported as "demand: needs at least one phase"
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, f"demand: {demand}\n"))
        assert err.value.issues == [("demand", "expected a list of phases")]

    @pytest.mark.parametrize("entry", ["5", "600 s", "[1, 2]"])
    def test_demand_entry_must_be_a_mapping(self, tmp_path, entry):
        # used to be reported twice, also as "missing fields: ..."
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, f"demand: [{entry}]\n"))
        assert err.value.issues == [("demand[0]", "expected a mapping")]

    def test_missing_phase_field_rejected(self, tmp_path):
        text = "demand:\n  - {duration: 60 s, mainline: 900 veh/h}\n"
        with pytest.raises(ConfigError, match="missing fields"):
            load_config(write_config(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.yaml")

    def test_round_trip_identity(self, tmp_path):
        cfg = load_config(CONFIG_DIR + "/scenario1.yaml")
        path = write_config(tmp_path, dump_config(cfg), "dumped.yaml")
        again = load_config(path)
        assert resolved_parameters(again) == resolved_parameters(cfg)


class TestDigest:
    @pytest.mark.parametrize("name,digest", [
        ("smoke", "275007671a83b2402b4ca4beec637f2c14818b1c3c4cf0c6de522af9536e1930"),
        ("scenario1", "4f4080dda498eac7441e492bf79285b59c078f29a82cc09c3db5c9eb801f4a33"),
        ("scenario2", "91ead72a6c3d26151bf722f4b1f1ce8c865835d472261304b32a0cbc7915d9cc"),
    ])
    def test_shipped_configs_are_pinned(self, name, digest):
        # a deliberate schema or value change updates these and lists each one
        assert config_digest(load_config(f"{CONFIG_DIR}/{name}.yaml")) == digest

    def test_stable_under_key_reordering(self, tmp_path):
        a = write_config(
            tmp_path,
            "limits: {v_max: 33.0, acc_max: 2.0}\nseed: 1\n" + MINIMAL,
            "a.yaml",
        )
        b = write_config(
            tmp_path,
            MINIMAL + "\nseed: 1\nlimits: {acc_max: 2.0, v_max: 33.0}\n",
            "b.yaml",
        )
        assert config_digest(load_config(a)) == config_digest(load_config(b))

    def test_sensitive_to_parameters(self, tmp_path):
        base = load_config(write_config(tmp_path, MINIMAL, "base.yaml"))
        other = load_config(
            write_config(tmp_path, "limits: {v_max: 30}\n" + MINIMAL, "other.yaml"))
        assert config_digest(base) != config_digest(other)

    def test_mode_seed_name_not_in_digest(self, tmp_path):
        a = load_config(
            write_config(tmp_path, "mode: none\nseed: 9\nname: x\n" + MINIMAL, "a.yaml"))
        b = load_config(
            write_config(tmp_path, "mode: optimal\nseed: 2\nname: y\n" + MINIMAL, "b.yaml"))
        assert config_digest(a) == config_digest(b)


def tiny_log():
    log = TrajectoryLog()
    # two vehicles, three steps, deliberately appended with ids unsorted
    for k in range(3):
        t = k * 0.1
        log.append_step(
            t,
            ids=[7, 3],
            lanes=[0, 1],
            pos=np.array([100.0 + k, -50.0 + 2 * k]),
            speed=np.array([10.0, 20.0]),
            accel=np.array([0.0, 1.0]),
            status=[0, 2],
            fuel=np.array([0.5, 1.5]),
        )
    return log.arrays()


class TestTrajectoryFiles:
    def test_empty_log_header_only(self, tmp_path):
        path = export_trajectories(TrajectoryLog().arrays(), tmp_path / "empty.csv")
        assert path.read_text() == "t,id,lane,position,speed,accel,status,fuel_rate\n"

    def test_rows_sorted_by_time_then_id(self, tmp_path):
        path = export_trajectories(tiny_log(), tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        keys = []
        for line in lines[1:]:
            parts = line.split(",")
            keys.append((float(parts[0]), int(parts[1])))
        assert keys == sorted(keys)
        assert keys[0] == (0.0, 3) and keys[1] == (0.0, 7)

    def test_six_decimal_formatting(self, tmp_path):
        path = export_trajectories(tiny_log(), tmp_path / "t.csv")
        first = path.read_text().splitlines()[1].split(",")
        assert first[0] == "0.000000" and first[3] == "-50.000000"

    def test_round_trip_preserves_metrics(self, tmp_path):
        cfg = load_config(CONFIG_DIR + "/smoke.yaml")
        result = run_scenario(cfg)
        path = export_trajectories(result.log, tmp_path / "run.csv")
        back = load_trajectories(path)
        a = compute_metrics(result.log, cfg.dt)
        b = compute_metrics(back, cfg.dt)
        for group in ("overall", "mainline", "ramp"):
            ga, gb = getattr(a, group), getattr(b, group)
            assert ga.n_vehicles == gb.n_vehicles
            for field_name in ("vmt_miles", "vht_hours", "q_mph", "fuel_ml",
                               "economy_mpg"):
                va, vb = getattr(ga, field_name), getattr(gb, field_name)
                assert abs(va - vb) <= 1e-9 * max(1.0, abs(va))

    def test_load_rejects_foreign_file(self, tmp_path):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(RuntimeError, match="bad header"):
            load_trajectories(bad)


class TestCommands:
    def test_run_and_determinism(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["run", "--config", CONFIG_DIR + "/smoke.yaml",
                         "--out", str(out)])
            assert code == EXIT_OK
        name = "run_optimal_seed3_trajectories.csv"
        digest_a = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
        digest_b = hashlib.sha256((out_b / name).read_bytes()).hexdigest()
        assert digest_a == digest_b
        manifest = json.loads(
            (out_a / "run_optimal_seed3_manifest.json").read_text())
        assert manifest["mode"] == "optimal" and manifest["seed"] == 3
        assert manifest["metrics"]["q_mph"] > 0

    def test_run_manifest_carries_counters_and_profile(self, tmp_path):
        smoke = CONFIG_DIR + "/smoke.yaml"
        assert main(["run", "--config", smoke, "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "run_optimal_seed3_manifest.json").read_text())
        assert sorted(manifest) == [
            "config_digest", "config_path", "counters", "finished", "metrics", "mode",
            "numeric_path", "outputs", "profile", "seed", "sha256", "started",
            "wall_seconds"]
        result = run_scenario(load_config(smoke))
        assert manifest["counters"] == asdict(result.counters)
        assert manifest["counters"]["coordinator_commands"] > 0
        assert sorted(manifest["profile"]) == sorted(STEP_PHASES)
        assert all(seconds > 0.0 for seconds in manifest["profile"].values())
        assert sum(manifest["profile"].values()) <= manifest["wall_seconds"] + 1e-3
        assert sorted(manifest["sha256"]) == sorted(manifest["outputs"]) == [
            "metrics", "trajectories"]
        for kind, path in manifest["outputs"].items():
            assert manifest["sha256"][kind] == hashlib.sha256(
                Path(path).read_bytes()).hexdigest(), kind
        path = manifest["numeric_path"]
        assert path["numpy"] == np.__version__
        assert set(path["blas"]) == {"name", "version"}
        assert isinstance(path["simd"], list)

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("limits: {acc_min: 1.0}\n" + MINIMAL)
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "acc_min" in capsys.readouterr().err

    def test_run_collision_exit_code(self, tmp_path, monkeypatch, capsys):
        import rampmerge.cli as cli_mod

        def boom(config):
            raise CollisionError(3.0, 1, 2, -0.5, log=TrajectoryLog().arrays())

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        code = main(["run", "--config", CONFIG_DIR + "/smoke.yaml",
                     "--out", str(tmp_path)])
        assert code == EXIT_COLLISION
        assert "collision" in capsys.readouterr().err
        partial = tmp_path / "run_optimal_seed3_trajectories_partial.csv"
        assert partial.exists()

    def test_sweep_collision_writes_partial_trajectories(
            self, tmp_path, monkeypatch, capsys):
        import rampmerge.cli as cli_mod

        def boom(config):
            raise CollisionError(3.0, 1, 2, -0.5, log=TrajectoryLog().arrays())

        # the pool's workers are forked after this, so they collide too
        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        for workers, seeds in (("1", ["3"]), ("2", ["1", "2"])):
            out = tmp_path / f"workers{workers}"
            code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml", "--seeds", *seeds,
                         "--workers", workers, "--out", str(out)])
            assert code == EXIT_COLLISION
            err = capsys.readouterr().err
            assert f"optimal seed {seeds[0]} collided" in err and "collision abort" in err
            # only the run that aborted the sweep leaves a partial log, however
            # many other runs were in flight in the pool
            assert [p.name for p in out.glob("*_partial.csv")] == [
                f"sweep_optimal_seed{seeds[0]}_trajectories_partial.csv"]
            assert not (out / "sweep.json").exists()

    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["run", "--config", CONFIG_DIR + "/smoke.yaml",
                     "--mode", "none", "--out", str(taken)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {taken}: ")
        assert err.count("\n") == 1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAMPMERGE_OUT", str(tmp_path / "env_out"))
        code = main(["validate", "--config", CONFIG_DIR + "/smoke.yaml"])
        assert code == EXIT_OK

    def test_validate_rejects_scoring_range(self, tmp_path, capsys):
        bad = write_config(tmp_path, "scoring: {horizon_growth: 1.0}\n" + MINIMAL)
        code = main(["validate", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "scoring.horizon_growth: must be > 1" in capsys.readouterr().err

    def test_merge_entry_is_no_longer_a_setting(self, tmp_path, capsys):
        # the merge point is the origin of the merge axis
        bad = write_config(tmp_path, "scoring: {merge_entry: 0.0}\n" + MINIMAL)
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
        assert "scoring.merge_entry: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["smoke", "scenario1", "scenario2"])
    def test_validate_prints_resolved_set(self, tmp_path, capsys, name):
        # the output is itself a config file, its status lines comments
        source = f"{CONFIG_DIR}/{name}.yaml"
        assert main(["validate", "--config", source]) == EXIT_OK
        out = capsys.readouterr().out
        cfg = load_config(source)
        assert out.startswith(f"# configuration OK: {source}\n"
                              f"# scenario digest: {config_digest(cfg)}\n")
        printed = load_config(write_config(tmp_path, out, f"{name}.yaml"))
        assert resolved_parameters(printed) == resolved_parameters(cfg)

    def test_sweep_writes_paired_report(self, tmp_path):
        code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml",
                     "--seeds", "2", "--workers", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert set(data) == {"optimal", "metering", "none"}
        minus = data["optimal"]["minus"]
        assert set(minus) == {"metering", "none"}
        # one seed has no standard error
        for stat in minus["none"]["stats"].values():
            assert stat["se"] is None
        text = (tmp_path / "sweep.txt").read_text()
        assert "optimal minus metering, paired by seed" in text
        assert "optimal minus none, paired by seed" in text
        # single runs' trajectories come from `run`, not from a sweep
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_runs_the_listed_seeds(self, tmp_path):
        # not the config's seed 3, and in numeric order, not as text
        code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml",
                     "--seeds", "10", "9", "--modes", "none", "metering",
                     "--workers", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["none"]["seeds"] == [9, 10]
        assert set(data["none"]["minus"]["metering"]["per_seed"]) == {"9", "10"}
        seed_rows = [line.split()[0] for line in
                     (tmp_path / "sweep.txt").read_text().splitlines()[-4:-2]]
        assert seed_rows == ["9", "10"]

    def test_sweep_pairs_runs_by_seed(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml",
                         "--seeds", "1", "2", "--workers", "1", "--out", str(out)])
            assert code == EXIT_OK
        for name in ("sweep.json", "sweep.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        data = json.loads((outs[0] / "sweep.json").read_text())
        runs = {mode: entry["runs"] for mode, entry in data.items()}
        for other, paired in data["optimal"]["minus"].items():
            for key in ("q_mph", "economy_mpg", "vehicles_left"):
                diffs = [runs["optimal"][seed][key] - runs[other][seed][key]
                         for seed in ("1", "2")]
                assert [paired["per_seed"][seed][key] for seed in ("1", "2")] == diffs
                stats = paired["stats"][key]
                assert stats["mean"] == pytest.approx(sum(diffs) / 2, abs=1e-12)
                # two values: the sample sd over sqrt(2) is half their distance
                assert stats["se"] == pytest.approx(abs(diffs[0] - diffs[1]) / 2,
                                                    abs=1e-12)
        for entry in data.values():
            for run in entry["runs"].values():
                assert type(run["vehicles_left"]) is int and run["vehicles_left"] >= 0

    def test_sweep_aggregates(self, tmp_path):
        code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml",
                     "--seeds", "1", "2", "--modes", "none", "metering",
                     "--workers", "1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert set(data) == {"none", "metering"}
        for entry in data.values():
            assert entry["seeds"] == [1, 2]
            assert entry["stats"]["q_mph"]["sd"] >= 0.0
            assert set(entry["runs"]) == {"1", "2"}

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_sweep_needs_a_worker(self, tmp_path, capsys, workers):
        # the process pool used to refuse the count with a traceback
        out = tmp_path / "out"
        code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml", "--seeds", "1",
                     "--workers", workers, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--seeds", "1", "1", "2"], "--seeds lists 1 more than once"),
        (["--seeds", "1", "--modes", "none", "none"], "--modes lists none more than once"),
    ])
    def test_sweep_rejects_a_repeat(self, tmp_path, capsys, flags, named):
        code = main(["sweep", "--config", CONFIG_DIR + "/smoke.yaml", "--workers", "1",
                     "--out", str(tmp_path), *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.json").exists()

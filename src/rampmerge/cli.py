"""Command-line front end: configs, runs, exports, seed sweeps.

A single YAML file carries every parameter a run needs, so config + seed
fully reproduce a simulation.  Numeric fields accept either plain SI
numbers or strings with an explicit unit suffix ("73.8 mph", "8.2 ft/s2",
"600 s"); everything is converted to SI on load.  Exports are plain CSV
with fixed six-decimal formatting, and a sweep's report of modes over
seeds comes in both a machine-readable JSON form and an aligned text
table.

Exit codes: 0 success, 2 configuration error, 3 collision abort.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import Field, asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .params import parts, settable
from .simulation import (
    CollisionError,
    ControlMode,
    DemandPhase,
    RunMetrics,
    ScenarioConfig,
    TrajectoryLog,
    run_scenario,
)

OUT_ENV_VAR = "RAMPMERGE_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3


class ConfigError(ValueError):
    """One or more invalid config fields, each with its path."""

    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = issues
        lines = [f"{path}: {msg}" for path, msg in issues]
        super().__init__("invalid configuration:\n  " + "\n  ".join(lines))


# ---------------------------------------------------------------------------
# unit handling

_UNIT_TABLES = {
    "speed": {"m/s": 1.0, "mps": 1.0, "mph": 0.44704, "km/h": 1.0 / 3.6,
              "kph": 1.0 / 3.6, "ft/s": 0.3048},
    "accel": {"m/s2": 1.0, "m/s^2": 1.0, "ft/s2": 0.3048, "ft/s^2": 0.3048},
    "length": {"m": 1.0, "ft": 0.3048, "km": 1000.0, "mi": 1609.344},
    "time": {"s": 1.0, "ms": 1e-3, "min": 60.0, "h": 3600.0, "hr": 3600.0},
    # vehicle flows resolve to veh/s
    "rate": {"veh/s": 1.0, "veh/h": 1.0 / 3600.0, "veh/hr": 1.0 / 3600.0,
             "pcu/h": 1.0 / 3600.0, "pcu/hr": 1.0 / 3600.0,
             "pcu/hr/ln": 1.0 / 3600.0, "veh/min": 1.0 / 60.0},
}


def convert_quantity(value, dimension: str) -> float:
    """Resolve a config number to SI.

    Plain numbers pass through unchanged (SI assumed).  Strings must be
    "<number> <unit>" with a unit known for ``dimension``; dimensionless
    fields ("plain") reject unit suffixes outright.  Infinities and NaN
    are rejected.
    """
    si = _to_si(value, dimension)
    if not math.isfinite(si):
        raise ValueError(f"expected a finite number, got {value!r}")
    return si


def _to_si(value, dimension: str) -> float:
    if isinstance(value, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            return math.inf
    if not isinstance(value, str):
        raise ValueError(f"expected a number or '<value> <unit>' string, got {value!r}")
    text = value.replace("−", "-").strip()
    parts = text.split()
    if len(parts) == 1:
        try:
            return float(parts[0])
        except ValueError:
            raise ValueError(f"cannot parse number from {value!r}") from None
    if len(parts) != 2:
        raise ValueError(f"expected '<value> <unit>', got {value!r}")
    try:
        magnitude = float(parts[0])
    except ValueError:
        raise ValueError(f"cannot parse number from {value!r}") from None
    if dimension == "plain":
        raise ValueError(f"field is dimensionless, drop the unit in {value!r}")
    table = _UNIT_TABLES[dimension]
    unit = parts[1].lower()
    if unit not in table:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {dimension} unit {parts[1]!r} (known: {known})")
    return magnitude * table[unit]


# ---------------------------------------------------------------------------
# config schema: units, integer fields and accepted keys come from the
# param() declarations on the config dataclasses


def _convert_field(declared: Field, value):
    """``convert_quantity`` in the field's unit; ``int`` fields must be
    integral.  An integer, or a string ``int()`` parses, is taken exactly
    rather than through a float, which rounds above 2**53."""
    if declared.type not in (int, "int"):
        return convert_quantity(value, declared.metadata["unit"])
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    si = convert_quantity(value, declared.metadata["unit"])
    if not si.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(si)


def _parse_fields(raw, declared: dict[str, Field], path: str, issues) -> dict:
    """Convert each key of the mapping ``raw`` by its declaration, logging
    every key that is unknown or fails to convert under ``path``."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        issues.append((path, "expected a mapping"))
        return {}
    out = {}
    for key, value in raw.items():
        key_path = f"{path}.{key}" if path else key
        if key not in declared:
            issues.append((key_path, "unknown field"))
            continue
        try:
            out[key] = _convert_field(declared[key], value)
        except ValueError as exc:
            issues.append((key_path, str(exc)))
    return out


def load_config(path: str | Path, mode: ControlMode | str | None = None,
                seed: int | None = None) -> ScenarioConfig:
    """Parse a YAML scenario file into a validated ScenarioConfig.

    ``mode`` (a ControlMode or its text) and ``seed`` override whatever the
    file carries.  Raises ConfigError listing every offending field, not
    just the first.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError([(str(path), f"cannot read config: {exc}")]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([(str(path), f"YAML parse error: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([(str(path), "top level must be a mapping")])

    issues: list[tuple[str, str]] = []
    mode_text = mode if mode is not None else raw.get("mode", "optimal")
    try:
        run_mode = (mode_text if isinstance(mode_text, ControlMode)
                    else ControlMode(str(mode_text).lower()))
    except ValueError:
        names = ", ".join(m.value for m in ControlMode)
        issues.append(("mode", f"unknown mode {mode_text!r} (expected one of {names})"))
        run_mode = ControlMode.OPTIMAL

    # anything the file omits falls back to the scenario defaults
    sections = dict(parts(ScenarioConfig(phases=[])))
    top = {key: value for key, value in raw.items()
           if key not in sections and key not in ("name", "mode", "demand")}
    kw = _parse_fields(top, settable(ScenarioConfig), "", issues)
    if seed is not None:
        kw["seed"] = seed
    for name, default in sections.items():
        kw[name] = replace(default, **_parse_fields(raw.get(name), settable(default), name, issues))

    declared = settable(DemandPhase)
    raw_demand = raw.get("demand")
    phases = []
    # a bad demand or phase value is reported here; NaN holds a phase value's place
    placeholders = set()
    if not isinstance(raw_demand, (list, type(None))):
        issues.append(("demand", "expected a list of phases"))
        placeholders.add("demand")
        raw_demand = None
    for i, entry in enumerate(raw_demand or []):
        got = _parse_fields(entry, declared, f"demand[{i}]", issues)
        # _parse_fields reports an entry that is not a mapping as a whole
        missing = [key for key in declared if entry is None
                   or isinstance(entry, dict) and key not in entry]
        if missing:
            issues.append((f"demand[{i}]", f"missing fields: {', '.join(missing)}"))
        placeholders.update(f"demand[{i}].{key}" for key in declared if key not in got)
        phases.append(DemandPhase(**{key: got.get(key, math.nan) for key in declared}))

    config = ScenarioConfig(phases=phases, mode=run_mode,
                            name=str(raw.get("name", path.stem)), **kw)
    for issue_path, problem in config.issues():
        if issue_path not in placeholders:
            issues.append((issue_path, problem))
    if issues:
        raise ConfigError(issues)
    return config


def _values(obj) -> dict:
    return {name: getattr(obj, name) for name in settable(obj)}


def resolved_parameters(config: ScenarioConfig) -> dict:
    """The full SI parameter set of a config, as plain nested dicts."""
    return {
        "name": config.name,
        "mode": config.mode.value,
        **_values(config),
        **{name: _values(part) for name, part in parts(config)},
        "demand": [_values(phase) for phase in config.phases],
    }


def dump_config(config: ScenarioConfig) -> str:
    """Serialize the resolved SI parameter set back to YAML.

    load_config(dump_config(cfg)) resolves to an identical parameter set,
    so a saved config is a faithful reproduction recipe.
    """
    return yaml.safe_dump(resolved_parameters(config), sort_keys=True)


def config_digest(config: ScenarioConfig) -> str:
    """sha256 over the canonical JSON of the resolved parameters.

    name, mode and seed are excluded: the digest identifies the physical
    scenario, the run manifest carries mode and seed alongside it.  Key
    order cannot affect the digest because the JSON is sorted.
    """
    params = resolved_parameters(config)
    params.pop("name")
    params.pop("mode")
    params.pop("seed")
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# trajectory files

_EXPORT_FMT = ",".join("%d" if dtype is np.int64 else "%.6f"
                       for dtype in TrajectoryLog.FIELDS.values())
_HEADER = ",".join(TrajectoryLog.FIELDS)

#: rows formatted and written at a time, so memory stays flat in run length
_BLOCK_ROWS = 1 << 15
#: below this |x| * 1e6 < 2**40, where the float product errs by at most
#: 2**-14, so its ``rint`` is the exact rounding unless the product lies
#: within 1e-3 of a half
_EXACT_BELOW = 1_099_511.0


def _words(*columns) -> np.ndarray:
    """uint32 words from four columns of ASCII codes; 0 is padding."""
    codes = np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8)
    return codes.view(np.uint32)[..., 0]


_K = np.arange(1000)
_D100, _D10, _D1 = _K // 100 + 48, _K // 10 % 10 + 48, _K % 10 + 48
#: three-digit groups of a number: row ``k`` spells ``k`` with leading
#: zeros; row 1000 + k without, for the group holding the first digit;
#: row 2000 + k likewise, but blank for 0, for groups left of the last
_GROUPS = np.concatenate([
    _words(0, _D100, _D10, _D1),
    _words(0, _D100 * (_K >= 100), _D10 * (_K >= 10), _D1),
    _words(0, _D100 * (_K >= 100), _D10 * (_K >= 10), _D1 * (_K >= 1)),
])
_MINUS = _words(ord("-"), 0, 0, 0)
#: a fraction's six digits, as ".ddd" and "ddd" plus the field separator
_POINT = _words(ord("."), _D100, _D10, _D1)
_TAIL = {sep: _words(_D100, _D10, _D1, ord(sep)) for sep in ",\n"}
_SEPARATOR = {sep: _words(0, 0, 0, ord(sep)) for sep in ",\n"}


def _spell_int(u: np.ndarray, negative: np.ndarray) -> list[np.ndarray]:
    """Words spelling the non-negative ints ``u``, signed where ``negative``."""
    words = []
    rest, blank = u, 1000
    while not words or rest.any():
        high = rest // 1000
        words.append(np.take(_GROUPS, rest - high * 1000 + blank * (high == 0)))
        rest, blank = high, 2000
    words[-1] = words[-1] | _MINUS * negative
    return words[::-1]


def _spell_fixed6(x: np.ndarray, sep: str) -> tuple[list[np.ndarray], np.ndarray]:
    """Words spelling ``x`` as ``%.6f``, and the rows where they are exact."""
    size = np.abs(x)
    exact = size < _EXACT_BELOW
    scaled = np.where(exact, size, 0.0) * 1e6
    units = np.rint(scaled)
    exact &= np.abs(scaled - units) < 0.5 - 1e-3
    units = units.astype(np.int64)
    whole = units // 1_000_000
    frac = units - whole * 1_000_000
    high = frac // 1000
    words = _spell_int(whole, np.signbit(x))
    words += [np.take(_POINT, high), np.take(_TAIL[sep], frac - high * 1000)]
    return words, exact


def _write_rows(handle, columns: list[np.ndarray]) -> None:
    """Write one block of rows exactly as ``_EXPORT_FMT % row`` spells them."""
    n = len(columns[0])
    exact = np.ones(n, dtype=bool)
    words: list = []
    for j, (col, dtype) in enumerate(zip(columns, TrajectoryLog.FIELDS.values())):
        sep = "\n" if j == len(columns) - 1 else ","
        if dtype is np.int64:
            words += _spell_int(np.abs(col), col < 0) + [_SEPARATOR[sep]]
        else:
            spelled, ok = _spell_fixed6(col, sep)
            words += spelled
            exact &= ok
    table = np.empty((n, len(words)), dtype=np.uint32)
    for k, word in enumerate(words):
        table[:, k] = word
    text = table.view(np.uint8)
    keep = text != 0
    data = memoryview(text[keep])
    done = 0
    if not exact.all():
        ends = np.cumsum(np.count_nonzero(keep, axis=1))
        for i in np.flatnonzero(~exact):
            handle.write(data[done:ends[i - 1] if i else 0])
            row = tuple(col[i].item() for col in columns)
            handle.write((_EXPORT_FMT % row + "\n").encode())
            done = ends[i]
    handle.write(data[done:])


def export_trajectories(log: dict[str, np.ndarray], path: str | Path) -> Path:
    """Write a trajectory log as CSV, rows sorted by (t, id).

    Each row reads ``_EXPORT_FMT % row``: ints in ``%d`` and floats in
    ``%.6f``, rounded half to even from their exact binary values as
    Python's ``%`` does.  Blocks of rows are spelled column by column
    from the exactly rounded integer ``rint(|x| * 1e6)``; a row holding
    a value this cannot spell exactly (non-finite, too large, or within
    1e-3 of a tie at the sixth decimal) is formatted by ``%`` itself.
    """
    path = Path(path)
    order = np.lexsort((log["id"], log["t"]))
    try:
        with path.open("wb") as handle:
            handle.write(_HEADER.encode() + b"\n")
            for start in range(0, len(order), _BLOCK_ROWS):
                rows = order[start:start + _BLOCK_ROWS]
                _write_rows(handle, [log[name][rows].astype(dtype, copy=False)
                                     for name, dtype in TrajectoryLog.FIELDS.items()])
    except OSError as exc:
        raise RuntimeError(f"cannot write trajectories to {path}: {exc}") from exc
    return path


def load_trajectories(path: str | Path) -> dict[str, np.ndarray]:
    """Read an exported trajectory CSV back into column arrays."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise RuntimeError(f"cannot read trajectories from {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise RuntimeError(f"{path} is not a trajectory export (bad header)")
    if len(lines) == 1:
        return TrajectoryLog().arrays()
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: table[:, j].astype(dtype, copy=False)
            for j, (name, dtype) in enumerate(TrajectoryLog.FIELDS.items())}


# ---------------------------------------------------------------------------
# manifests

@dataclass
class RunManifest:
    """Reproducibility record written beside every run's outputs."""

    config_digest: str
    config_path: str
    mode: str
    seed: int
    started: str
    finished: str
    wall_seconds: float
    outputs: dict[str, str] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: the run's ``SimCounters``
    counters: dict = field(default_factory=dict)
    #: host seconds per step phase (``RunResult.profile``)
    profile: dict = field(default_factory=dict)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# subcommands

def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "runs"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _collided(exc: CollisionError, mode: str, seed: int, out_dir: Path, stem: str) -> None:
    """Name a collided run's mode and seed on stderr and leave its log so far
    in ``<stem>_trajectories_partial.csv``."""
    note = f"{mode} seed {seed} collided"
    if exc.log is not None:
        partial = export_trajectories(exc.log, out_dir / f"{stem}_trajectories_partial.csv")
        note += f"; partial trajectories: {partial}"
    print(note, file=sys.stderr)


def _execute(config: ScenarioConfig, config_path: str, out_dir: Path,
             stem: str) -> tuple[RunManifest, RunMetrics]:
    started = _utc_now()
    tic = time.perf_counter()
    try:
        result = run_scenario(config)
    except CollisionError as exc:
        _collided(exc, config.mode.value, config.seed, out_dir, stem)
        raise
    wall = time.perf_counter() - tic
    traj_path = export_trajectories(result.log, out_dir / f"{stem}_trajectories.csv")
    metrics_path = out_dir / f"{stem}_metrics.json"
    metrics_path.write_text(
        json.dumps(asdict(result.metrics), indent=2, sort_keys=True) + "\n")
    manifest = RunManifest(
        config_digest=config_digest(config),
        config_path=str(config_path),
        mode=config.mode.value,
        seed=config.seed,
        started=started,
        finished=_utc_now(),
        wall_seconds=round(wall, 3),
        outputs={
            "trajectories": str(traj_path),
            "metrics": str(metrics_path),
        },
        metrics=asdict(result.metrics.overall),
        counters=asdict(result.counters),
        profile=result.profile,
    )
    manifest.write(out_dir / f"{stem}_manifest.json")
    return manifest, result.metrics


def _cmd_run(args) -> int:
    config = load_config(args.config, mode=args.mode, seed=args.seed)
    out_dir = _out_dir(args)
    stem = f"run_{config.mode.value}_seed{config.seed}"
    manifest, metrics = _execute(config, args.config, out_dir, stem)
    g = metrics.overall
    print(f"{config.mode.value:>9}: Q {g.q_mph:6.2f} mph, VMT {g.vmt_miles:7.2f} mi, "
          f"VHT {g.vht_hours:6.2f} h, economy {g.economy_mpg:5.2f} mpg")
    for kind, file_path in manifest.outputs.items():
        print(f"  {kind}: {file_path}")
    print(f"  manifest: {out_dir / (stem + '_manifest.json')}")
    return EXIT_OK


def _sweep_one(payload) -> dict:
    """One sweep run's record: its overall metrics and the vehicles left.
    It writes nothing: a collision is reported by the sweep it aborts."""
    config_path, mode, seed = payload
    result = run_scenario(load_config(config_path, mode=mode, seed=seed))
    return {**asdict(result.metrics.overall),
            "vehicles_left": result.final_vehicle_count}


def _mean_sd(values: list[float]) -> tuple[float, float | None]:
    """Mean and sample standard deviation (None for a single value)."""
    x = np.asarray(values, dtype=float)
    return float(x.mean()), float(x.std(ddof=1)) if x.size > 1 else None


#: the paired report's metrics: run record key, column heading, decimals
_PAIRED = (("q_mph", "Q mph", 2), ("economy_mpg", "economy mpg", 2),
           ("vehicles_left", "vehicles left", 1))


def _paired(first: dict, other: dict) -> tuple[dict, list[str]]:
    """Per-seed differences ``first - other`` of two modes' run records, keyed
    by seed, with their mean and standard error, as JSON and as text lines."""
    per_seed = {seed: {key: first[seed][key] - other[seed][key] for key, _, _ in _PAIRED}
                for seed in first}
    stats = {}
    for key, _, _ in _PAIRED:
        mean, sd = _mean_sd([diff[key] for diff in per_seed.values()])
        stats[key] = {"mean": mean,
                      "se": None if sd is None else sd / math.sqrt(len(per_seed))}

    def row(label, values, sign="+"):
        return f"{label:>5}" + "".join(
            f"{'-' if value is None else format(value, f'{sign}.{digits}f'):>15}"
            for value, (_, _, digits) in zip(values, _PAIRED))

    lines = [f"{'seed':>5}" + "".join(f"{head:>15}" for _, head, _ in _PAIRED)]
    lines += [row(seed, diff.values()) for seed, diff in per_seed.items()]
    lines.append(row("mean", [stats[key]["mean"] for key, _, _ in _PAIRED]))
    lines.append(row("se", [stats[key]["se"] for key, _, _ in _PAIRED], sign=""))
    return {"per_seed": per_seed, "stats": stats}, lines


def _cmd_sweep(args) -> int:
    seeds = args.seeds
    modes = args.modes
    for flag, values in (("--seeds", seeds), ("--modes", modes)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:
            raise RuntimeError(f"{flag} lists {repeated} more than once")
    if args.workers < 1:
        raise RuntimeError("--workers must be at least 1")
    seeds = sorted(seeds)
    # config errors should surface before any worker spins up
    load_config(args.config, mode=modes[0], seed=seeds[0])
    out_dir = _out_dir(args)
    jobs = [(args.config, mode, seed) for mode in modes for seed in seeds]
    runs: dict[str, dict[int, dict]] = {mode: {} for mode in modes}
    with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
        # one worker runs in this process: no pool start-up, no pickled results
        records = (pool.map if args.workers > 1 else map)(_sweep_one, jobs)
        try:
            for _, mode, seed in jobs:
                runs[mode][seed] = next(records)
                print(f"  done: {mode} seed {seed}")
        except CollisionError as exc:
            # only the run that aborts the sweep leaves a partial log
            _collided(exc, mode, seed, out_dir, f"sweep_{mode}_seed{seed}")
            raise
        finally:
            # an abort does not wait for the runs queued behind it
            pool.shutdown(cancel_futures=True)

    aggregate = {}
    lines = [f"{'mode':>9} {'seeds':>5} {'Q mph':>14} {'economy mpg':>16} {'VMT mi':>16}"]
    for mode in modes:
        rows = {str(seed): runs[mode][seed] for seed in seeds}
        stats = {}
        for key in ("q_mph", "economy_mpg", "vmt_miles"):
            mean, sd = _mean_sd([run[key] for run in rows.values()])
            stats[key] = {"mean": mean, "sd": sd or 0.0}
        aggregate[mode] = {"seeds": seeds, "stats": stats, "runs": rows}
        lines.append(f"{mode:>9} {len(rows):>5} " + " ".join(
            f"{stats[key]['mean']:>{width}.2f}±{stats[key]['sd']:<5.2f}"
            for key, width in (("q_mph", 8), ("economy_mpg", 10), ("vmt_miles", 10))))
    first = modes[0]
    aggregate[first]["minus"] = {}
    for mode in modes[1:]:
        paired, table = _paired(aggregate[first]["runs"], aggregate[mode]["runs"])
        aggregate[first]["minus"][mode] = paired
        lines += ["", f"{first} minus {mode}, paired by seed (mean, standard error):", *table]
    text = "\n".join(lines) + "\n"
    sweep_json = out_dir / "sweep.json"
    sweep_json.write_text(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
    sweep_json.with_suffix(".txt").write_text(text)
    print()
    print(text, end="")
    print(f"  aggregate: {sweep_json}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config, mode=args.mode, seed=args.seed)
    print(f"# configuration OK: {args.config}")
    print(f"# scenario digest: {config_digest(config)}")
    print(dump_config(config), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampmerge",
        description="Merge-corridor simulation runner and report generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, one_run=True):
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
        if one_run:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config's RNG seed")
            p.add_argument("--mode", choices=[m.value for m in ControlMode],
                           default=None, help="override the config's control mode")

    p_run = sub.add_parser("run", help="execute one simulation")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run modes over seeds: per-mode statistics and paired differences")
    add_common(p_sweep, one_run=False)
    p_sweep.add_argument("--seeds", type=int, nargs="+", required=True,
                         help="explicit seed list")
    p_sweep.add_argument("--modes", nargs="+", default=[m.value for m in ControlMode],
                         choices=[m.value for m in ControlMode],
                         help="modes to run; the first is paired against each other")
    p_sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                         help="parallel worker processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config, print it resolved to SI as YAML")
    add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollisionError as exc:
        print(f"collision abort: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

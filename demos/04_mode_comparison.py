"""Run one short demand scenario under all three control modes.

A compressed version of the shipped studies: ten minutes of heavy ramp
demand, simulated with coordinated control, plain ramp metering, and no
control at all, then compared on throughput and fuel economy.

Pass --full to run the complete 20-minute two-phase study of
``configs/scenario1.yaml`` instead (roughly a minute of compute for the
coordinated mode).
"""
import sys
from pathlib import Path

from rampmerge.cli import load_config
from rampmerge.simulation import (
    ControlMode,
    DemandPhase,
    ScenarioConfig,
    run_scenario,
)

STUDY = Path(__file__).resolve().parents[1] / "configs" / "scenario1.yaml"


def short_config(mode: ControlMode) -> ScenarioConfig:
    return ScenarioConfig(
        phases=[DemandPhase(
            duration=600.0,
            mainline=1500.0 / 3600.0,
            ramp=450.0 / 3600.0,
            suggested=250.0 / 3600.0,
        )],
        mode=mode,
        seed=11,
        name="demo",
    )


full = "--full" in sys.argv[1:]
print(f"{'full two-phase study' if full else 'short single-phase demo'}\n")
print(f"{'mode':>10} {'Q mph':>8} {'VMT mi':>8} {'VHT h':>7} {'mpg':>7}")

rows = {}
for mode in (ControlMode.OPTIMAL, ControlMode.METERING, ControlMode.NONE):
    config = (load_config(STUDY, mode=mode, seed=11) if full
              else short_config(mode))
    metrics = run_scenario(config).metrics.overall
    rows[mode] = metrics
    print(f"{mode.value:>10} {metrics.q_mph:8.2f} {metrics.vmt_miles:8.2f} "
          f"{metrics.vht_hours:7.2f} {metrics.economy_mpg:7.2f}")

opt = rows[ControlMode.OPTIMAL]
for base_mode in (ControlMode.METERING, ControlMode.NONE):
    base = rows[base_mode]
    print(f"\ncoordinated vs {base_mode.value}: "
          f"Q {100.0 * (opt.q_mph / base.q_mph - 1.0):+.1f}%, "
          f"economy {100.0 * (opt.economy_mpg / base.economy_mpg - 1.0):+.1f}%")

"""Exact pins on the recovery-target rule of both DES engines.

The golden pins (``tests/test_golden_regression.py``) run flat,
uncapped, SMART-off systems with the default :class:`PolicyConfig`, so
they never reach the failure-domain cap, the SMART preference or a
non-default policy.  These pins do: every field of
:class:`RecoveryStats` is compared, on both engines, for

* a small rack-capped system (4 racks x 2 machines, one block of a
  group per rack) with SMART on and a 20x hazard, where constrained
  deferrals, retries and losses all happen, FARM and traditional;
* a three-way-mirrored system capped at two blocks per rack, where
  losses co-located in one rack are counted and replacement batches
  migrate blocks;
* the object engine under the three ``run_policy`` ablation variants on
  its dense 60-disk system.

Only the fields that differ from a fresh ``RecoveryStats()`` are written
out; the comparison is on the full ``dataclasses.asdict``.  Re-pin only
for an intentional behaviour change, and say so in the commit message.
"""

from dataclasses import asdict

import pytest

from repro.config import SystemConfig
from repro.core import PolicyConfig, RecoveryStats, simulate_run
from repro.redundancy.schemes import MIRROR_3
from repro.reliability import ReliabilitySimulation
from repro.units import GB, TB, YEAR

PIN_CAPPED = {
    ("fast", False, 1):
        {"disk_failures": 12,
         "rebuilds_completed": 437,
         "rebuilds_started": 437,
         "unavail_group_seconds": 5419360.0,
         "unavail_max": 30030.0,
         "unavail_spans": 437,
         "window_max": 30030.0,
         "window_total": 5419360.0},
    ("fast", False, 2):
        {"disk_failures": 12,
         "rebuilds_completed": 481,
         "rebuilds_started": 481,
         "unavail_group_seconds": 6383805.0,
         "unavail_max": 31280.0,
         "unavail_spans": 481,
         "window_max": 31280.0,
         "window_total": 6383805.0},
    ("fast", True, 1):
        {"bytes_lost": 100000000000.0,
         "disk_failures": 7,
         "first_loss_time": 54587514.13103776,
         "groups_lost": 10,
         "rebuilds_completed": 298,
         "rebuilds_deferred": 90,
         "rebuilds_deferred_constraint": 27,
         "rebuilds_started": 298,
         "retries": 1500,
         "unavail_group_seconds": 716753820.0558878,
         "unavail_max": 10488789.430074483,
         "unavail_spans": 378,
         "window_max": 14405.0,
         "window_total": 1200190.0},
    ("fast", True, 2):
        {"bytes_lost": 180000000000.0,
         "disk_failures": 7,
         "first_loss_time": 58727922.045776695,
         "groups_lost": 18,
         "rebuilds_completed": 325,
         "rebuilds_deferred": 82,
         "rebuilds_deferred_constraint": 33,
         "rebuilds_started": 325,
         "retries": 1393,
         "unavail_group_seconds": 484597694.60391164,
         "unavail_max": 17879921.656464674,
         "unavail_spans": 389,
         "window_max": 20030.0,
         "window_total": 1422250.0},
    ("object", False, 1):
        {"disk_failures": 12,
         "rebuilds_completed": 437,
         "rebuilds_started": 437,
         "unavail_group_seconds": 5419360.0,
         "unavail_max": 30030.0,
         "unavail_spans": 437,
         "window_max": 30030.0,
         "window_total": 5419360.0},
    ("object", False, 2):
        {"disk_failures": 12,
         "rebuilds_completed": 481,
         "rebuilds_started": 481,
         "unavail_group_seconds": 6383805.0,
         "unavail_max": 31280.0,
         "unavail_spans": 481,
         "window_max": 31280.0,
         "window_total": 6383805.0},
    ("object", True, 1):
        {"bytes_lost": 160000000000.0,
         "disk_failures": 7,
         "first_loss_time": 54587514.13103776,
         "groups_lost": 16,
         "rebuilds_completed": 301,
         "rebuilds_deferred": 84,
         "rebuilds_deferred_constraint": 33,
         "rebuilds_started": 301,
         "retries": 1380,
         "unavail_group_seconds": 614446679.6283404,
         "unavail_max": 10488789.430074483,
         "unavail_spans": 369,
         "window_max": 16280.0,
         "window_total": 1225280.0},
    ("object", True, 2):
        {"bytes_lost": 160000000000.0,
         "disk_failures": 7,
         "first_loss_time": 58727922.045776695,
         "groups_lost": 16,
         "rebuilds_completed": 322,
         "rebuilds_deferred": 84,
         "rebuilds_deferred_constraint": 36,
         "rebuilds_started": 322,
         "retries": 1436,
         "unavail_group_seconds": 569598059.9320116,
         "unavail_max": 17879921.656464674,
         "unavail_spans": 390,
         "window_max": 18155.0,
         "window_total": 1410285.0},
}

PIN_COLOCATED = {
    ("fast", False):
        {"blocks_migrated": 175,
         "disk_failures": 8,
         "domain_colocated_losses": 109,
         "rebuilds_completed": 276,
         "rebuilds_started": 276,
         "replacement_batches": 2,
         "unavail_group_seconds": 3098280.0,
         "unavail_max": 24405.0,
         "unavail_spans": 276,
         "window_max": 24405.0,
         "window_total": 3098280.0},
    ("fast", True):
        {"blocks_migrated": 198,
         "disk_failures": 7,
         "domain_colocated_losses": 116,
         "rebuilds_completed": 271,
         "rebuilds_started": 271,
         "replacement_batches": 2,
         "unavail_group_seconds": 227505.0,
         "unavail_max": 1905.0,
         "unavail_spans": 271,
         "window_max": 1905.0,
         "window_total": 227505.0},
    ("object", False):
        {"disk_failures": 7,
         "domain_colocated_losses": 105,
         "rebuilds_completed": 269,
         "rebuilds_started": 269,
         "unavail_group_seconds": 3350570.0,
         "unavail_max": 28780.0,
         "unavail_spans": 269,
         "window_max": 28780.0,
         "window_total": 3350570.0},
    ("object", True):
        {"blocks_migrated": 204,
         "disk_failures": 7,
         "domain_colocated_losses": 114,
         "rebuilds_completed": 279,
         "rebuilds_started": 279,
         "replacement_batches": 2,
         "unavail_group_seconds": 253370.0,
         "unavail_max": 3780.0,
         "unavail_spans": 279,
         "window_max": 3780.0,
         "window_total": 253370.0},
}

PIN_POLICY = {
    "full":
        {"disk_failures": 4,
         "rebuilds_completed": 296,
         "rebuilds_started": 296,
         "unavail_group_seconds": 249505.0,
         "unavail_max": 1905.0,
         "unavail_spans": 296,
         "window_max": 1905.0,
         "window_total": 249505.0},
    "no-buddy-check":
        {"bytes_lost": 40000000000.0,
         "disk_failures": 4,
         "first_loss_time": 96544913.98916204,
         "groups_lost": 4,
         "rebuilds_completed": 288,
         "rebuilds_started": 288,
         "unavail_group_seconds": 240515.0,
         "unavail_max": 2530.0,
         "unavail_spans": 288,
         "window_max": 2530.0,
         "window_total": 240515.0},
    "no-idle-pref":
        {"disk_failures": 4,
         "rebuilds_completed": 298,
         "rebuilds_started": 298,
         "unavail_group_seconds": 316440.0,
         "unavail_max": 3155.0,
         "unavail_spans": 298,
         "window_max": 3155.0,
         "window_total": 316440.0},
}


def capped_cfg(use_farm: bool) -> SystemConfig:
    cfg = SystemConfig(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                       racks=4, machines_per_rack=2, max_chunks_per_domain=1,
                       use_smart=True, duration=2 * YEAR, use_farm=use_farm)
    return cfg.with_(vintage=cfg.vintage.with_rate_multiplier(20.0))


def colocated_cfg(use_farm: bool) -> SystemConfig:
    cfg = SystemConfig(total_user_bytes=4 * TB, group_user_bytes=10 * GB,
                       scheme=MIRROR_3, racks=4, machines_per_rack=2,
                       max_chunks_per_domain=2, use_smart=True,
                       duration=YEAR, replacement_threshold=0.1,
                       use_farm=use_farm)
    return cfg.with_(vintage=cfg.vintage.with_rate_multiplier(10.0))


def dense_cfg() -> SystemConfig:
    """The ``run_policy`` ablation system: 60 disks at 80%."""
    return SystemConfig(total_user_bytes=24 * TB, group_user_bytes=10 * GB,
                        target_utilization=0.80)


POLICIES = {
    "full": PolicyConfig(),
    "no-buddy-check": PolicyConfig(forbid_buddy=False),
    "no-idle-pref": PolicyConfig(prefer_idle=False),
}


def run(engine: str, cfg: SystemConfig, seed: int) -> RecoveryStats:
    if engine == "object":
        return simulate_run(cfg, seed=seed).stats
    return ReliabilitySimulation(cfg, seed=seed).run()


def expected(pin: dict) -> dict:
    return {**asdict(RecoveryStats()), **pin}


@pytest.mark.parametrize("engine,use_farm,seed", sorted(PIN_CAPPED))
def test_rack_capped_smart(engine, use_farm, seed):
    stats = run(engine, capped_cfg(use_farm), seed)
    assert asdict(stats) == expected(PIN_CAPPED[engine, use_farm, seed])


@pytest.mark.parametrize("engine,use_farm", sorted(PIN_COLOCATED))
def test_colocated_losses(engine, use_farm):
    stats = run(engine, colocated_cfg(use_farm), 1)
    assert asdict(stats) == expected(PIN_COLOCATED[engine, use_farm])


@pytest.mark.parametrize("label", sorted(PIN_POLICY))
def test_policy_variants(label):
    stats = simulate_run(dense_cfg(), seed=0, policy=POLICIES[label]).stats
    assert asdict(stats) == expected(PIN_POLICY[label])

"""The recovery ledger (repro.core.ledger): the one implementation of held
lazy rebuilds, unavailability spans, deferral backoff and loss/completion
accounting that both DES engines share."""

import pytest

from repro.cluster import StorageSystem
from repro.config import SystemConfig
from repro.core import FarmRecovery
from repro.core.ledger import (RETRY_BASE_S, RETRY_MAX_DOUBLINGS,
                               LedgerOwner, RecoveryLedger)
from repro.core.recovery import RecoveryStats
from repro.reliability.simulation import ReliabilitySimulation
from repro.sim import RandomStreams, Simulator
from repro.units import GB, MINUTE


class FakeState(LedgerOwner):
    """Group state held in a dict of missing counts and a rebuilt set."""

    def __init__(self):
        self.missing = {}
        self.rebuilt = set()

    def missing_blocks(self, grp_id):
        return self.missing.get(grp_id, 0)

    def awaits_rebuild(self, grp_id, rep):
        return (grp_id, rep) not in self.rebuilt


def make_ledger(threshold=2, tolerance=2):
    return RecoveryLedger(RecoveryStats(), None, threshold=threshold,
                          tolerance=tolerance, n=4, user_bytes=10 * GB)


class TestBackoff:
    def test_delay_doubles_then_clamps_at_sixteen_doublings(self):
        ledger = make_ledger()
        assert ledger.defer((0, 1), constrained=False)
        delays = [ledger.backoff((0, 1)) for _ in range(20)]
        assert delays[:3] == [MINUTE, 2 * MINUTE, 4 * MINUTE]
        assert delays[16] == MINUTE * 2.0 ** 16
        assert delays[16:] == [MINUTE * 2.0 ** 16] * 4
        assert RETRY_BASE_S == MINUTE and RETRY_MAX_DOUBLINGS == 16

    def test_rearm_restarts_the_doubling(self):
        ledger = make_ledger()
        ledger.defer((3, 0), constrained=False)
        for _ in range(5):
            ledger.backoff((3, 0))
        ledger.deferred[(3, 0)] = 0         # what a re-arm does
        assert ledger.backoff((3, 0)) == MINUTE

    def test_deferral_counted_once_per_block(self):
        ledger = make_ledger()
        assert ledger.defer((1, 0), constrained=True)
        assert not ledger.defer((1, 0), constrained=True)
        assert ledger.defer((1, 1), constrained=False)
        assert ledger.stats.rebuilds_deferred == 2
        assert ledger.stats.rebuilds_deferred_constraint == 1

    def test_retry_counts_and_forgets_resolved_blocks(self):
        ledger, state = make_ledger(), FakeState()
        ledger.defer((0, 0), constrained=False)
        assert ledger.retry(state, (0, 0))
        state.rebuilt.add((0, 0))
        assert not ledger.retry(state, (0, 0))  # resolved: forgotten
        assert not ledger.retry(state, (0, 0))  # stale: no longer parked
        assert ledger.stats.retries == 1
        assert ledger.deferred == {}


class TestHeldRebuilds:
    def test_hold_below_threshold_then_release_most_at_risk_first(self):
        ledger, state = make_ledger(threshold=2, tolerance=2), FakeState()
        state.missing[7] = 1
        n_held, queue = ledger.hold(state, [(7, 3)], now=10.0, origin=5)
        assert n_held == 1 and not queue
        assert ledger.held == {7: [(3, 10.0, 5)]}
        state.missing.update({7: 2, 8: 1})
        ledger.held[8] = [(0, 1.0, 4)]
        n_held, queue = ledger.hold(state, [(7, 1)], now=20.0, origin=6)
        assert n_held == 0
        assert list(ledger.release(state, queue)) == [(7, 3, 10.0, 5),
                                                      (7, 1, 20.0, 6)]
        assert ledger.held == {8: [(0, 1.0, 4)]}
        assert ledger.stats.rebuilds_held == 1

    def test_release_ready_orders_by_surviving_redundancy(self):
        ledger, state = make_ledger(threshold=1, tolerance=2), FakeState()
        ledger.held = {1: [(0, 5.0, 0)], 2: [(0, 9.0, 0)]}
        state.missing.update({1: 1, 2: 2})  # group 2 is closer to loss
        released = list(ledger.release(state, ledger.release_ready(state)))
        assert [g for g, *_ in released] == [2, 1]
        assert ledger.held == {}

    def test_release_skips_resolved_blocks(self):
        ledger, state = make_ledger(threshold=1), FakeState()
        state.missing[4] = 2
        _, queue = ledger.hold(state, [(4, 0), (4, 1)], now=0.0, origin=0)
        state.rebuilt.add((4, 0))
        assert [r for _, r, _, _ in ledger.release(state, queue)] == [1]


class TestSpansAndLoss:
    def test_span_opens_once_and_closes_on_repair(self):
        ledger = make_ledger()
        ledger.block_failed(2, 0, 100.0)
        ledger.block_failed(2, 1, 150.0)
        assert ledger.degraded_since == {2: 100.0}
        ledger.completed(2, 0, 100.0, 400.0, restored=False)
        ledger.completed(2, 1, 150.0, 500.0, restored=True)
        s = ledger.stats
        assert s.unavail_spans == 1 and s.unavail_group_seconds == 400.0
        assert s.rebuilds_completed == 2
        assert s.window_total == 650.0 and s.window_max == 350.0

    def test_loss_drops_span_and_held_entries(self):
        ledger = make_ledger()
        ledger.block_failed(5, 0, 1.0)
        ledger.held[5] = [(0, 1.0, 0)]
        ledger.lost(5, 9.0)
        ledger.lost(6, 12.0)
        s = ledger.stats
        assert (s.groups_lost, s.bytes_lost, s.first_loss_time) == (
            2, 20 * GB, 9.0)
        assert ledger.degraded_since == {} and ledger.held == {}
        ledger.finalize(100.0)
        assert s.unavail_spans == 0

    def test_finalize_closes_open_spans(self):
        ledger = make_ledger()
        ledger.block_failed(9, 0, 40.0)
        ledger.block_failed(3, 0, 10.0)
        ledger.finalize(100.0)
        assert ledger.stats.unavail_spans == 2
        assert ledger.stats.unavail_group_seconds == 150.0
        assert ledger.stats.unavail_max == 90.0

    def test_capture_restore_round_trip(self):
        ledger = make_ledger()
        ledger.held = {4: [(0, 2.0, 1), (2, 3.0, 1)]}
        ledger.block_failed(4, 0, 2.0)
        ledger.defer((4, 1), constrained=False)
        ledger.backoff((4, 1))
        state = ledger.capture()
        clone = make_ledger()
        clone.restore(RecoveryStats(), **state)
        assert clone.capture() == state
        assert clone.held == ledger.held
        assert clone.backoff((4, 1)) == 2 * MINUTE


def _stuck_mirror(engine):
    """A 2-disk mirror with disk 1 killed at t=0: the survivor holds
    every buddy, so no FARM rebuild can ever find a target."""
    config = SystemConfig(total_user_bytes=100 * GB,
                          group_user_bytes=10 * GB)
    if engine == "object":
        system = StorageSystem(config, RandomStreams(0),
                               deterministic_failures=True)
        assert system.n_disks == 2
        sim = Simulator()
        farm = FarmRecovery(system, sim)
        sim.schedule_at(0.0, farm.on_disk_failure, 1)
        return config, sim, farm
    fast = ReliabilitySimulation(config, seed=0)
    assert fast.N0 == 2
    fast.sim.schedule_at(0.0, fast._on_disk_failure, 1)
    return config, fast.sim, fast


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_stuck_rebuilds_retry_on_the_doubling_schedule(engine):
    """Every parked rebuild's k-th retry fires at detection + 60 s *
    (1 + 2 + ... + 2**(k-1)), the doubling clamped at 2**16: count the
    retries just after the 5th and just after the 18th firing."""
    config, sim, engine_ = _stuck_mirror(engine)
    blocks = config.n_groups
    first_try = config.detection_latency
    delays = [MINUTE * 2.0 ** min(i, 16) for i in range(20)]
    for k in (5, 18):
        fired_at = first_try + sum(delays[:k])
        sim.run(until=fired_at + delays[k] / 2)     # before retry k+1
        assert engine_.stats.retries == k * blocks
    assert engine_.stats.rebuilds_deferred == blocks
    assert engine_.stats.rebuilds_completed == 0
    assert engine_.deferred_outstanding == blocks

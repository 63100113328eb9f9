"""Tests for FARM target selection (repro.core.policy)."""

import pytest

from repro.cluster import StorageSystem
from repro.config import SystemConfig
from repro.core import PolicyConfig, TargetSelector
from repro.core.policy import CANDIDATE_WINDOW, choose_target
from repro.sim import RandomStreams
from repro.units import GB, TB


def build_system(**kw):
    defaults = dict(total_user_bytes=4 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return StorageSystem(SystemConfig(**defaults), RandomStreams(0))


@pytest.fixture
def system():
    return build_system()


class TestHardConstraints:
    def test_target_is_alive_no_buddy_and_fits(self, system):
        selector = TargetSelector(system)
        group = system.groups[0]
        nbytes = system.config.block_bytes
        target, _ = selector.select(group, nbytes, now=0.0)
        assert system.disks[target].online
        assert not group.holds_buddy(target)
        assert system.disks[target].free_bytes >= nbytes

    def test_dead_candidates_skipped(self, system):
        selector = TargetSelector(system)
        group = system.groups[0]
        nbytes = system.config.block_bytes
        first, _ = selector.select(group, nbytes, now=0.0)
        system.fail_disk(first, now=1.0)
        second, _ = selector.select(group, nbytes, now=1.0)
        assert second != first and system.disks[second].online

    def test_buddy_disks_never_selected(self, system):
        selector = TargetSelector(system)
        nbytes = system.config.block_bytes
        for group in system.groups[:50]:
            target, _ = selector.select(group, nbytes, now=0.0)
            assert target not in group.disks

    def test_full_disks_skipped(self, system):
        selector = TargetSelector(system)
        group = system.groups[0]
        # Fill every disk except one non-buddy disk.
        keep = next(d.disk_id for d in system.disks
                    if d.disk_id not in group.disks)
        for disk in system.disks:
            if disk.disk_id != keep:
                disk.used_bytes = disk.capacity_bytes
        target, _ = selector.select(group, system.config.block_bytes, now=0.0)
        assert target == keep

    def test_no_target_raises(self, system):
        """A full system yields no target; no rack cap, so unconstrained."""
        selector = TargetSelector(system)
        group = system.groups[0]
        for disk in system.disks:
            disk.used_bytes = disk.capacity_bytes
        assert selector.select(group, system.config.block_bytes,
                               now=0.0) == (None, False)


class TestSoftConstraints:
    def test_prefers_idle_target(self, system):
        selector = TargetSelector(system)
        group = system.groups[0]
        nbytes = system.config.block_bytes
        preferred, _ = selector.select(group, nbytes, now=0.0)
        # Make the preferred candidate busy: selection must move on...
        busy = {preferred: 100.0}
        second, _ = selector.select(group, nbytes, now=0.0,
                                    busy_until=lambda d: busy.get(d, 0.0))
        assert second != preferred

    def test_sticks_with_busy_target_when_all_busy(self, system):
        """Paper: 'if there is no better alternative, we will stick to
        it' — soft constraints relax rather than fail."""
        selector = TargetSelector(system)
        group = system.groups[0]
        nbytes = system.config.block_bytes
        target, _ = selector.select(group, nbytes, now=0.0,
                                    busy_until=lambda d: 1e9)
        assert system.disks[target].online

    def test_policy_flags_can_disable_constraints(self, system):
        group = system.groups[0]
        nbytes = system.config.block_bytes
        # Without the idle preference a busy first choice is kept.
        first, _ = TargetSelector(system).select(group, nbytes, now=0.0)
        no_idle = TargetSelector(system, PolicyConfig(prefer_idle=False))
        assert no_idle.select(group, nbytes, now=0.0,
                              busy_until=lambda d: 1e9) == (first, False)
        # With the buddy check off, a buddy disk is acceptable.
        for disk in system.disks:
            if disk.disk_id not in group.disks:
                disk.used_bytes = disk.capacity_bytes
        assert TargetSelector(system).select(group, nbytes,
                                             now=0.0) == (None, False)
        buddies = TargetSelector(system, PolicyConfig(forbid_buddy=False))
        target, _ = buddies.select(group, nbytes, now=0.0)
        assert target in group.disks


class TestCandidateOrigin:
    def test_targets_come_from_candidate_list_prefix(self, system):
        """Selection walks the group's RUSH/hash candidate list, so with no
        constraints binding, the chosen disk appears early in that list."""
        selector = TargetSelector(system)
        group = system.groups[5]
        candidates = system.placement.candidates(
            group.grp_id,
            min(len(system.disks), group.scheme.n + CANDIDATE_WINDOW))
        target, _ = selector.select(group, system.config.block_bytes,
                                    now=0.0)
        assert target in candidates


class TestChooseTarget:
    """The §2.3 walk shared by both engines, on plain disk ids."""

    def test_later_preferred_beats_earlier_admissible(self):
        assert choose_target([1, 2, 3], lambda d: True, None,
                             lambda d: d == 3, []) == (3, False)

    def test_relaxation_returns_first_admissible(self):
        assert choose_target([1, 2, 3, 4], lambda d: d >= 2, None,
                             lambda d: False, [9]) == (2, False)

    def test_full_scan_only_when_candidates_yield_nothing(self):
        scans = []

        def everyone():
            scans.append("scan")
            yield from range(10)

        assert choose_target([1, 2], lambda d: d == 2, None,
                             lambda d: False, everyone()) == (2, False)
        assert scans == []
        assert choose_target([1, 2], lambda d: d == 7, None,
                             lambda d: True, everyone()) == (7, False)
        assert scans == ["scan"]

    def test_constrained_only_when_vetoed_and_nothing_found(self):
        capped = choose_target([1, 2], lambda d: True, lambda d: d != 1,
                               lambda d: True, [])
        assert capped == (2, False)     # vetoed 1, but found 2
        assert choose_target([1, 2], lambda d: True, lambda d: False,
                             lambda d: True, [3]) == (None, True)
        assert choose_target([1, 2], lambda d: False, lambda d: False,
                             lambda d: True, [3]) == (None, False)
        assert choose_target([], lambda d: d == 3, lambda d: d != 3,
                             lambda d: True, [3]) == (None, True)

    def test_preferred_asked_in_order_on_admissible_in_cap_only(self):
        """SMART draws a disk's coin on first ask: the walk must ask only
        admissible, in-cap candidates, in order, up to the first True."""
        asked = []

        def preferred(d):
            asked.append(d)
            return d == 5

        target = choose_target([1, 2, 3, 4, 5, 6, 5], lambda d: d != 2,
                               lambda d: d != 3, preferred, range(10))
        assert target == (5, False)
        assert asked == [1, 4, 5]

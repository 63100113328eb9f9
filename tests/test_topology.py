"""Failure-domain topology: tree model, placement constraint, copysets.

Covers the hierarchy invariants (round-robin tiling, slot inheritance,
stability across compaction), the ``max_chunks_per_domain`` feasibility
validation and placement repair pass, rack-aware copyset placement, and
the acceptance property: across random placements, migrations, and
rebuilds on both engines, the per-rack cap is never violated and
constraint-blocked rebuilds surface in ``RecoveryStats``.
"""

import numpy as np
import pytest

from repro.cluster import StorageSystem, Topology, enforce_domain_constraint
from repro.cluster import topology as topology_mod
from repro.config import SystemConfig
from repro.core import FarmRecovery, TraditionalRecovery, simulate_run
from repro.placement import (CopysetPlacement, PlacementError,
                             RandomPlacement, RushPlacement)
from repro.reliability import ReliabilitySimulation
from repro.sim import RandomStreams, Simulator
from repro.units import DAY, GB, HOUR, TB

BOTH_ENGINES = pytest.mark.parametrize("use_farm", [True, False],
                                       ids=["farm", "traditional"])


def rack_ok(topology, disk_ids, limit):
    """True when no rack holds more than ``limit`` of ``disk_ids``."""
    return all(c <= limit
               for c in topology.rack_counts(disk_ids).values())


class TestTopologyTree:
    def test_round_robin_tiling(self):
        topo = Topology(racks=2, machines_per_rack=3, n_disks=12)
        assert topo.n_machines == 6
        assert [topo.machine_of(d) for d in range(12)] == \
            [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
        assert [topo.rack_of(d) for d in range(6)] == [0, 0, 0, 1, 1, 1]

    def test_flat_default_is_single_domain(self):
        topo = Topology(1, 1, n_disks=50)
        assert topo.is_flat
        assert topo.disks_in_rack(0) == list(range(50))
        assert topo.n_domains("rack") == 1
        assert topo.n_domains("machine") == 1

    def test_slot_inheritance(self):
        topo = Topology(racks=4, machines_per_rack=1, n_disks=8)
        # A replacement for disk 5 (machine 1) joins machine 1; a batch
        # disk without a slot tiles round-robin from the population size.
        assert topo.add_disk(slot_of=5) == topo.machine_of(5)
        assert topo.machine_of(8) == 1
        assert topo.add_disk() == 9 % 4
        assert topo.n_disks == 10

    def test_domain_queries(self):
        topo = Topology(racks=2, machines_per_rack=2, n_disks=8)
        assert topo.disks_in_machine(1) == [1, 5]
        assert topo.disks_in_rack(1) == [2, 3, 6, 7]
        assert topo.domain_disks("machine", 1) == [1, 5]
        assert topo.domain_disks("rack", 1) == [2, 3, 6, 7]
        assert topo.rack_counts([0, 1, 2, 3]) == {0: 2, 1: 2}
        assert list(topo.rack_array()) == [0, 0, 1, 1, 0, 0, 1, 1]
        with pytest.raises(ValueError):
            topo.domain_disks("shelf", 0)
        with pytest.raises(ValueError):
            topo.disks_in_rack(2)

    def test_from_assignments_round_trip(self):
        topo = Topology(3, 2, n_disks=10)
        topo.add_disk(slot_of=0)
        clone = Topology.from_assignments(3, 2, topo.assignments())
        assert clone.assignments() == topo.assignments()
        with pytest.raises(ValueError):
            Topology.from_assignments(1, 1, [0, 1])

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Topology(0, 1)
        with pytest.raises(ValueError):
            Topology(1, 0)
        with pytest.raises(ValueError):
            Topology(1, 1, n_disks=-1)


class TestConfigValidation:
    def test_flat_defaults(self):
        cfg = SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB)
        assert cfg.racks == 1 and cfg.machines_per_rack == 1
        assert cfg.max_chunks_per_domain is None

    def test_infeasible_cap_rejected(self):
        # 2-way mirroring with 1 rack and cap 1: no legal placement.
        with pytest.raises(ValueError, match="infeasible"):
            SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB,
                         max_chunks_per_domain=1)

    def test_more_machines_than_disks_rejected(self):
        # Underpopulated machines only matter once the cap constrains
        # placement; without a cap the shape is allowed (machines idle).
        with pytest.raises(ValueError, match="every machine populated"):
            SystemConfig(total_user_bytes=40 * GB, group_user_bytes=10 * GB,
                         racks=8, machines_per_rack=4,
                         max_chunks_per_domain=1)
        SystemConfig(total_user_bytes=40 * GB, group_user_bytes=10 * GB,
                     racks=8, machines_per_rack=4)

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB,
                         racks=0)


class TestEnforceDomainConstraint:
    def test_repairs_colocated_rows(self):
        topo = Topology(racks=4, machines_per_rack=1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(200), 2)
        fixed = enforce_domain_constraint(matrix, topo, 1, placement)
        rack = topo.rack_array()
        assert (rack[fixed[:, 0]] != rack[fixed[:, 1]]).all()
        assert (fixed[:, 0] != fixed[:, 1]).all()

    def test_none_limit_is_identity(self):
        topo = Topology(4, 1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(50), 2)
        before = matrix.copy()
        assert (enforce_domain_constraint(matrix, topo, None, placement)
                == before).all()

    def test_compliant_rows_untouched(self):
        """Only violating rows are re-placed: the repair pass must not
        shuffle groups that already satisfy the cap."""
        topo = Topology(racks=4, machines_per_rack=1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(200), 2)
        before = matrix.copy()
        rack = topo.rack_array()
        ok = rack[before[:, 0]] != rack[before[:, 1]]
        fixed = enforce_domain_constraint(matrix, topo, 1, placement)
        assert (fixed[ok] == before[ok]).all()
        assert not ok.all()          # the seed does produce violations


def _per_row_walk(grp_id, n, topology, limit, placement):
    """Reference repair of one row: re-walk the doubling candidate lists,
    then scan disks linearly."""
    chosen, counts = [], {}

    def admit(d):
        if d in chosen:
            return False
        r = topology.rack_of(d)
        if counts.get(r, 0) >= limit:
            return False
        chosen.append(d)
        counts[r] = counts.get(r, 0) + 1
        return True

    want = n
    while len(chosen) < n and want <= placement.n_disks:
        try:
            cands = placement.candidates(grp_id, want)
        except PlacementError:
            break
        for d in cands:
            if admit(d) and len(chosen) == n:
                return chosen
        if want == placement.n_disks:
            break
        want = min(want * 2, placement.n_disks)
    for d in range(placement.n_disks):
        if admit(d) and len(chosen) == n:
            return chosen
    raise PlacementError(f"group {grp_id}: infeasible")


def _reference_repair(matrix, topology, limit, placement):
    """Re-place every violating row with the reference walk."""
    rack = topology.rack_array()
    for g, row in enumerate(matrix):
        if max(np.bincount(rack[row])) > limit:
            matrix[g] = _per_row_walk(g, matrix.shape[1], topology, limit,
                                      placement)
    return matrix


def _placement(kind, n_disks, n, seed):
    if kind == "rush":
        return RushPlacement(n_disks, seed=seed)
    if kind == "copyset":
        # Without a topology the copysets ignore racks, so plenty of rows
        # need repair and the walk past the copyset prefix is exercised.
        return CopysetPlacement(n_disks, group_size=n, seed=seed)
    return RandomPlacement(n_disks, seed=seed)


class TestRepairMatchesPerRowWalk:
    """The batched prefix repair must place every row exactly where the
    reference per-row walk does, for every placement and cap."""

    N_BLOCKS = 4

    @pytest.mark.parametrize("kind", ["random", "rush", "copyset"])
    @pytest.mark.parametrize("racks,machines,n_disks",
                             [(2, 3, 18), (3, 2, 24), (5, 1, 40),
                              (8, 2, 96)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical(self, kind, racks, machines, n_disks, seed):
        n = self.N_BLOCKS
        topo = Topology(racks, machines, n_disks)
        for limit in range(1, n):
            if racks * limit < n:
                continue
            placement = _placement(kind, n_disks, n, seed)
            matrix = placement.place_many(np.arange(300), n)
            expected = _reference_repair(matrix.copy(), topo, limit,
                                         placement)
            got = enforce_domain_constraint(matrix, topo, limit, placement)
            assert (got == expected).all(), (kind, limit)

    def test_tiny_pool_falls_back_past_the_prefix(self, monkeypatch):
        """Two disks per rack: random placement's probe prefix often
        repeats a disk, so some rows need more candidates than it holds
        and go through the full walk."""
        calls = []
        full_walk = topology_mod._constrained_row

        def counting(*args):
            calls.append(args[0])
            return full_walk(*args)

        monkeypatch.setattr(topology_mod, "_constrained_row", counting)
        topo = Topology(3, 1, 6)
        placement = RandomPlacement(6, seed=1)
        matrix = placement.place_many(np.arange(200), 3)
        expected = _reference_repair(matrix.copy(), topo, 1, placement)
        got = enforce_domain_constraint(matrix, topo, 1, placement)
        assert (got == expected).all()
        assert calls

    def test_prefix_longer_than_the_reachable_schedule(self):
        """Lists here end at five disks, so the scalar walk stops after
        asking for 2 and 4 and scans linearly; a row the fifth prefix
        entry would complete must not be taken from the prefix."""

        class FiveCandidates(RandomPlacement):
            def candidates(self, grp_id, count):
                if count > 5:
                    raise PlacementError("lists end at five disks")
                return super().candidates(grp_id, count)

            def candidate_prefixes(self, grp_ids, k):
                return [self.candidates(int(g), 5) for g in grp_ids]

        topo = Topology(2, 1, 40)
        placement = FiveCandidates(40, seed=2)
        matrix = placement.place_many(np.arange(200), 2)
        expected = _reference_repair(matrix.copy(), topo, 1, placement)
        got = enforce_domain_constraint(matrix, topo, 1, placement)
        assert (got == expected).all()


class TestCopysetPlacement:
    def _topo(self):
        return Topology(racks=4, machines_per_rack=1, n_disks=16)

    def test_copysets_are_distinct_and_rack_spanning(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        topo = self._topo()
        for g in range(100):
            cs = cp.copyset_of(g)
            assert len(set(cs)) == 2
            assert rack_ok(topo, cs, 1)

    def test_candidates_prefix_stable(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        for g in (0, 7, 99):
            c4 = cp.candidates(g, 4)
            assert cp.candidates(g, 2) == c4[:2]
            assert len(set(c4)) == 4

    def test_place_many_matches_copyset_of(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        mat = cp.place_many(np.arange(30), 2)
        for g in range(30):
            assert list(mat[g]) == cp.copyset_of(g)

    def test_added_disks_probe_but_do_not_join_copysets(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        before = [cp.copyset_of(g) for g in range(20)]
        cp.add_disks(8)
        assert cp.n_disks == 24
        assert [cp.copyset_of(g) for g in range(20)] == before


def constrained_cfg(**kw):
    defaults = dict(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                    racks=4, machines_per_rack=1, max_chunks_per_domain=1)
    defaults.update(kw)
    return SystemConfig(**defaults)


def assert_system_compliant(system):
    limit = system.config.max_chunks_per_domain
    for g in system.groups:
        live = [d for rep, d in enumerate(g.disks)
                if rep not in g.failed and d >= 0]
        assert rack_ok(system.topology, live, limit), (
            f"group {g.grp_id}: rack cap violated: {live}")


class TestDomainConstraintProperty:
    """Acceptance property: ``max_chunks_per_domain`` is never violated
    across random placements, migrations, and rebuilds; constraint-blocked
    rebuilds appear in ``RecoveryStats.rebuilds_deferred_constraint``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("placement", ["random", "copyset"])
    def test_object_engine_end_state_compliant(self, seed, placement):
        # An aggressive replacement threshold forces batches + migration
        # mid-run, exercising every path that moves blocks.
        cfg = constrained_cfg(placement=placement,
                              replacement_threshold=0.1)
        result = simulate_run(cfg, seed=seed, keep_system=True)
        assert_system_compliant(result.system)
        s = result.stats
        assert s.rebuilds_deferred >= s.rebuilds_deferred_constraint

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fast_engine_end_state_compliant(self, seed):
        cfg = constrained_cfg(replacement_threshold=0.1)
        sim = ReliabilitySimulation(cfg, seed=seed)
        stats = sim.run()
        rack = sim.topology.rack_array()
        for g in range(sim.G):
            live = sim.group_disks[g][sim.group_disks[g] >= 0]
            counts = np.bincount(rack[live])
            assert (counts <= 1).all(), f"group {g}: {live}"
        assert stats.rebuilds_deferred >= stats.rebuilds_deferred_constraint

    def test_flat_run_has_zero_domain_counters(self):
        cfg = SystemConfig(total_user_bytes=2 * TB, group_user_bytes=10 * GB)
        s = simulate_run(cfg, seed=5).stats
        assert s.rebuilds_deferred_constraint == 0
        assert s.domain_colocated_losses == 0


class TestConstrainedDeferral:
    """A rebuild whose only compliant target rack has no live capacity
    defers (never violates) and drains once a batch restores the rack."""

    def _build(self, use_farm):
        # racks=2, cap=1, 4 disks: every mirror group has one block per
        # rack, so rebuilds for rack-0 losses *must* target rack 0 — and
        # the rack-1 non-buddy disk is vetoed by the domain cap alone,
        # which is what marks the deferral as constraint-caused.
        cfg = constrained_cfg(racks=2, total_user_bytes=800 * GB,
                              use_farm=use_farm)
        system = StorageSystem(cfg, RandomStreams(0),
                               deterministic_failures=True)
        sim = Simulator()
        cls = FarmRecovery if use_farm else TraditionalRecovery
        return system, sim, cls(system, sim)

    def test_farm_defers_then_drains_after_batch(self):
        system, sim, farm = self._build(use_farm=True)
        rack0 = system.topology.disks_in_rack(0)
        for i, d in enumerate(rack0):
            sim.schedule_at(100.0 + i, farm.on_disk_failure, d)
        sim.run(until=12 * HOUR)
        s = farm.stats
        assert s.rebuilds_deferred_constraint >= 1
        assert farm.deferred_outstanding > 0
        assert_system_compliant(system)

        # A batch tiles round-robin, so half its disks land in rack 0.
        system.add_batch(len(rack0) * 2, now=sim.now)
        assert farm.rearm_deferred() > 0
        sim.run(until=sim.now + 7 * DAY)
        assert farm.deferred_outstanding == 0
        assert s.retries >= s.rebuilds_deferred
        assert_system_compliant(system)
        for g in system.groups:
            assert not g.lost and not g.failed

    def test_fast_engine_defers_then_drains(self):
        """Same stalemate on the flat-array engine: the rack-0 kill parks
        every rebuild constraint-deferred; a later failure crosses the
        replacement threshold, the batch restores rack-0 capacity, and
        the parked rebuilds drain through their backoff retries."""
        cfg = constrained_cfg(racks=2, total_user_bytes=800 * GB,
                              replacement_threshold=0.6)
        sim = ReliabilitySimulation(cfg, seed=0)
        rack0 = sim.topology.disks_in_rack(0)
        for i, d in enumerate(rack0):
            sim.sim.schedule_at(100.0 + i, sim._on_disk_failure, d)
        sim.sim.run(until=12 * HOUR)
        assert sim.stats.rebuilds_deferred_constraint >= 1
        assert sim.deferred_outstanding > 0
        assert sim.stats.replacement_batches == 0

        # A rack-1 failure crosses the 60% threshold: its groups are
        # lost (their rack-0 halves were parked), the batch restores
        # rack-0 capacity, and every surviving group re-replicates.
        victim = sim.topology.disks_in_rack(1)[0]
        sim.sim.schedule_at(sim.sim.now + 60.0, sim._on_disk_failure,
                            victim)
        sim.sim.run(until=sim.sim.now + 14 * DAY)
        assert sim.stats.replacement_batches == 1
        assert sim.deferred_outstanding == 0
        assert sim.stats.retries >= 1
        surviving = ~sim.lost
        assert (sim.failed_count[surviving] == 0).all()
        rack = sim.topology.rack_array()
        for g in np.flatnonzero(surviving):
            live = sim.group_disks[g][sim.group_disks[g] >= 0]
            assert (np.bincount(rack[live]) <= 1).all()


class TestCompactionStability:
    def test_domain_ids_survive_compact_index(self):
        cfg = constrained_cfg(racks=2, total_user_bytes=200 * GB)
        system = StorageSystem(cfg, RandomStreams(0),
                               deterministic_failures=True)
        sim = Simulator()
        farm = FarmRecovery(system, sim)
        before = {d.disk_id: system.topology.rack_of(d.disk_id)
                  for d in system.disks}
        sim.schedule_at(10.0, farm.on_disk_failure, 0)
        sim.run(until=1 * DAY)
        system.compact_index()
        for disk in system.disks:
            if disk.disk_id in before:
                assert system.topology.rack_of(disk.disk_id) == \
                    before[disk.disk_id]

    def test_spare_inherits_failed_slot_rack(self):
        cfg = constrained_cfg(racks=2, total_user_bytes=200 * GB,
                              use_farm=False)
        system = StorageSystem(cfg, RandomStreams(0),
                               deterministic_failures=True)
        sim = Simulator()
        raid = TraditionalRecovery(system, sim)
        victim_rack = system.topology.rack_of(0)
        sim.schedule_at(10.0, raid.on_disk_failure, 0)
        sim.run(until=7 * DAY)
        assert raid.spares_provisioned >= 1
        spare = system.disks[-1].disk_id
        assert system.topology.rack_of(spare) == victim_rack
        assert_system_compliant(system)

"""FARM — FAst Recovery Mechanism (the paper's contribution, §2).

On a disk failure, FARM re-creates every lost block on a *different* disk
drawn from the group's placement candidate list, so reconstruction of the
failed disk's contents proceeds in parallel across the cluster: "the window
of vulnerability [shrinks] from the time needed to rebuild an entire disk to
the time needed to create one or two replicas of a redundancy group."

Mechanics implemented here:

* per-group parallel rebuild, FCFS-queued at each recovery target;
* target selection via :class:`~repro.core.policy.TargetSelector`
  (alive / no-buddy / space hard constraints; bandwidth / SMART soft);
* *recovery redirection* when a target dies mid-rebuild (restart on a new
  target) or a source dies with survivors remaining (free source swap);
* optional workload-aware transfer times (paper §2.4);
* optional batch replacement with data migration (paper §3.6).
"""

from __future__ import annotations

import numpy as np

from ..cluster.replacement import BatchReplacementPolicy
from ..cluster.system import StorageSystem
from ..cluster.workload import ConstantWorkload, DiurnalWorkload
from ..redundancy.group import RedundancyGroup
from ..sim.engine import Simulator
from ..telemetry.handle import Telemetry
from .policy import PolicyConfig, TargetSelector
from .recovery import RebuildJob, RecoveryManager


class FarmRecovery(RecoveryManager):
    """Distributed declustered recovery."""

    def __init__(self, system: StorageSystem, sim: Simulator,
                 policy: PolicyConfig | None = None,
                 replacement: BatchReplacementPolicy | None = None,
                 telemetry: "Telemetry | None" = None) -> None:
        super().__init__(system, sim, telemetry=telemetry)
        self.selector = TargetSelector(system, policy)
        cfg = system.config
        if replacement is None and cfg.replacement_threshold is not None:
            replacement = BatchReplacementPolicy(cfg.replacement_threshold)
        self.replacement = replacement
        self._unreplaced_failures = 0
        if cfg.workload_peak_load > 0:
            self.workload = DiurnalWorkload(peak_load=cfg.workload_peak_load)
        else:
            self.workload = ConstantWorkload(0.0)

    # ------------------------------------------------------------------ #
    def _allows_buddy(self) -> bool:
        return not self.selector.policy.forbid_buddy

    def _start(self, group: RedundancyGroup, rep_id: int, failed_at: float,
               now: float, sources: tuple[int, ...]) -> bool:
        """Rebuild onto the §2.3 target; defers when there is none
        (every candidate full, or vetoed by the failure-domain cap)."""
        cfg = self.config
        # A group may have several rebuilds in flight (m/n schemes); their
        # targets must stay pairwise distinct or two buddies would end up
        # co-located when both complete.
        inflight = frozenset(
            j.target for j in self._jobs_by_group.get(group.grp_id, ()))
        target, constrained = self.selector.select(
            group, cfg.block_bytes, now, self.busy_until,
            exclude=inflight, reserved=self.reserved_bytes)
        if target is None:
            # System too full — or every otherwise admissible target vetoed
            # by the domain cap: defer, never violate the constraint.
            self.defer_rebuild(group, rep_id, failed_at, now, constrained)
            return False
        job = RebuildJob(group=group, rep_id=rep_id, target=target,
                         failed_at=failed_at, sources=sources)
        factor = self._bandwidth_factor(target, sources)
        duration = self.workload.time_to_transfer(
            cfg.block_bytes, cfg.recovery_bandwidth * factor, now)
        completion = self.server(target).submit(now, duration)
        job.event = self.sim.schedule_at(completion, self._complete, job,
                                         name="farm-rebuild")
        self._register(job)
        self.stats.rebuilds_started += 1
        if self.telemetry is not None:
            self.telemetry.rebuilds_started.inc()
        return True

    # -- RecoveryManager hooks -------------------------------------------- #
    def _schedule_one(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float) -> None:
        """Detection runs from ``now`` (a lazy release time), but the
        window of vulnerability keeps the original failure time."""
        self.sim.schedule_at(now + self.config.detection_latency,
                             self._start_if_alive, group, rep_id, failed_at,
                             name="farm-detect")

    def _start_if_alive(self, group: RedundancyGroup, rep: int,
                        failed_at: float) -> None:
        """Detection fired: begin the rebuild unless the group died since."""
        if group.lost or rep not in group.failed:
            return
        self._try_start(group, rep, failed_at, self.sim.now)

    def _reschedule(self, job: RebuildJob, now: float) -> None:
        start = now + self.config.detection_latency
        self.sim.schedule_at(start, self._start_if_alive, job.group,
                             job.rep_id, job.failed_at, name="farm-redirect")

    # -- replacement -------------------------------------------------------- #
    def _after_failure(self, disk_id: int, now: float) -> None:
        self._unreplaced_failures += 1
        pol = self.replacement
        if pol is None or not pol.should_trigger(
                self._unreplaced_failures, self.system.initial_population):
            return
        count = pol.batch_size(self._unreplaced_failures)
        if count <= 0:
            return
        new_ids = self.system.add_batch(count, now, weight=pol.weight)
        self._unreplaced_failures = 0
        self.stats.replacement_batches += 1
        if self.telemetry is not None:
            self.telemetry.replacement_batches.inc()
        # Schedule the new drives' (infant-mortality-prone) failures.
        for d in new_ids:
            t = self.system.failure_times[d]
            if t <= self.config.duration:
                self.sim.schedule_at(t, self.on_disk_failure, d,
                                     name="disk-failure")
        rng: np.random.Generator = self.system.streams.get("migration")
        self.stats.blocks_migrated += self.system.migrate_to_batch(
            new_ids, now, rng)
        # Migration leaves superseded entries behind; sweep them so the
        # disk -> groups index stays tight across many batches.
        self.system.compact_index()
        # Fresh capacity arrived: rebuilds deferred for want of target
        # space can run immediately instead of waiting out their backoff.
        self.rearm_deferred()

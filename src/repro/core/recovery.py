"""Shared recovery machinery: jobs, statistics, and the manager base class.

A :class:`RecoveryManager` reacts to disk-failure events on the DES: it
updates group state, schedules rebuild jobs, redirects jobs whose target or
source dies mid-flight, and accounts for data loss.  The two concrete
managers are :class:`~repro.core.farm.FarmRecovery` (the paper's
contribution) and :class:`~repro.core.traditional.TraditionalRecovery` (the
RAID baseline).

Graceful degradation.  A rebuild that cannot start right now — every
admissible target is full, or every source replica is transiently offline —
is never dropped: it lands in a *deferred-rebuild queue* and retries with
exponential backoff (capped), re-armed immediately by events that change
the answer (a replacement batch, a provisioned spare, a disk returning from
an outage).  Deferrals and retries are counted in :class:`RecoveryStats`
and emitted as ``rebuild-deferred`` trace markers, so a degraded group is
always visible in the stats and the timeline.

The manager also understands two fault kinds beyond whole-disk death (see
:mod:`repro.faults`): *transient outages* (:meth:`on_disk_offline` /
:meth:`on_disk_online` redirect in-flight work instead of counting losses)
and *latent sector errors* (:meth:`discover_latent` turns a scrub or
rebuild-read discovery into an ordinary per-block rebuild).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import insort
from dataclasses import dataclass, field

from ..availability.luby import check_repair_lane
from ..availability.queue import RepairPriority, RepairPriorityQueue
from ..cluster.system import StorageSystem
from ..redundancy.group import RedundancyGroup
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.resources import SerialServer
from ..telemetry.handle import Telemetry
from ..telemetry.probes import ProbeSample
from ..units import MINUTE


@dataclass
class RecoveryStats:
    """Aggregate outcome of one simulated system lifetime."""

    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    target_redirections: int = 0
    source_redirections: int = 0
    groups_lost: int = 0
    bytes_lost: float = 0.0
    first_loss_time: float | None = None
    disk_failures: int = 0
    window_total: float = 0.0     # sum of (rebuild completion - failure time)
    window_max: float = 0.0
    replacement_batches: int = 0
    blocks_migrated: int = 0
    #: Rebuilds that could not start (no target / no readable source) and
    #: were parked in the deferred-rebuild queue instead of being dropped.
    rebuilds_deferred: int = 0
    #: Subset of ``rebuilds_deferred`` parked because every otherwise
    #: admissible target was vetoed by the failure-domain placement cap
    #: (``max_chunks_per_domain``): the policy defers, never violates.
    rebuilds_deferred_constraint: int = 0
    #: Block losses where the group still held another live block in the
    #: failing disk's *rack* — placement left the group co-vulnerable to
    #: that domain.  Only counted under a non-flat topology.
    domain_colocated_losses: int = 0
    #: Deferred-rebuild retry attempts (backoff or re-arm firings).
    retries: int = 0
    #: Latent sector errors surfaced by a scrub or a rebuild read.
    latent_errors_discovered: int = 0
    #: Sum over discoveries of (discovery time - corruption time).
    latent_window_total: float = 0.0
    #: Transient outages processed (disk went offline and work redirected).
    transient_outages: int = 0
    #: Seconds of per-group *unavailability*: summed over closed degraded
    #: spans (first block failure -> full redundancy restored).  Spans
    #: still open at the horizon are closed by :meth:`RecoveryManager.
    #: finalize`; spans ended by data loss are dropped — loss belongs to
    #: durability's ledger, not availability's (the telemetry span
    #: tracker aborts the same spans, keeping ``*_sum_total`` exactly
    #: equal to this field).
    unavail_group_seconds: float = 0.0
    #: Closed unavailability spans (horizon closures included).
    unavail_spans: int = 0
    #: Longest single unavailability span.
    unavail_max: float = 0.0
    #: Rebuilds parked by the lazy-recovery trigger
    #: (``recovery_threshold`` > 1), awaiting further failures.
    rebuilds_held: int = 0
    #: Log likelihood-ratio weight of this run under an importance-sampled
    #: estimator (0.0 — i.e. weight 1 — for ordinary runs).  Weights are
    #: only ever *applied* through
    #: :class:`repro.reliability.stats.WeightedAggregate`; lint rule
    #: RPR012 rejects ad-hoc weight arithmetic in experiment code.
    log_weight: float = 0.0

    @property
    def weight(self) -> float:
        """The run's likelihood-ratio weight, exp(log_weight)."""
        return math.exp(self.log_weight)

    @property
    def any_loss(self) -> bool:
        return self.groups_lost > 0

    @property
    def mean_window(self) -> float:
        """Mean window of vulnerability over completed rebuilds."""
        if self.rebuilds_completed == 0:
            return 0.0
        return self.window_total / self.rebuilds_completed

    @property
    def mean_latent_window(self) -> float:
        """Mean time a latent error stayed undiscovered (0 if none found)."""
        if self.latent_errors_discovered == 0:
            return 0.0
        return self.latent_window_total / self.latent_errors_discovered

    def availability(self, n_groups: int, duration: float) -> float:
        """Fraction of group-seconds spent fully redundant, in [0, 1]."""
        from ..availability.metrics import availability_fraction
        return availability_fraction(self.unavail_group_seconds, n_groups,
                                     duration)

    def nines(self, n_groups: int, duration: float) -> float:
        """The run's availability as "nines" (inf for a clean run)."""
        from ..availability.metrics import availability_nines
        return availability_nines(self.availability(n_groups, duration))

    def record_loss(self, group: RedundancyGroup, now: float) -> None:
        self.groups_lost += 1
        self.bytes_lost += group.user_bytes
        if self.first_loss_time is None:
            self.first_loss_time = now


@dataclass(eq=False)     # identity semantics: jobs live in hash sets
class RebuildJob:
    """One in-flight block reconstruction."""

    group: RedundancyGroup
    rep_id: int
    target: int
    failed_at: float           # when the block became unavailable
    sources: tuple[int, ...] = ()
    event: Event | None = None
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()


@dataclass(eq=False)     # identity semantics, like RebuildJob
class DeferredRebuild:
    """A rebuild that could not start; parked for retry with backoff."""

    group: RedundancyGroup
    rep_id: int
    failed_at: float
    attempts: int = 0
    event: Event | None = None


def _marker() -> None:
    """No-op event callback: exists only to appear in the trace timeline."""


class RecoveryManager(ABC):
    """Base class wiring a recovery scheme into the simulator."""

    #: Deferred-rebuild backoff: ``base * 2**attempt`` seconds.  The
    #: doubling is uncapped (exponent clamped) because
    #: :meth:`rearm_deferred` already retries promptly whenever the world
    #: improves (batch arrived, disk back online); a fixed hourly cap
    #: would instead let thousands of hopelessly parked blocks — e.g. a
    #: dead rack under the failure-domain cap — retry-spin for simulated
    #: months and dominate the event loop.
    retry_base_s: float = MINUTE
    retry_max_doublings: int = 16

    def __init__(self, system: StorageSystem, sim: Simulator,
                 telemetry: Telemetry | None = None) -> None:
        self.system = system
        self.sim = sim
        self.config = system.config
        self.stats = RecoveryStats()
        #: Nullable observability handle; every instrumentation site is a
        #: single `is not None` test, so the disabled path stays free.
        self.telemetry = telemetry
        if telemetry is not None:
            system.telemetry = telemetry
        # Per-disk FCFS queues for recovery writes.
        self._servers: dict[int, SerialServer] = {}
        # In-flight indexes.
        self._jobs_by_target: dict[int, set[RebuildJob]] = {}
        self._jobs_by_group: dict[int, set[RebuildJob]] = {}
        self._jobs_by_source: dict[int, set[RebuildJob]] = {}
        # Bytes promised to in-flight rebuilds, per target disk: selection
        # must treat reserved space as used or concurrent jobs could
        # collectively overflow a target.
        self._reserved: dict[int, float] = {}
        # Rebuilds awaiting a viable target/source, keyed (grp_id, rep_id).
        self._deferred: dict[tuple[int, int], DeferredRebuild] = {}
        # Lazy-recovery policy (recovery_threshold > 1): rebuilds held
        # back until the group accumulates >= r missing blocks, keyed
        # grp_id -> [(rep_id, failure time)] sorted by rep_id, so a
        # release or a loss touches only its own group.  Empty forever at
        # the default threshold of 1, where dispatch short-circuits to the
        # eager path.
        self._held: dict[int, list[tuple[int, float]]] = {}
        # Open per-group unavailability spans: grp_id -> degraded-since.
        self._degraded_since: dict[int, float] = {}
        # A rate-limited repair lane too narrow for its own failure
        # inflow is a modelling error: reject it up front, exactly like
        # the forecast service's 422 rail.
        check_repair_lane(self.config)

    # -- queues ------------------------------------------------------------ #
    def server(self, disk_id: int) -> SerialServer:
        srv = self._servers.get(disk_id)
        if srv is None:
            srv = SerialServer()
            self._servers[disk_id] = srv
        return srv

    def busy_until(self, disk_id: int) -> float:
        srv = self._servers.get(disk_id)
        return srv.free_at if srv is not None else 0.0

    # -- job bookkeeping --------------------------------------------------- #
    def reserved_bytes(self, disk_id: int) -> float:
        """Space promised to in-flight rebuilds targeting ``disk_id``."""
        return self._reserved.get(disk_id, 0.0)

    def _register(self, job: RebuildJob) -> None:
        self._jobs_by_target.setdefault(job.target, set()).add(job)
        self._jobs_by_group.setdefault(job.group.grp_id, set()).add(job)
        for s in job.sources:
            self._jobs_by_source.setdefault(s, set()).add(job)
        self._reserved[job.target] = (self._reserved.get(job.target, 0.0)
                                      + self.config.block_bytes)

    def _unregister(self, job: RebuildJob) -> None:
        if job in self._jobs_by_target.get(job.target, set()):
            self._reserved[job.target] = max(
                0.0, self._reserved.get(job.target, 0.0)
                - self.config.block_bytes)
        self._jobs_by_target.get(job.target, set()).discard(job)
        self._jobs_by_group.get(job.group.grp_id, set()).discard(job)
        for s in job.sources:
            self._jobs_by_source.get(s, set()).discard(job)

    # -- the common failure path -------------------------------------------- #
    def on_disk_failure(self, disk_id: int) -> None:
        """DES callback: disk ``disk_id`` fails now."""
        now = self.sim.now
        if self.system.disks[disk_id].dead:
            return      # already failed/retired (stale event)
        self.stats.disk_failures += 1
        tele = self.telemetry
        if tele is not None:
            tele.disk_failures.inc()
        affected = self.system.fail_disk(disk_id, now)

        # Domain co-location accounting: a block loss whose group still
        # keeps another live block in the failing disk's rack means the
        # placement left the group doubly exposed to that rack.
        topo = self.system.topology
        if topo.racks > 1:
            rack = topo.rack_of(disk_id)
            for group, reps in affected:
                if not reps:
                    continue
                if any(r not in group.failed and d >= 0
                       and topo.rack_of(d) == rack
                       for r, d in enumerate(group.disks)):
                    self.stats.domain_colocated_losses += len(reps)
                    if tele is not None:
                        tele.domain_colocated_losses.inc(len(reps))

        # Jobs whose *target* just died: pick another target (paper §2.3,
        # "we merely choose an alternative target") — recovery redirection.
        for job in list(self._jobs_by_target.get(disk_id, ())):
            self._unregister(job)
            job.cancel()
            if job.group.lost:
                continue
            self.stats.target_redirections += 1
            if tele is not None:
                tele.target_redirections.inc()
            self._reschedule(job, now)

        # Jobs that were *reading* from the dead disk but whose group still
        # has enough survivors: swap in an alternative source at no cost.
        for job in list(self._jobs_by_source.get(disk_id, ())):
            if job.cancelled or job.group.lost:
                continue
            self.stats.source_redirections += 1
            if tele is not None:
                tele.source_redirections.inc()
            job.sources = tuple(s for s in job.sources if s != disk_id)

        # New block losses.
        newly_lost: list[tuple[RedundancyGroup, int]] = []
        for group, reps in affected:
            if group.lost and group.loss_time == now:
                self.stats.record_loss(group, now)
                self._degraded_since.pop(group.grp_id, None)
                self._drop_held(group.grp_id)
                if tele is not None:
                    tele.group_lost(group.grp_id)
                for job in list(self._jobs_by_group.get(group.grp_id, ())):
                    self._unregister(job)
                    job.cancel()
                continue
            if group.lost:
                continue
            if reps:
                self._note_degraded(group, now)
            for rep in reps:
                newly_lost.append((group, rep))
                if tele is not None:
                    tele.block_failed(group.grp_id, rep, now,
                                      group.scheme.n)
        if newly_lost:
            self._dispatch_rebuilds(disk_id, newly_lost, now)
        self._after_failure(disk_id, now)

    # -- completion path ---------------------------------------------------- #
    def _complete(self, job: RebuildJob) -> None:
        if job.cancelled or job.group.lost:
            return
        now = self.sim.now
        target = self.system.disks[job.target]
        if not target.online:
            # Defensive: a redirect should already have happened.
            self._unregister(job)
            self.stats.target_redirections += 1
            if self.telemetry is not None:
                self.telemetry.target_redirections.inc()
            self._reschedule(job, now)
            return
        self._unregister(job)
        job.group.complete_rebuild(job.rep_id, job.target,
                                   allow_buddy=self._allows_buddy())
        target.allocate(self.config.block_bytes)
        self.system.note_block_moved(job.group.grp_id, job.target)
        self.stats.rebuilds_completed += 1
        window = now - job.failed_at
        self.stats.window_total += window
        self.stats.window_max = max(self.stats.window_max, window)
        if self.telemetry is not None:
            self.telemetry.rebuilds_completed.inc()
            self.telemetry.block_rebuilt(job.group.grp_id, job.rep_id, now)
        if not job.group.failed:
            self._note_repaired(job.group.grp_id, now)

    # -- lazy recovery (recovery_threshold > 1) ------------------------------ #
    def _missing_count(self, group: RedundancyGroup) -> int:
        """Blocks of ``group`` without a live, *reachable* replica right
        now: failed blocks plus live replicas on transiently offline
        disks — both count toward the lazy trigger."""
        missing = len(group.failed)
        disks = self.system.disks
        for rep, disk_id in enumerate(group.disks):
            if rep in group.failed or disk_id < 0:
                continue
            if not disks[disk_id].online:
                missing += 1
        return missing

    def _dispatch_rebuilds(self, failed_disk: int,
                           losses: list[tuple[RedundancyGroup, int]],
                           now: float) -> None:
        """Route new block losses through the lazy-recovery policy.

        At the default ``recovery_threshold`` of 1 this is a verbatim
        delegation to :meth:`_schedule_rebuilds` — no extra events, no
        reordering, bit-identical to the eager path (the golden-pin
        conformance contract).  Above 1, losses are parked in the held
        map until their group reaches ``r`` missing blocks, then every
        held rebuild of the group is released most-at-risk-first.
        """
        if self.config.recovery_threshold <= 1:
            self._schedule_rebuilds(failed_disk, losses, now)
            return
        fresh: dict[int, RedundancyGroup] = {}
        for group, rep in losses:
            insort(self._held.setdefault(group.grp_id, []), (rep, now))
            fresh.setdefault(group.grp_id, group)
        queue: RepairPriorityQueue = RepairPriorityQueue()
        released: set[int] = set()
        for group in fresh.values():
            if self._missing_count(group) >= self.config.recovery_threshold:
                released.add(group.grp_id)
                self._collect_held(group, queue)
        n_held = sum(1 for g, _ in losses if g.grp_id not in released)
        if n_held:
            self.stats.rebuilds_held += n_held
            if self.telemetry is not None:
                self.telemetry.rebuilds_held.inc(n_held)
            self._trace_marker("rebuild-held")
        self._release_queue(queue, now)

    def _collect_held(self, group: RedundancyGroup,
                      queue: RepairPriorityQueue) -> None:
        """Move every held rebuild of ``group`` into the release queue,
        keyed most-at-risk-first (surviving redundancy, then age)."""
        grp_id = group.grp_id
        surviving = max(0, group.scheme.tolerance
                        - self._missing_count(group))
        for rep, failed_at in self._held.pop(grp_id):
            queue.push(RepairPriority(surviving, failed_at, grp_id, rep),
                       (group, rep, failed_at))

    def _release_queue(self, queue: RepairPriorityQueue,
                       now: float) -> None:
        """Schedule released rebuilds in priority order."""
        tele = self.telemetry
        for _prio, (group, rep_id, failed_at) in queue.drain():
            if group.lost or rep_id not in group.failed:
                continue
            if tele is not None:
                tele.held_released.inc()
            self._schedule_one(group, rep_id, failed_at, now)

    def _drop_held(self, grp_id: int) -> None:
        """Forget held rebuilds of a group that just lost data."""
        self._held.pop(grp_id, None)

    @property
    def held_outstanding(self) -> int:
        """Rebuilds currently parked by the lazy-recovery trigger."""
        return sum(len(reps) for reps in self._held.values())

    # -- unavailability spans ------------------------------------------------ #
    def _note_degraded(self, group: RedundancyGroup, now: float) -> None:
        """First missing block of the group: open its degraded span."""
        grp_id = group.grp_id
        if grp_id in self._degraded_since:
            return
        self._degraded_since[grp_id] = now
        if self.telemetry is not None:
            self.telemetry.group_degraded(grp_id, now, group.scheme.n)

    def _note_repaired(self, grp_id: int, now: float) -> None:
        """Full redundancy restored: close the span, account it."""
        since = self._degraded_since.pop(grp_id, None)
        if since is None:
            return
        duration = now - since
        self.stats.unavail_group_seconds += duration
        self.stats.unavail_spans += 1
        self.stats.unavail_max = max(self.stats.unavail_max, duration)
        if self.telemetry is not None:
            self.telemetry.group_restored(grp_id, now)

    def finalize(self, now: float) -> None:
        """Close accounting still open at the simulation horizon.

        Groups degraded at the end contribute their partial span in
        ascending group-id order — deterministic, and identical between
        the two engines so span totals stay float-exact."""
        for grp_id in sorted(self._degraded_since):
            self._note_repaired(grp_id, now)

    # -- deferred-rebuild retry queue ---------------------------------------- #
    @property
    def deferred_outstanding(self) -> int:
        """Rebuilds currently parked awaiting a viable target/source."""
        return len(self._deferred)

    def _trace_marker(self, name: str) -> None:
        """Make ``name`` visible in the simulation trace at the current
        time (the trace hook only sees fired events)."""
        self.sim.schedule(0.0, _marker, name=name)

    def defer_rebuild(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float,
                      constrained: bool = False) -> None:
        """Park a rebuild that cannot start; retry with capped backoff.

        Replaces the old silent-drop behaviour: the group stays visibly
        degraded (``stats.rebuilds_deferred``, a ``rebuild-deferred`` trace
        marker) and the rebuild is retried until it starts, the group is
        lost, or the simulation ends.  ``constrained`` marks a deferral
        forced solely by the failure-domain placement cap.
        """
        key = (group.grp_id, rep_id)
        entry = self._deferred.get(key)
        if entry is None:
            entry = DeferredRebuild(group=group, rep_id=rep_id,
                                    failed_at=failed_at)
            self._deferred[key] = entry
            self.stats.rebuilds_deferred += 1
            if constrained:
                self.stats.rebuilds_deferred_constraint += 1
            if self.telemetry is not None:
                self.telemetry.rebuilds_deferred.inc()
                if constrained:
                    self.telemetry.rebuilds_deferred_constraint.inc()
            self._trace_marker("rebuild-deferred")
        self._arm_retry(key, entry)

    def _arm_retry(self, key: tuple[int, int],
                   entry: DeferredRebuild) -> None:
        if entry.event is not None:
            entry.event.cancel()
        delay = self.retry_base_s * (2.0 ** min(entry.attempts,
                                                self.retry_max_doublings))
        entry.attempts += 1
        entry.event = self.sim.schedule(delay, self._retry_deferred, key,
                                        name="rebuild-retry")

    def _retry_deferred(self, key: tuple[int, int]) -> None:
        entry = self._deferred.get(key)
        if entry is None:
            return
        group = entry.group
        if group.lost or entry.rep_id not in group.failed:
            del self._deferred[key]     # resolved (or lost) in the meantime
            return
        self.stats.retries += 1
        if self.telemetry is not None:
            self.telemetry.rebuild_retries.inc()
        del self._deferred[key]
        if not self._try_start(group, entry.rep_id, entry.failed_at,
                               self.sim.now):
            self._deferred[key] = entry     # keep the attempt count: the
            self._arm_retry(key, entry)     # backoff must keep growing

    def rearm_deferred(self) -> int:
        """Retry every parked rebuild now, with a fresh backoff.

        Called when the world changed in recovery's favour: a replacement
        batch or spare arrived (space freed), or a disk returned from a
        transient outage (sources readable again).
        """
        entries = list(self._deferred.items())
        if self.config.recovery_threshold > 1:
            # Lazy policies re-arm most-at-risk-first (the same order the
            # release queue uses); the default path keeps insertion order
            # so the eager trajectory stays bit-identical.
            entries.sort(key=lambda kv: (
                max(0, kv[1].group.scheme.tolerance
                    - self._missing_count(kv[1].group)),
                kv[1].failed_at, kv[0]))
        for key, entry in entries:
            if entry.event is not None:
                entry.event.cancel()
            entry.attempts = 0
            entry.event = self.sim.schedule(0.0, self._retry_deferred, key,
                                            name="rebuild-retry")
        return len(self._deferred)

    # -- latent sector errors ------------------------------------------------ #
    def discover_latent(self, disk_id: int, grp_id: int, rep_id: int) -> bool:
        """A scrub or rebuild read found a latent error: fail the block and
        enqueue an ordinary per-group rebuild.  Returns True if the call
        discovered a (still relevant) error."""
        corrupted_at = self.system.clear_latent_error(disk_id, grp_id,
                                                      rep_id)
        if corrupted_at is None:
            return False
        group = self.system.groups[grp_id]
        if group.lost or rep_id in group.failed:
            return False    # superseded by a whole-disk failure
        now = self.sim.now
        group.fail_block(rep_id, now)
        disk = self.system.disks[disk_id]
        if not disk.dead:
            disk.release(self.config.block_bytes)
        self.stats.latent_errors_discovered += 1
        self.stats.latent_window_total += now - corrupted_at
        tele = self.telemetry
        if tele is not None:
            tele.latent_discovered.inc()
            tele.latent_window_seconds.inc(now - corrupted_at)
        self._trace_marker("latent-discovered")
        if group.lost and group.loss_time == now:
            # The corrupt block defeated what redundancy remained.
            self.stats.record_loss(group, now)
            self._degraded_since.pop(grp_id, None)
            self._drop_held(grp_id)
            if tele is not None:
                tele.group_lost(grp_id)
            for job in list(self._jobs_by_group.get(grp_id, ())):
                self._unregister(job)
                job.cancel()
            return True
        self._note_degraded(group, now)
        if tele is not None:
            tele.block_failed(grp_id, rep_id, now, group.scheme.n)
        self._dispatch_rebuilds(disk_id, [(group, rep_id)], now)
        return True

    def _discover_latent_partners(self, group: RedundancyGroup,
                                  rep_id: int) -> None:
        """Rebuild-read discovery: reconstructing ``rep_id`` reads the
        group's other live blocks, surfacing any latent errors in them."""
        for rep, disk_id in enumerate(list(group.disks)):
            if rep == rep_id or rep in group.failed or disk_id < 0:
                continue
            if self.system.has_latent_error(disk_id, group.grp_id, rep):
                self.discover_latent(disk_id, group.grp_id, rep)

    # -- transient outages --------------------------------------------------- #
    def on_disk_offline(self, disk_id: int) -> None:
        """DES callback: ``disk_id`` becomes temporarily unreachable.

        Unlike a failure, no data is lost and no group state changes;
        in-flight rebuilds writing to the disk restart elsewhere (a target
        redirection) and rebuilds reading from it swap sources, or are
        deferred when no readable replica remains.
        """
        now = self.sim.now
        if not self.system.disks[disk_id].online:
            return      # already offline or dead (stale event)
        self.system.take_offline(disk_id, now)
        self.stats.transient_outages += 1
        tele = self.telemetry
        if tele is not None:
            tele.transient_outages.inc()
        self._trace_marker("disk-offline")

        for job in list(self._jobs_by_target.get(disk_id, ())):
            self._unregister(job)
            job.cancel()
            if job.group.lost:
                continue
            self.stats.target_redirections += 1
            if tele is not None:
                tele.target_redirections.inc()
            self._reschedule(job, now)

        for job in list(self._jobs_by_source.get(disk_id, ())):
            if job.cancelled or job.group.lost:
                continue
            online = [d for d in job.group.buddies_of(job.rep_id)
                      if self.system.disks[d].online]
            if len(online) >= job.group.scheme.m:
                self.stats.source_redirections += 1
                if tele is not None:
                    tele.source_redirections.inc()
                for s in job.sources:
                    self._jobs_by_source.get(s, set()).discard(job)
                job.sources = tuple(online[:job.group.scheme.m])
                for s in job.sources:
                    self._jobs_by_source.setdefault(s, set()).add(job)
            else:
                # No readable replica until the outage ends: park it.
                self._unregister(job)
                job.cancel()
                self.defer_rebuild(job.group, job.rep_id, job.failed_at,
                                   now)

        # Transient outages count toward the lazy trigger: a group whose
        # held rebuilds plus now-unreachable replicas reach the threshold
        # releases immediately (the rebuilds themselves may still defer
        # until a readable source returns — the retry queue drains them).
        if self.config.recovery_threshold > 1 and self._held:
            queue: RepairPriorityQueue = RepairPriorityQueue()
            touched = [self.system.groups[g] for g in self._held]
            for group in touched:
                if (self._missing_count(group)
                        >= self.config.recovery_threshold):
                    self._collect_held(group, queue)
            self._release_queue(queue, now)

    def on_disk_online(self, disk_id: int) -> None:
        """DES callback: a transient outage ends; the disk's data is back.

        Stale if the disk permanently failed during the outage.  Parked
        rebuilds are re-armed: the returning disk may hold the only
        readable source, or be an acceptable target again.
        """
        now = self.sim.now
        if not self.system.bring_online(disk_id, now):
            return
        self._trace_marker("disk-online")
        self.rearm_deferred()

    # -- shared helpers ------------------------------------------------------ #
    def _bandwidth_factor(self, target: int, sources: tuple[int, ...]
                          ) -> float:
        """Effective bandwidth multiplier of a rebuild: the slowest
        participating disk (straggler model) bounds the transfer."""
        disks = self.system.disks
        factor = disks[target].bandwidth_factor
        for s in sources:
            factor = min(factor, disks[s].bandwidth_factor)
        return max(factor, 1e-3)

    def _online_sources(self, group: RedundancyGroup,
                        rep_id: int) -> tuple[int, ...]:
        """The m reachable disks a rebuild of ``rep_id`` would read from
        (empty tuple when too few replicas are currently online)."""
        online = [d for d in group.buddies_of(rep_id)
                  if self.system.disks[d].online]
        if len(online) < group.scheme.m:
            return ()
        return tuple(online[:group.scheme.m])

    # -- telemetry probe ----------------------------------------------------- #
    def telemetry_sample(self) -> ProbeSample:
        """Read-only cluster observation for the periodic telemetry probe.

        Per-disk recovery writes serialize on a :class:`SerialServer`, so
        a disk's in-use recovery bandwidth is at most the configured cap
        (``config.recovery_bandwidth``, the paper's 20%-of-80 MB/s rule);
        the sample reports the cap for each busy disk, which is an exact
        bound and — for non-straggler disks — the actual rate.
        """
        now = self.sim.now
        cap = self.config.recovery_bandwidth
        topo = self.system.topology
        per_rack = topo.racks > 1
        busy = 0
        loads: list[int] = []
        states: dict[str, int] = {}
        by_rack: dict[str, float] = {}
        for disk in self.system.disks:
            state = disk.state.name.lower()
            states[state] = states.get(state, 0) + 1
            if not disk.online:
                continue
            srv = self._servers.get(disk.disk_id)
            loads.append(srv.jobs_served if srv is not None else 0)
            if srv is not None and srv.free_at > now:
                busy += 1
                if per_rack:
                    key = str(topo.rack_of(disk.disk_id))
                    by_rack[key] = by_rack.get(key, 0.0) + cap
        degraded = sum(1 for g in self.system.groups
                       if g.failed and not g.lost)
        return ProbeSample(
            bandwidth_in_use_bps=busy * cap,
            disk_bandwidth_max_bps=cap if busy else 0.0,
            bandwidth_cap_bps=cap,
            disks_by_state=states,
            degraded_groups=degraded,
            deferred_rebuilds=len(self._deferred),
            rebuild_load_max=float(max(loads, default=0)),
            rebuild_load_mean=(sum(loads) / len(loads)) if loads else 0.0,
            bandwidth_by_rack=by_rack)

    # -- scheme-specific hooks ---------------------------------------------- #
    @abstractmethod
    def _schedule_rebuilds(self, failed_disk: int,
                           losses: list[tuple[RedundancyGroup, int]],
                           now: float) -> None:
        """Schedule reconstruction of the given (group, rep) losses."""

    @abstractmethod
    def _schedule_one(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float) -> None:
        """Schedule one rebuild released by the lazy-recovery trigger.

        ``failed_at`` is the block's *original* failure time (windows of
        vulnerability measure true exposure); detection/queueing starts
        from ``now``, the release time.
        """

    @abstractmethod
    def _reschedule(self, job: RebuildJob, now: float) -> None:
        """Restart a job whose target died mid-rebuild."""

    @abstractmethod
    def _try_start(self, group: RedundancyGroup, rep_id: int,
                   failed_at: float, now: float) -> bool:
        """Attempt to start (or re-start) one block rebuild.

        Returns True when the rebuild was started or is moot (group lost /
        block already rebuilt); False when it cannot run right now and
        should be deferred.  Must never raise for want of a target.
        """

    def _after_failure(self, disk_id: int, now: float) -> None:
        """Hook for replacement policies; default does nothing."""

    def _allows_buddy(self) -> bool:
        """Whether this manager's policy permits buddy co-location (only
        true in ablation studies with forbid_buddy disabled)."""
        return False

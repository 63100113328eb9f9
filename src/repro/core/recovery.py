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
from abc import abstractmethod
from dataclasses import dataclass

from ..availability.luby import check_repair_lane
from ..availability.queue import RepairPriorityQueue
from ..cluster.system import StorageSystem
from ..redundancy.group import RedundancyGroup
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.resources import SerialServer
from ..telemetry.handle import Telemetry
from ..telemetry.probes import ProbeSample
from .ledger import LedgerOwner, RecoveryLedger
from .policy import holds_rack


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
    #: still open at the horizon are closed by :meth:`RecoveryLedger.
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
    """A rebuild that could not start, with its cancellable retry event
    (the backoff attempts live in the ledger)."""

    group: RedundancyGroup
    rep_id: int
    failed_at: float
    event: Event | None = None


def _marker() -> None:
    """No-op event callback: exists only to appear in the trace timeline."""


class RecoveryManager(LedgerOwner):
    """Base class wiring a recovery scheme into the simulator."""

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
        # Retry events of rebuilds awaiting a viable target/source, keyed
        # (grp_id, rep_id) like the ledger's attempt counts.
        self._deferred: dict[tuple[int, int], DeferredRebuild] = {}
        # Rebuild bookkeeping shared with the flat-array engine.
        cfg = self.config
        self.ledger = RecoveryLedger(
            self.stats, telemetry, threshold=cfg.recovery_threshold,
            tolerance=cfg.scheme.tolerance, n=cfg.scheme.n,
            user_bytes=cfg.group_user_bytes)
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
                live = (d for r, d in enumerate(group.disks)
                        if r not in group.failed and d >= 0)
                if holds_rack(topo.rack_of, live, rack):
                    self.ledger.colocated(len(reps))

        # Jobs whose *target* just died: pick another target (paper §2.3,
        # "we merely choose an alternative target") — recovery redirection.
        self._redirect_targets(disk_id, now)

        # Jobs that were *reading* from the dead disk but whose group still
        # has enough survivors: swap in an alternative source at no cost.
        for job in list(self._jobs_by_source.get(disk_id, ())):
            if job.cancelled or job.group.lost:
                continue
            self.stats.source_redirections += 1
            if tele is not None:
                tele.source_redirections.inc()
            job.sources = tuple(s for s in job.sources if s != disk_id)

        self._record_losses(disk_id, affected, now)
        self._after_failure(disk_id, now)

    def _record_losses(self, disk_id: int,
                       affected: list[tuple[RedundancyGroup, list[int]]],
                       now: float) -> None:
        """Account new block losses on ``disk_id`` (a failure or a latent
        discovery) and route their rebuilds."""
        newly_lost: list[tuple[RedundancyGroup, int]] = []
        for group, reps in affected:
            if group.lost and group.loss_time == now:
                self._group_lost(group, now)
            elif not group.lost:
                for rep in reps:
                    self.ledger.block_failed(group.grp_id, rep, now)
                    newly_lost.append((group, rep))
        if newly_lost:
            self._dispatch_rebuilds(disk_id, newly_lost, now)

    # -- completion path ---------------------------------------------------- #
    def _complete(self, job: RebuildJob) -> None:
        if job.cancelled or job.group.lost:
            return
        now = self.sim.now
        target = self.system.disks[job.target]
        if not target.online:
            # Defensive: a redirect should already have happened.
            self._unregister(job)
            self._redirect(job, now)
            return
        self._unregister(job)
        job.group.complete_rebuild(job.rep_id, job.target,
                                   allow_buddy=self._allows_buddy())
        target.allocate(self.config.block_bytes)
        self.system.note_block_moved(job.group.grp_id, job.target)
        self.ledger.completed(job.group.grp_id, job.rep_id, job.failed_at,
                              now, not job.group.failed)

    def _redirect_targets(self, disk_id: int, now: float) -> None:
        """Jobs writing to ``disk_id`` restart on another target."""
        for job in list(self._jobs_by_target.get(disk_id, ())):
            self._unregister(job)
            job.cancel()
            if not job.group.lost:
                self._redirect(job, now)

    def _redirect(self, job: RebuildJob, now: float) -> None:
        """Count a target redirection and restart ``job``."""
        self.ledger.redirected()
        self._reschedule(job, now)

    def _group_lost(self, group: RedundancyGroup, now: float) -> None:
        """``group`` just lost data: account it, cancel its rebuilds."""
        self.ledger.lost(group.grp_id, now)
        for job in list(self._jobs_by_group.get(group.grp_id, ())):
            self._unregister(job)
            job.cancel()

    # -- lazy recovery (recovery_threshold > 1) ------------------------------ #
    def missing_blocks(self, grp_id: int) -> int:
        """Blocks of the group without a live, *reachable* replica right
        now: failed blocks plus live replicas on transiently offline
        disks — both count toward the lazy trigger."""
        group = self.system.groups[grp_id]
        missing = len(group.failed)
        disks = self.system.disks
        for rep, disk_id in enumerate(group.disks):
            if rep in group.failed or disk_id < 0:
                continue
            if not disks[disk_id].online:
                missing += 1
        return missing

    def awaits_rebuild(self, grp_id: int, rep_id: int) -> bool:
        """The block is still failed and its group not lost."""
        group = self.system.groups[grp_id]
        return not group.lost and rep_id in group.failed

    def _dispatch_rebuilds(self, failed_disk: int,
                           losses: list[tuple[RedundancyGroup, int]],
                           now: float) -> None:
        """Route new block losses through the lazy-recovery policy.

        At the default ``recovery_threshold`` of 1 every loss goes
        straight to :meth:`_schedule_one` — no extra events, no
        reordering, bit-identical to the eager path (the golden-pin
        conformance contract).  Above 1, losses are parked in the held
        map until their group reaches ``r`` missing blocks, then every
        held rebuild of the group is released most-at-risk-first.
        """
        if self.config.recovery_threshold <= 1:
            for group, rep in losses:
                self._schedule_one(group, rep, now, now)
            return
        n_held, queue = self.ledger.hold(
            self, [(group.grp_id, rep) for group, rep in losses], now,
            failed_disk)
        if n_held:
            self._trace_marker("rebuild-held")
        self._release(queue, now)

    def _release(self, queue: RepairPriorityQueue, now: float) -> None:
        """Schedule released rebuilds in priority order."""
        for grp_id, rep_id, failed_at, _ in self.ledger.release(self, queue):
            self._schedule_one(self.system.groups[grp_id], rep_id, failed_at,
                               now)

    # -- deferred-rebuild retry queue ---------------------------------------- #
    def _trace_marker(self, name: str) -> None:
        """Make ``name`` visible in the simulation trace at the current
        time (the trace hook only sees fired events)."""
        self.sim.schedule(0.0, _marker, name=name)

    def defer_rebuild(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float,
                      constrained: bool = False) -> None:
        """Park a rebuild that cannot start — or, already parked, arm its
        next retry — with the ledger's doubling backoff.

        Replaces the old silent-drop behaviour: the group stays visibly
        degraded (``stats.rebuilds_deferred``, a ``rebuild-deferred`` trace
        marker) and the rebuild is retried until it starts, the group is
        lost, or the simulation ends.  ``constrained`` marks a deferral
        forced solely by the failure-domain placement cap.
        """
        key = (group.grp_id, rep_id)
        if self.ledger.defer(key, constrained):
            self._deferred[key] = DeferredRebuild(group=group, rep_id=rep_id,
                                                  failed_at=failed_at)
            self._trace_marker("rebuild-deferred")
        entry = self._deferred[key]
        if entry.event is not None:
            entry.event.cancel()
        entry.event = self.sim.schedule(self.ledger.backoff(key),
                                        self._retry_deferred, key,
                                        name="rebuild-retry")

    def _retry_deferred(self, key: tuple[int, int]) -> None:
        entry = self._deferred[key]
        if self.ledger.retry(self, key):
            if not self._try_start(entry.group, entry.rep_id,
                                   entry.failed_at, self.sim.now):
                return      # parked again: the backoff keeps growing
            self.ledger.started(key)
        del self._deferred[key]

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
                self.ledger.surviving(self, kv[0][0]), kv[1].failed_at,
                kv[0]))
        for key, entry in entries:
            if entry.event is not None:
                entry.event.cancel()
            self.ledger.rearm(key)
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
        # The corrupt block may defeat what redundancy remained.
        self._record_losses(disk_id, [(group, [rep_id])], now)
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

    def _try_start(self, group: RedundancyGroup, rep_id: int,
                   failed_at: float, now: float) -> bool:
        """Attempt to start (or re-start) one block rebuild.

        Returns True when the rebuild was started or is moot (group lost /
        block already rebuilt); False when it cannot run right now and was
        parked with :meth:`defer_rebuild` — never a silent drop.  Reading
        the sources first surfaces any latent errors in them, which can
        reveal the group as already dead.
        """
        self._discover_latent_partners(group, rep_id)
        if group.lost or rep_id not in group.failed:
            return True     # moot: resolved or lost while we looked
        sources = self._online_sources(group, rep_id)
        if not sources:
            # No readable replica until an outage ends.
            self.defer_rebuild(group, rep_id, failed_at, now)
            return False
        return self._start(group, rep_id, failed_at, now, sources)

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

        self._redirect_targets(disk_id, now)
        for job in list(self._jobs_by_source.get(disk_id, ())):
            if job.cancelled or job.group.lost:
                continue
            sources = self._online_sources(job.group, job.rep_id)
            if sources:
                self.stats.source_redirections += 1
                if tele is not None:
                    tele.source_redirections.inc()
                for s in job.sources:
                    self._jobs_by_source.get(s, set()).discard(job)
                job.sources = sources
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
        if self.config.recovery_threshold > 1 and self.ledger.held:
            self._release(self.ledger.release_ready(self), now)

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
            deferred_rebuilds=self.deferred_outstanding,
            rebuild_load_max=float(max(loads, default=0)),
            rebuild_load_mean=(sum(loads) / len(loads)) if loads else 0.0,
            bandwidth_by_rack=by_rack)

    # -- scheme-specific hooks ---------------------------------------------- #
    @abstractmethod
    def _schedule_one(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float) -> None:
        """Schedule one rebuild: a fresh loss, or one released by the
        lazy-recovery trigger.

        ``failed_at`` is the block's *original* failure time (windows of
        vulnerability measure true exposure); detection/queueing starts
        from ``now``, the loss or release time.
        """

    @abstractmethod
    def _reschedule(self, job: RebuildJob, now: float) -> None:
        """Restart a job whose target died mid-rebuild."""

    @abstractmethod
    def _start(self, group: RedundancyGroup, rep_id: int, failed_at: float,
               now: float, sources: tuple[int, ...]) -> bool:
        """Start the rebuild reading ``sources`` on a scheme-chosen
        target; False when it was parked with :meth:`defer_rebuild`.
        Must never raise for want of a target."""

    def _after_failure(self, disk_id: int, now: float) -> None:
        """Hook for replacement policies; default does nothing."""

    def _allows_buddy(self) -> bool:
        """Whether this manager's policy permits buddy co-location (only
        true in ablation studies with forbid_buddy disabled)."""
        return False

"""Traditional RAID recovery: the baseline FARM is compared against.

"The traditional recovery approach in RAID architectures replicates data on
a failed disk to one dedicated spare disk upon disk failure. ... Without
FARM, reconstruction requests queue up at the single recovery target."

On each disk failure this manager provisions a fresh dedicated spare and
serializes the reconstruction of every lost block onto it.  The k-th block
is vulnerable until its queued rebuild completes, so the window of
vulnerability stretches up to the whole-disk rebuild time (hours), versus
FARM's single-block time (seconds to minutes).  If the spare itself dies
mid-rebuild, a new spare is provisioned and the unfinished work restarts
(counted as target redirections).
"""

from __future__ import annotations

from ..cluster.system import StorageSystem
from ..redundancy.group import RedundancyGroup
from ..sim.engine import Simulator
from ..telemetry.handle import Telemetry
from .recovery import RebuildJob, RecoveryManager


class TraditionalRecovery(RecoveryManager):
    """Whole-disk rebuild onto a single dedicated spare."""

    def __init__(self, system: StorageSystem, sim: Simulator,
                 telemetry: Telemetry | None = None) -> None:
        super().__init__(system, sim, telemetry=telemetry)
        #: failed disk -> its spare (so late losses of the same disk's data
        #: keep queueing on the same spare).
        self._spare_for: dict[int, int] = {}
        self.spares_provisioned = 0

    # ------------------------------------------------------------------ #
    def _provision_spare(self, now: float,
                         slot: int | None = None) -> int:
        spare = self.system.add_spare(now, slot=slot)
        self.spares_provisioned += 1
        # The spare is a real drive: it can fail too.
        t = self.system.failure_times[spare]
        if t <= self.config.duration:
            self.sim.schedule_at(t, self.on_disk_failure, spare,
                                 name="spare-failure")
        return spare

    def _enqueue(self, group: RedundancyGroup, rep: int, spare: int,
                 failed_at: float, start: float,
                 sources: tuple[int, ...]) -> None:
        job = RebuildJob(group=group, rep_id=rep, target=spare,
                         failed_at=failed_at, sources=sources)
        factor = self._bandwidth_factor(spare, sources)
        duration = self.config.rebuild_seconds_per_block / factor
        completion = self.server(spare).submit(start, duration)
        job.event = self.sim.schedule_at(completion, self._complete, job,
                                         name="raid-rebuild")
        self._register(job)
        self.stats.rebuilds_started += 1
        if self.telemetry is not None:
            self.telemetry.rebuilds_started.inc()

    def _spare_disk_for(self, failed_disk: int, group: RedundancyGroup,
                        now: float) -> int:
        """The (possibly provisioned-on-demand) spare for ``failed_disk``,
        or a secondary spare when the primary already holds a buddy."""
        spare = self._spare_for.get(failed_disk)
        if spare is None or not self.system.disks[spare].online:
            # The spare goes into the failed disk's bay, inheriting its
            # failure domain — so rebuilding onto it never changes the
            # group's per-rack block counts.
            spare = self._provision_spare(now, slot=failed_disk)
            self._spare_for[failed_disk] = spare
        if not group.holds_buddy(spare):
            return spare
        # The spare must not hold two blocks of one group; recover this
        # block onto a second spare (rare).
        alt = self._spare_for.get(-spare - 1)
        if alt is None or not self.system.disks[alt].online or \
                group.holds_buddy(alt):
            alt = self._provision_spare(now, slot=failed_disk)
            self._spare_for[-spare - 1] = alt
        return alt

    # -- RecoveryManager hooks -------------------------------------------- #
    def _start(self, group: RedundancyGroup, rep_id: int, failed_at: float,
               now: float, sources: tuple[int, ...]) -> bool:
        """Queue one block onto the failed disk's spare, provisioned on
        demand so a target always exists."""
        # The block's recorded location is still the disk it failed on, so
        # late losses of one disk's data share that disk's spare queue.
        failed_disk = group.disks[rep_id]
        spare = self._spare_disk_for(failed_disk, group, now)
        start = now + self.config.detection_latency
        self._enqueue(group, rep_id, spare, failed_at, start, sources)
        return True

    def _schedule_one(self, group: RedundancyGroup, rep_id: int,
                      failed_at: float, now: float) -> None:
        """Queue on the spare now, keeping the block's original failure
        time (earlier than ``now`` after a lazy release) for windows."""
        self._try_start(group, rep_id, failed_at, now)

    def _reschedule(self, job: RebuildJob, now: float) -> None:
        """The spare died or went offline: restart the block elsewhere.

        The failed disk's ``_spare_for`` entry still names the dead spare,
        so the first rescheduled job provisions a replacement and the rest
        share it via :meth:`_spare_disk_for`.
        """
        if job.group.lost or job.rep_id not in job.group.failed:
            return
        self._try_start(job.group, job.rep_id, job.failed_at, now)

"""Deterministic failure scenarios: what-if studies and post-mortems.

The Monte-Carlo engines sample failures stochastically; this module lets an
operator *script* them — "disk 17 dies at t=100 s, its recovery target dies
40 s later, a whole shelf of 12 disks goes at t=1 h" — and observe exactly
how FARM (or the traditional baseline) responds: windows, redirections,
which groups were lost and when.

Scenarios run on the object engine so the full timeline is inspectable, and
random background failures are disabled (every failure is injected), which
makes the outcome exactly reproducible.

Beyond whole-disk deaths a scenario can script *transient outages*
(:meth:`Scenario.outage`) and *latent sector errors*
(:meth:`Scenario.latent`), and arm any stochastic
:class:`~repro.faults.base.FaultInjector` (:meth:`Scenario.inject_faults`)
— those draw from their own named streams, so the scripted part of the
timeline stays exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.system import StorageSystem
from ..config import SystemConfig
from ..core.policy import PolicyConfig
from ..core.runner import build_manager
from ..faults.base import FaultContext, FaultInjector, FaultStats, arm_all
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import TraceRecorder
from ..telemetry.handle import Telemetry


@dataclass(frozen=True)
class Injection:
    """One scripted disk failure."""

    time: float
    disk_id: int


@dataclass
class ScenarioOutcome:
    """Everything observable after a scenario runs."""

    config: SystemConfig
    injections: list[Injection]
    stats: object                       # RecoveryStats
    system: StorageSystem
    trace: TraceRecorder
    lost_groups: list[int]
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: rebuilds still parked in the deferred queue at the horizon.
    deferred_outstanding: int = 0
    #: rebuilds still held by the lazy-recovery trigger at the horizon.
    held_outstanding: int = 0

    @property
    def data_survived(self) -> bool:
        return not self.lost_groups

    def summary(self) -> str:
        s = self.stats
        mode = "FARM" if self.config.use_farm else "traditional"
        lines = [
            f"scenario under {mode} recovery: "
            f"{len(self.injections)} injected failures",
            f"  rebuilds: {s.rebuilds_completed}/{s.rebuilds_started} "
            f"completed, mean window {s.mean_window:,.0f} s, "
            f"max {s.window_max:,.0f} s",
            f"  redirections: {s.target_redirections} target, "
            f"{s.source_redirections} source",
        ]
        if s.rebuilds_deferred:
            lines.append(
                f"  degraded: {s.rebuilds_deferred} rebuilds deferred, "
                f"{s.retries} retries, "
                f"{self.deferred_outstanding} still parked")
        if s.latent_errors_discovered or s.transient_outages:
            lines.append(
                f"  faults: {s.latent_errors_discovered} latent errors "
                f"discovered (mean latency {s.mean_latent_window:,.0f} s), "
                f"{s.transient_outages} transient outages")
        if self.lost_groups:
            lines.append(f"  DATA LOST: groups {self.lost_groups} "
                         f"(first at t={s.first_loss_time:,.0f} s)")
        else:
            lines.append("  no data lost")
        return "\n".join(lines)


class Scenario:
    """Builder for scripted-failure studies.

    >>> from repro.units import TB, GB
    >>> cfg = SystemConfig(total_user_bytes=4 * TB,
    ...                    group_user_bytes=10 * GB)
    >>> out = (Scenario(cfg)
    ...        .fail(disk=0, at=100.0)
    ...        .fail(disk=1, at=200.0)
    ...        .run(horizon=86400.0))
    >>> isinstance(out.data_survived, bool)
    True
    """

    def __init__(self, config: SystemConfig, seed: int = 0,
                 policy: PolicyConfig | None = None,
                 telemetry: "Telemetry | None" = None) -> None:
        self.config = config
        self.seed = seed
        self.policy = policy
        self.telemetry = telemetry
        self._injections: list[Injection] = []
        #: (time, disk, count) partner failures resolved once the system
        #: is built (partner identity depends on placement).
        self._partner_injections: list[tuple[float, int, int]] = []
        #: (start, disk, duration) scripted transient outages.
        self._outages: list[tuple[float, int, float]] = []
        #: (time, disk) scripted latent-error injections.
        self._latents: list[tuple[float, int]] = []
        self._injectors: list[FaultInjector] = []

    # -- scripting ------------------------------------------------------- #
    def fail(self, disk: int, at: float) -> "Scenario":
        """Schedule disk ``disk`` to fail at time ``at`` (seconds)."""
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._injections.append(Injection(time=float(at), disk_id=disk))
        return self

    def fail_batch(self, disks: list[int], at: float) -> "Scenario":
        """A correlated failure (shelf / rack / cooling-zone loss)."""
        for d in disks:
            self.fail(d, at)
        return self

    def fail_partners_of(self, disk: int, at: float,
                         count: int = 1) -> "Scenario":
        """Fail ``count`` disks that share a redundancy group with
        ``disk`` — the adversarial case for the window of vulnerability.

        Partner identity depends on the placement, so resolution happens in
        :meth:`run` once the system is built.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._partner_injections.append((float(at), disk, count))
        return self

    def outage(self, disk: int, at: float, duration: float) -> "Scenario":
        """Take ``disk`` offline at ``at`` and bring it back after
        ``duration`` seconds — a transient outage, not a failure."""
        if at < 0 or duration <= 0:
            raise ValueError("outage needs at >= 0 and duration > 0")
        self._outages.append((float(at), disk, float(duration)))
        return self

    def latent(self, disk: int, at: float) -> "Scenario":
        """Silently corrupt one block on ``disk`` at time ``at``; nothing
        notices until a scrub or rebuild read discovers it."""
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._latents.append((float(at), disk))
        return self

    def inject_faults(self, *injectors: FaultInjector) -> "Scenario":
        """Arm stochastic fault injectors (see :mod:`repro.faults`)."""
        self._injectors.extend(injectors)
        return self

    # -- execution -------------------------------------------------------- #
    def run(self, horizon: float | None = None) -> ScenarioOutcome:
        """Build the system, inject the script, simulate to the horizon."""
        # Scenario runs are fully scripted: no stochastic failures, not
        # even for spares provisioned mid-run.
        streams = RandomStreams(self.seed)
        system = StorageSystem(self.config, streams,
                               deterministic_failures=True)

        trace = TraceRecorder()
        sim = Simulator(trace=trace)
        manager = build_manager(system, sim, policy=self.policy,
                                telemetry=self.telemetry)
        end = horizon if horizon is not None else self.config.duration
        if self.telemetry is not None:
            self.telemetry.attach_probes(sim, manager.telemetry_sample,
                                         until=end)
        ctx = FaultContext(system=system, sim=sim, manager=manager,
                           streams=streams, horizon=end,
                           telemetry=self.telemetry)
        arm_all(self._injectors, ctx)

        resolved: list[Injection] = list(self._injections)
        for at, disk, count in self._partner_injections:
            partners: list[int] = []
            for group in system.groups_on_disk(disk):
                for d in group.disks:
                    if d != disk and d not in partners:
                        partners.append(d)
                if len(partners) >= count:
                    break
            for d in partners[:count]:
                resolved.append(Injection(time=at, disk_id=d))
        resolved.sort(key=lambda i: i.time)

        for inj in resolved:
            if inj.disk_id >= len(system.disks):
                raise ValueError(f"no such disk {inj.disk_id}")
            sim.schedule_at(inj.time, manager.on_disk_failure, inj.disk_id,
                            name="injected-failure")
        for at, disk, duration in self._outages:
            if disk >= len(system.disks):
                raise ValueError(f"no such disk {disk}")
            sim.schedule_at(at, manager.on_disk_offline, disk,
                            name="injected-outage")
            sim.schedule_at(at + duration, manager.on_disk_online, disk,
                            name="injected-restore")
        latent_rng = streams.get("faults-latent") if self._latents else None
        for at, disk in sorted(self._latents):
            if disk >= len(system.disks):
                raise ValueError(f"no such disk {disk}")
            sim.schedule_at(at, self._inject_latent, ctx, latent_rng, disk,
                            name="injected-latent")
        sim.run(until=end)
        manager.ledger.finalize(end)

        lost = [g.grp_id for g in system.groups if g.lost]
        return ScenarioOutcome(config=self.config, injections=resolved,
                               stats=manager.stats, system=system,
                               trace=trace, lost_groups=lost,
                               fault_stats=ctx.stats,
                               deferred_outstanding=(
                                   manager.deferred_outstanding),
                               held_outstanding=manager.held_outstanding)

    @staticmethod
    def _inject_latent(ctx: FaultContext, rng, disk: int) -> None:
        disk_obj = ctx.system.disks[disk]
        if disk_obj.dead or not disk_obj.online:
            return      # can't corrupt what can't be written
        if ctx.system.inject_latent_error(disk, rng, ctx.sim.now):
            ctx.stats.latent_injected += 1

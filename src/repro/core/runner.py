"""Object-level simulation driver: one system lifetime end to end.

This is the *reference* engine: explicit disks, groups, and recovery
managers on the discrete-event simulator.  It is exact but allocates one
object per group, so it suits moderate scales (up to a few hundred thousand
groups).  The Monte-Carlo sweeps in :mod:`repro.reliability` use the
flat-array engine, which is cross-validated against this one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.system import StorageSystem
from ..config import SystemConfig
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..telemetry.handle import Telemetry
from .farm import FarmRecovery
from .policy import PolicyConfig
from .recovery import RecoveryManager, RecoveryStats
from .traditional import TraditionalRecovery


@dataclass
class RunResult:
    """Outcome of one simulated system lifetime."""

    config: SystemConfig
    seed: int
    stats: RecoveryStats
    system: StorageSystem | None = None

    @property
    def data_loss(self) -> bool:
        return self.stats.any_loss


def build_manager(system: StorageSystem, sim: Simulator,
                  policy: PolicyConfig | None = None,
                  telemetry: Telemetry | None = None) -> RecoveryManager:
    """Instantiate the recovery manager selected by the config."""
    if system.config.use_farm:
        return FarmRecovery(system, sim, policy=policy, telemetry=telemetry)
    return TraditionalRecovery(system, sim, telemetry=telemetry)


def simulate_run(config: SystemConfig, seed: int = 0,
                 keep_system: bool = False,
                 policy: PolicyConfig | None = None,
                 telemetry: Telemetry | None = None,
                 failure_draw=None) -> RunResult:
    """Simulate one system for ``config.duration`` seconds.

    Deterministic in ``(config, seed)``.  Set ``keep_system`` to inspect
    final disk/group state (used by the Table 3 utilization study).
    Passing a :class:`~repro.telemetry.Telemetry` handle arms the periodic
    cluster-state probe and instruments the run; probes are read-only, so
    the stats are unchanged by enabling them.  ``failure_draw`` installs
    an importance-sampling proposal (see :mod:`repro.reliability.rare`);
    the run's likelihood ratio lands on ``stats.log_weight``.
    """
    streams = RandomStreams(seed)
    system = StorageSystem(config, streams, failure_draw=failure_draw)
    sim = Simulator()
    manager = build_manager(system, sim, policy=policy, telemetry=telemetry)
    if telemetry is not None:
        telemetry.attach_probes(sim, manager.telemetry_sample,
                                until=config.duration)

    for disk_id, t in enumerate(system.failure_times):
        if t <= config.duration:
            sim.schedule_at(t, manager.on_disk_failure, disk_id,
                            name="disk-failure")
    sim.run(until=config.duration)
    manager.ledger.finalize(config.duration)
    if failure_draw is not None:
        manager.stats.log_weight = failure_draw.log_weight
    return RunResult(config=config, seed=seed, stats=manager.stats,
                     system=system if keep_system else None)

"""FARM and the traditional-RAID baseline (the paper's core)."""

from .farm import FarmRecovery
from .policy import PolicyConfig, TargetSelector
from .recovery import RebuildJob, RecoveryManager, RecoveryStats
from .runner import RunResult, build_manager, simulate_run
from .traditional import TraditionalRecovery

__all__ = [
    "FarmRecovery", "TraditionalRecovery",
    "RecoveryManager", "RecoveryStats", "RebuildJob",
    "PolicyConfig", "TargetSelector",
    "RunResult", "simulate_run", "build_manager",
]

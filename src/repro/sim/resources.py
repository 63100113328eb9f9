"""Queueing resources for the simulation layer.

:class:`SerialServer` is a single-server FCFS queue expressed purely in
*times*: callers submit a job of a given duration and get back its
completion time.  This is the workhorse of the recovery models — e.g. the
single spare disk in the traditional RAID baseline serializes all rebuild
jobs, and each FARM recovery target serializes jobs directed at it.
Because the reliability simulator only needs completion times (not
mid-job state), this closed-form queue is far cheaper than a token-based
resource.
"""

from __future__ import annotations


class SerialServer:
    """Single-server FCFS queue in closed form.

    Jobs are submitted with ``submit(now, duration)`` and execute back to
    back: a job starts at ``max(now, time the previous job finishes)``.

    >>> q = SerialServer()
    >>> q.submit(0.0, 10.0)     # runs 0..10
    10.0
    >>> q.submit(2.0, 5.0)      # queued until 10, runs 10..15
    15.0
    >>> q.submit(20.0, 1.0)     # idle gap, runs 20..21
    21.0
    """

    __slots__ = ("free_at", "jobs_served", "busy_time")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.jobs_served = 0
        self.busy_time = 0.0

    def submit(self, now: float, duration: float) -> float:
        """Enqueue a job arriving at ``now``; return its completion time."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        start = max(now, self.free_at)
        self.free_at = start + duration
        self.jobs_served += 1
        self.busy_time += duration
        return self.free_at

    def backlog(self, now: float) -> float:
        """Seconds of queued work remaining at time ``now``."""
        return max(0.0, self.free_at - now)

    def reset(self) -> None:
        self.free_at = 0.0
        self.jobs_served = 0
        self.busy_time = 0.0

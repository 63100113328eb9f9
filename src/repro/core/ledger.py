"""The recovery ledger: rebuild bookkeeping shared by both DES engines.

The object engine (:mod:`repro.core.recovery`) and the flat-array engine
(:mod:`repro.reliability.simulation`) store state and choose targets
differently, but four decisions around a rebuild are the same in both,
and :class:`RecoveryLedger` is their one implementation: lazy held
rebuilds and their most-at-risk-first release, per-group unavailability
spans, deferral with doubling backoff, and the loss, completion,
redirection and rack-exposure counters of :class:`RecoveryStats`.

State is keyed by group id and ``(grp_id, rep)``.  The engine passes in
its scalars, and itself as the :class:`LedgerOwner` to consult, so the
ledger reads no configuration, draws no randomness, never asks which
engine it serves, and holds no reference back to the engine (which would
keep every finished engine alive until a full garbage collection).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import insort
from typing import TYPE_CHECKING, Iterable, Iterator

from ..availability.queue import RepairPriority, RepairPriorityQueue
from ..telemetry.handle import Telemetry
from ..units import MINUTE

if TYPE_CHECKING:
    from .recovery import RecoveryStats

#: Deferred-rebuild backoff: ``RETRY_BASE_S * 2**attempts`` seconds.  The
#: doubling is uncapped (exponent clamped) because the engines already
#: retry promptly whenever the world improves (batch arrived, disk back
#: online); a fixed hourly cap would instead let thousands of hopelessly
#: parked blocks — e.g. a dead rack under the failure-domain cap —
#: retry-spin for simulated months and dominate the event loop.
RETRY_BASE_S = MINUTE
RETRY_MAX_DOUBLINGS = 16     # ~45 days between retries once clamped


class RecoveryLedger:
    """Held rebuilds, open spans, deferral attempts and their counters."""

    def __init__(self, stats: RecoveryStats, telemetry: Telemetry | None,
                 *, threshold: int, tolerance: int, n: int,
                 user_bytes: float) -> None:
        self.stats = stats
        self.telemetry = telemetry
        self.threshold = threshold
        self.tolerance = tolerance
        self.n = n
        self.user_bytes = user_bytes
        #: Lazy held rebuilds: grp_id -> [(rep, failed_at, origin)] sorted
        #: by rep, so a release or a loss touches only its own group.
        #: Empty forever at the default threshold of 1.
        self.held: dict[int, list[tuple[int, float, int]]] = {}
        #: Open unavailability spans: grp_id -> degraded-since.
        self.degraded_since: dict[int, float] = {}
        #: Parked rebuilds: (grp_id, rep) -> retries armed since parking
        #: (or since the last re-arm).
        self.deferred: dict[tuple[int, int], int] = {}

    # -- lazy held rebuilds ------------------------------------------------- #
    def hold(self, state: LedgerOwner, losses: list[tuple[int, int]],
             now: float, origin: int) -> tuple[int, RepairPriorityQueue]:
        """Park block losses ``(grp_id, rep)`` failed at ``now`` by disk
        ``origin``; groups now at the threshold release everything they
        hold.  Returns ``(rebuilds left held, release queue)``."""
        for g, rep in losses:
            insort(self.held.setdefault(g, []), (rep, now, origin))
        queue = self.release_ready(state,
                                   dict.fromkeys(g for g, _ in losses))
        n_held = sum(1 for g, _ in losses if g in self.held)
        if n_held:
            self.stats.rebuilds_held += n_held
            if self.telemetry is not None:
                self.telemetry.rebuilds_held.inc(n_held)
        return n_held, queue

    def release_ready(self, state: LedgerOwner,
                      groups: Iterable[int] | None = None
                      ) -> RepairPriorityQueue:
        """Queue the held rebuilds of each of ``groups`` (default: every
        holding group) whose missing count reached the threshold, keyed
        most-at-risk-first: surviving redundancy, then age."""
        queue = RepairPriorityQueue()
        for g in list(self.held if groups is None else groups):
            if state.missing_blocks(g) >= self.threshold:
                surviving = self.surviving(state, g)
                for rep, failed_at, origin in self.held.pop(g):
                    queue.push(RepairPriority(surviving, failed_at, g, rep),
                               (rep, failed_at, origin))
        return queue

    def release(self, state: LedgerOwner, queue: RepairPriorityQueue
                ) -> Iterator[tuple[int, int, float, int]]:
        """Yield ``(grp_id, rep, failed_at, origin)`` most-at-risk-first,
        skipping blocks rebuilt or groups lost since they were queued."""
        for prio, (rep, failed_at, origin) in queue.drain():
            if not state.awaits_rebuild(prio.grp_id, rep):
                continue
            if self.telemetry is not None:
                self.telemetry.held_released.inc()
            yield prio.grp_id, rep, failed_at, origin

    def surviving(self, state: LedgerOwner, g: int) -> int:
        """Further block losses group ``g`` survives right now."""
        return max(0, self.tolerance - state.missing_blocks(g))

    # -- unavailability spans ------------------------------------------------ #
    def block_failed(self, g: int, rep: int, now: float) -> None:
        """Block ``rep`` of ``g`` went missing: open the group's span
        unless one is open."""
        if g not in self.degraded_since:
            self.degraded_since[g] = now
            if self.telemetry is not None:
                self.telemetry.group_degraded(g, now, self.n)
        if self.telemetry is not None:
            self.telemetry.block_failed(g, rep, now, self.n)

    def repaired(self, g: int, now: float) -> None:
        """Full redundancy restored: close the span, account it."""
        since = self.degraded_since.pop(g, None)
        if since is None:
            return
        duration = now - since
        self.stats.unavail_group_seconds += duration
        self.stats.unavail_spans += 1
        self.stats.unavail_max = max(self.stats.unavail_max, duration)
        if self.telemetry is not None:
            self.telemetry.group_restored(g, now)

    def finalize(self, now: float) -> None:
        """Close spans still open at the horizon, in ascending group-id
        order — deterministic, so span totals are float-exact."""
        for g in sorted(self.degraded_since):
            self.repaired(g, now)

    # -- loss and completion ------------------------------------------------- #
    def lost(self, g: int, now: float) -> None:
        """Group ``g`` lost data: count it; drop its held rebuilds and its
        span (loss is durability's ledger, not availability's)."""
        stats = self.stats
        stats.groups_lost += 1
        stats.bytes_lost += self.user_bytes
        if stats.first_loss_time is None:
            stats.first_loss_time = now
        self.degraded_since.pop(g, None)
        self.held.pop(g, None)
        if self.telemetry is not None:
            self.telemetry.group_lost(g)

    def completed(self, g: int, rep: int, failed_at: float, now: float,
                  restored: bool) -> None:
        """A rebuild finished; ``restored`` if it was the group's last
        missing block."""
        stats = self.stats
        stats.rebuilds_completed += 1
        window = now - failed_at
        stats.window_total += window
        stats.window_max = max(stats.window_max, window)
        if self.telemetry is not None:
            self.telemetry.rebuilds_completed.inc()
            self.telemetry.block_rebuilt(g, rep, now)
        if restored:
            self.repaired(g, now)

    # -- redirection and rack exposure ------------------------------------ #
    def redirected(self) -> None:
        """A rebuild lost its target mid-transfer and restarts elsewhere."""
        self.stats.target_redirections += 1
        if self.telemetry is not None:
            self.telemetry.target_redirections.inc()

    def colocated(self, k: int) -> None:
        """``k`` block losses whose group still holds a live block in
        the failing disk's rack."""
        self.stats.domain_colocated_losses += k
        if self.telemetry is not None:
            self.telemetry.domain_colocated_losses.inc(k)

    # -- deferral ------------------------------------------------------------ #
    def defer(self, key: tuple[int, int], constrained: bool) -> bool:
        """Park rebuild ``key``; True when newly parked (counted once per
        block, ``constrained`` when the domain cap alone forced it)."""
        if key in self.deferred:
            return False
        self.deferred[key] = 0
        self.stats.rebuilds_deferred += 1
        if constrained:
            self.stats.rebuilds_deferred_constraint += 1
        if self.telemetry is not None:
            self.telemetry.rebuilds_deferred.inc()
            if constrained:
                self.telemetry.rebuilds_deferred_constraint.inc()
        return True

    def backoff(self, key: tuple[int, int]) -> float:
        """Delay before parked ``key``'s next retry (doubles per call)."""
        attempts = self.deferred[key]
        self.deferred[key] = attempts + 1
        return RETRY_BASE_S * 2.0 ** min(attempts, RETRY_MAX_DOUBLINGS)

    def started(self, key: tuple[int, int]) -> None:
        """Rebuild ``key`` started, or no longer needs to: forget it."""
        self.deferred.pop(key, None)

    def rearm(self, key: tuple[int, int]) -> None:
        """Restart parked ``key``'s backoff from the base delay."""
        self.deferred[key] = 0

    def retry(self, state: LedgerOwner, key: tuple[int, int]) -> bool:
        """A retry of ``key`` fired.  True (counted) when the rebuild
        should try to start; False when the key is no longer parked, or
        is forgotten now because its block was rebuilt or group lost."""
        if key not in self.deferred:
            return False
        if not state.awaits_rebuild(*key):
            del self.deferred[key]
            return False
        self.stats.retries += 1
        if self.telemetry is not None:
            self.telemetry.rebuild_retries.inc()
        return True

    # -- multilevel-splitting snapshots -------------------------------------- #
    def capture(self) -> dict[str, list]:
        """The ledger's share of a split state, as sorted flat lists."""
        return dict(
            deferred=sorted((g, rep, a)
                            for (g, rep), a in self.deferred.items()),
            lazy_held=sorted((g, rep, fa, o)
                             for g, held in self.held.items()
                             for rep, fa, o in held),
            degraded_since=sorted(self.degraded_since.items()))

    def restore(self, stats: RecoveryStats,
                deferred: list[tuple[int, int, int]],
                lazy_held: list[tuple[int, int, float, int]],
                degraded_since: list[tuple[int, float]]) -> None:
        """Adopt a captured state.  Attempt counts survive, so a clone's
        re-deferral neither double-counts nor resets the backoff."""
        self.stats = stats
        self.deferred = {(g, rep): a for g, rep, a in deferred}
        self.held = {}
        for g, rep, fa, o in lazy_held:
            insort(self.held.setdefault(g, []), (rep, fa, o))
        self.degraded_since = dict(degraded_since)


class LedgerOwner(ABC):
    """An engine owning a :class:`RecoveryLedger`: it answers the two
    questions the ledger asks of its group state (passing itself to the
    ledger calls that need them) and publishes the outstanding work."""

    ledger: RecoveryLedger

    @abstractmethod
    def missing_blocks(self, grp_id: int) -> int:
        """Blocks without a live, reachable replica right now."""

    @abstractmethod
    def awaits_rebuild(self, grp_id: int, rep: int) -> bool:
        """The block is still failed and its group not lost."""

    @property
    def held_outstanding(self) -> int:
        """Rebuilds currently parked by the lazy-recovery trigger."""
        return sum(len(reps) for reps in self.ledger.held.values())

    @property
    def deferred_outstanding(self) -> int:
        """Rebuilds currently parked awaiting a viable target/source."""
        return len(self.ledger.deferred)

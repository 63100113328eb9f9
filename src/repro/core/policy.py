"""Recovery-target selection (paper §2.3).

"Our data placement algorithm, RUSH, provides a list of locations where
replicated data blocks can go.  After a failure, we select the disk on which
the new replica is going to reside from these locations. ... The recovery
target chosen from the candidate list (a) must be alive, (b) should not
contain already a buddy from the same group, and (c) must have sufficient
space.  Additionally, it should currently have sufficient bandwidth, though
if there is no better alternative, we will stick to it.  If we use
S.M.A.R.T. ... we are able to avoid unreliable disks."

The hard constraints (a)–(c) are always enforced; bandwidth and SMART advice
are *soft* — applied in a first pass and dropped in a second pass if no
candidate survives, exactly as the paper describes.

:func:`choose_target` is this rule for both DES engines; each supplies
its candidates and answers four questions from its own state (admissible?
inside the rack cap?  preferred?  which disks does the last-resort scan
cover?).  :func:`within_domain_cap` and :func:`holds_rack` count a group's
blocks per rack for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from ..cluster.system import StorageSystem
from ..placement.base import PlacementError
from ..redundancy.group import RedundancyGroup

#: How far past a group's ``n`` current locations the object engine
#: walks its placement candidate list.
CANDIDATE_WINDOW = 32


@dataclass(frozen=True)
class PolicyConfig:
    """Ablation switches of the target rule (object engine only)."""

    forbid_buddy: bool = True       # constraint (b)
    prefer_idle: bool = True        # soft bandwidth preference


def choose_target(candidates: Iterable[int],
                  admissible: Callable[[int], bool],
                  within_cap: Callable[[int], bool] | None,
                  preferred: Callable[[int], bool],
                  everyone: Iterable[int]) -> tuple[int | None, bool]:
    """Pick a recovery target: ``(target | None, constrained)``.

    Returns the first ``admissible`` candidate inside the cap
    (``within_cap`` is None when there is none) that is ``preferred``,
    else the first such candidate, else the first such disk of
    ``everyone`` (candidates run dry in small or very full systems).
    ``preferred`` is asked in candidate order, up to its first True: the
    SMART monitor draws a disk's coin when first asked.  ``constrained``
    says a cap veto left no target, so the caller defers, never violates.
    """
    vetoed = False
    fallback = None
    for d in candidates:
        if not admissible(d):
            continue
        if within_cap is not None and not within_cap(d):
            vetoed = True
            continue
        if preferred(d):
            return d, False
        if fallback is None:
            fallback = d
    if fallback is not None:
        return fallback, False
    for d in everyone:
        if not admissible(d):
            continue
        if within_cap is not None and not within_cap(d):
            vetoed = True
            continue
        return d, False
    return None, vetoed


def within_domain_cap(rack_of: Callable[[int], int],
                      live_disks: Iterable[int], inflight: Iterable[int],
                      d: int, limit: int) -> bool:
    """Would one more block of a group on ``d`` keep it within ``limit``
    blocks per rack?  Counts the group's live blocks and the targets of
    its other in-flight rebuilds (``inflight``) already in ``d``'s rack."""
    rack = rack_of(d)
    count = sum(1 for dd in live_disks if rack_of(dd) == rack)
    count += sum(1 for dd in inflight if rack_of(dd) == rack)
    return count < limit


def holds_rack(rack_of: Callable[[int], int], live_disks: Iterable[int],
               rack: int) -> bool:
    """Does the group still hold a live block in ``rack``?"""
    return any(rack_of(d) == rack for d in live_disks)


class TargetSelector:
    """Chooses FARM recovery targets from the placement candidate list."""

    def __init__(self, system: StorageSystem,
                 policy: PolicyConfig | None = None) -> None:
        self.system = system
        self.policy = policy or PolicyConfig()

    def select(self, group: RedundancyGroup, nbytes: float, now: float,
               busy_until: Callable[[int], float] = lambda d: 0.0,
               exclude: frozenset[int] = frozenset(),
               reserved: Callable[[int], float] = lambda d: 0.0
               ) -> tuple[int | None, bool]:
        """:func:`choose_target` over ``group``'s candidate list.
        ``exclude`` holds the targets of the group's other in-flight
        rebuilds, ``reserved`` the space promised to in-flight rebuilds."""
        system, policy = self.system, self.policy
        placement = system.placement
        try:
            candidates = placement.candidates(group.grp_id, min(
                group.scheme.n + CANDIDATE_WINDOW, placement.n_disks))
        except PlacementError:
            candidates = placement.candidates(group.grp_id,
                                              placement.n_disks)
        disks = system.disks

        def admissible(d: int) -> bool:
            disk = disks[d]
            return (d not in exclude and disk.online
                    and not (policy.forbid_buddy and group.holds_buddy(d))
                    and disk.free_bytes - reserved(d) >= nbytes)

        def preferred(d: int) -> bool:
            if policy.prefer_idle and busy_until(d) > now:
                return False
            return not system.is_suspect(d, now)

        limit = system.config.max_chunks_per_domain
        within_cap = None
        if limit is not None:
            live = [d for rep, d in enumerate(group.disks)
                    if rep not in group.failed and d >= 0]
            within_cap = partial(within_domain_cap, system.topology.rack_of,
                                 live, exclude, limit=limit)
        return choose_target(candidates, admissible, within_cap, preferred,
                             (disk.disk_id for disk in disks))

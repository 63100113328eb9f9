"""Placement-algorithm interface.

A placement algorithm deterministically maps each redundancy group to an
ordered *candidate list* of distinct disks.  The first ``n`` candidates hold
the group's blocks; later candidates are where FARM looks for recovery
targets when a block must be re-created (paper §2.3: "Our data placement
algorithm, RUSH, provides a list of locations where replicated data blocks
can go").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

import numpy as np


class PlacementError(RuntimeError):
    """Raised when a placement cannot be satisfied (e.g. too few disks)."""


class PlacementAlgorithm(ABC):
    """Deterministic group -> ordered-distinct-disk-list mapping."""

    @property
    @abstractmethod
    def n_disks(self) -> int:
        """Total number of disks currently known to the algorithm."""

    @abstractmethod
    def candidates(self, grp_id: int, count: int) -> list[int]:
        """First ``count`` distinct candidate disks for group ``grp_id``.

        The list is deterministic for a given (algorithm state, grp_id) and
        is a *prefix-stable* sequence: ``candidates(g, k)`` is a prefix of
        ``candidates(g, k+1)``.
        """

    def place_group(self, grp_id: int, n: int) -> list[int]:
        """Disks for the group's n blocks (first n candidates)."""
        return self.candidates(grp_id, n)

    def place_many(self, grp_ids: np.ndarray, n: int) -> np.ndarray:
        """Vectorized ``place_group`` -> array of shape (len(grp_ids), n).

        The default implementation loops; subclasses override with a
        vectorized path.
        """
        return np.array([self.place_group(int(g), n) for g in grp_ids],
                        dtype=np.int64)

    def candidate_prefixes(self, grp_ids: np.ndarray,
                           k: int) -> Iterator[list[int]]:
        """Yield a prefix of at most ``k`` candidates for each group.

        Row ``i`` equals ``candidates(grp_ids[i], m)`` for its own length
        ``m``, and ``candidates`` succeeds for every count up to ``m``.  A
        row may be shorter than ``k`` (empty when the scalar path fails);
        callers that need more fall back to :meth:`candidates`.  Rows are
        produced one at a time, so a large batch never holds them all.
        The default implementation loops; subclasses override with a
        vectorized path.
        """
        k = min(k, self.n_disks)
        for g in grp_ids:
            try:
                row = self.candidates(int(g), k)
            except PlacementError:
                row = []
            yield row

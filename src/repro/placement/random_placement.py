"""Statistically-equivalent random placement (vectorized).

The reliability results in the paper depend on the *statistical* properties
of RUSH — balance, distinct disks per group, uniformly random recovery
candidates — not on its decentralized-lookup machinery.  This module
provides a placement with the same interface whose bulk path is a single
vectorized rejection sampler, used for very large Monte-Carlo sweeps (e.g.
2 PB with 1 GB groups = 2 million groups).  An ablation benchmark
(`bench_ablation_placement`) confirms RUSH and this placement produce
indistinguishable reliability curves.

Determinism: the mapping is a pure function of (seed, grp_id), exactly like
RUSH, because per-group draws are keyed hashes rather than sequential RNG
consumption.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import PlacementAlgorithm, PlacementError
from .hashing import hash_range

#: Probes hashed per block by :meth:`RandomPlacement.candidate_prefixes`.
_PROBE_BLOCK = 1 << 12


def _probe_budget(count: int) -> int:
    """Probes :meth:`RandomPlacement.candidates` may use for ``count``."""
    return 64 + 32 * count


class RandomPlacement(PlacementAlgorithm):
    """Uniform placement via keyed hashing, bulk-vectorized."""

    def __init__(self, n_disks: int, seed: int = 0) -> None:
        if n_disks <= 0:
            raise ValueError("need at least one disk")
        self._n_disks = int(n_disks)
        self.seed = int(seed)

    @property
    def n_disks(self) -> int:
        return self._n_disks

    def add_disks(self, count: int) -> None:
        """Grow the disk population (new batch of ``count`` disks).

        Unlike RUSH this remaps arbitrarily; it is only used in sweeps where
        migration volume is not the measured quantity.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        self._n_disks += count

    # -- scalar path ---------------------------------------------------- #
    def candidates(self, grp_id: int, count: int) -> list[int]:
        if count > self._n_disks:
            raise PlacementError(
                f"cannot produce {count} distinct disks from {self._n_disks}")
        out: list[int] = []
        seen: set[int] = set()
        t = 0
        max_probes = _probe_budget(count)
        while len(out) < count:
            if t >= max_probes:
                raise PlacementError("probe sequence exhausted")
            d = int(hash_range(self.seed, self._n_disks, grp_id, t))
            t += 1
            if d not in seen:
                seen.add(d)
                out.append(d)
        return out

    # -- bulk path -------------------------------------------------------- #
    def _probe_matrix(self, g: np.ndarray, k: int) -> np.ndarray:
        """Probes ``0 .. k-1`` of every group in ``g``: shape (len(g), k)."""
        return hash_range(self.seed, self._n_disks, g[:, None],
                          np.arange(k, dtype=np.int64)[None, :])

    def candidate_prefixes(self, grp_ids: np.ndarray,
                           k: int) -> Iterator[list[int]]:
        """Distinct disks among each group's first ``k`` probes.

        Hashes the (groups, k) probe matrix vectorized, in blocks of about
        ``_PROBE_BLOCK`` probes so the temporaries stay small, and dedupes
        each row in the probe order :meth:`candidates` uses.  A row stops
        early where :meth:`candidates` would have run out of probes, so
        every count up to the row's length succeeds on the scalar path.
        """
        g = np.asarray(grp_ids, dtype=np.int64)
        step = max(1, _PROBE_BLOCK // k)
        for lo in range(0, len(g), step):
            for probes in self._probe_matrix(g[lo:lo + step], k).tolist():
                seen: set[int] = set()
                row: list[int] = []
                for t, d in enumerate(probes):
                    if d in seen:
                        continue
                    if t >= _probe_budget(len(row) + 1):
                        break
                    seen.add(d)
                    row.append(d)
                yield row

    def place_many(self, grp_ids: np.ndarray, n: int) -> np.ndarray:
        """Distinct-disk placement for many groups at once.

        Draws the (G, n) probe matrix in one shot, then re-probes only the
        colliding entries (with fresh probe indexes) until all rows are
        duplicate-free.  For n << n_disks this converges in 2–3 rounds.
        """
        g = np.asarray(grp_ids, dtype=np.int64)
        if n > self._n_disks:
            raise PlacementError(
                f"cannot place {n} blocks on {self._n_disks} disks")
        probes = self._probe_matrix(g, n)
        t_next = np.full(g.shape, n, dtype=np.int64)
        for _ in range(64):
            srt = np.sort(probes, axis=1)
            bad_rows = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
            if not bad_rows.any():
                return probes
            idx = np.nonzero(bad_rows)[0]
            # For each bad row, find one duplicated column and redraw it.
            sub = probes[idx]
            for col in range(1, n):
                dup = (sub[:, col:col + 1] == sub[:, :col]).any(axis=1)
                if dup.any():
                    rows = idx[dup]
                    probes[rows, col] = hash_range(
                        self.seed, self._n_disks, g[rows], t_next[rows])
                    t_next[rows] += 1
        # Unreachable for sane parameters; fall back to the scalar path.
        for i in range(probes.shape[0]):  # pragma: no cover
            row = probes[i]
            if len(set(row.tolist())) != n:
                probes[i] = self.candidates(int(g[i]), n)
        return probes

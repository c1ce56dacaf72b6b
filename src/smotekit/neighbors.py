"""Brute-force k-nearest-neighbor search within the minority class.

Exact O(T^2) search with a fixed tie rule: candidates sort by ascending
distance, then ascending row index. No spatial index; the interface leaves
room for one later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, Row


@dataclass(frozen=True)
class NeighborList:
    """Per-row neighbor indices, nearest first; a row never lists itself."""

    lists: tuple

    def __len__(self) -> int:
        return len(self.lists)


def knn_minority(
    minority: Dataset, k: int, metric: Callable[[Row, Row], float]
) -> NeighborList:
    """k nearest minority neighbors of every minority row.

    Args:
        minority: the minority rows only, as a minority Dataset; synthetic
            rows never join the candidate pool.
        k: neighbors requested; each list is clamped to ``min(k, T - 1)``.
        metric: pairwise distance. Objects exposing a vectorized
            ``pairwise(dataset)`` method (the metric classes in
            :mod:`smotekit.distance`) are used as such; any plain callable
            ``metric(a, b) -> float`` on row tuples also works.

    Ties resolve by ascending row index, so the output is deterministic for
    a fixed input order.
    """
    t = len(minority)
    if t < 2:
        raise ValueError(f"need at least 2 rows for neighbor search, got {t}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not minority.minority.all():
        raise ValueError("knn_minority expects a minority-only dataset slice")
    if hasattr(metric, "pairwise"):
        dist = np.asarray(metric.pairwise(minority), dtype=float)
    else:
        rows = minority.rows
        dist = np.empty((t, t))
        for i in range(t):
            dist[i, i] = 0.0
            for j in range(i + 1, t):
                dist[i, j] = dist[j, i] = metric(rows[i], rows[j])
    # A stable sort keeps equal distances in index order; each row then
    # drops its own index, wherever the sort placed it.
    order = np.argsort(dist, axis=1, kind="stable")
    others = order[order != np.arange(t)[:, None]].reshape(t, t - 1)
    return NeighborList(tuple(map(tuple, others[:, : min(k, t - 1)].tolist())))

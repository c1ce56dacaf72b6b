"""Brute-force k-nearest-neighbor search within the minority class.

Exact O(T^2) search with a fixed tie rule: candidates sort by ascending
distance, then ascending row index. Distances are computed one row block at
a time and each block keeps only its top k, so memory is O(block x T), not
T x T. No spatial index; the interface leaves room for one later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distance
from .data import Dataset


@dataclass(frozen=True, eq=False)
class NeighborList:
    """Per-row neighbor indices, nearest first; a row never lists itself.

    ``lists`` is one read-only ``(T, w)`` integer array: row ``i`` holds the
    ``w`` neighbors of minority row ``i``; ``knn_minority`` gives every row
    ``min(k, T - 1)``. Rows of different lengths raise ValueError.
    """

    lists: np.ndarray

    def __post_init__(self):
        lists = np.array(self.lists, dtype=np.intp)  # ragged rows raise ValueError
        if lists.ndim != 2:
            raise ValueError(f"neighbor lists must form a 2-D array, got {lists.ndim}-D")
        lists.flags.writeable = False
        object.__setattr__(self, "lists", lists)

    def __len__(self) -> int:
        return len(self.lists)


def knn_minority(
    minority: Dataset,
    k: int,
    metric: distance.EuclideanMetric | distance.NcMetric | distance.VdmMetric,
) -> NeighborList:
    """k nearest minority neighbors of every minority row.

    Args:
        minority: the minority rows only, as a minority Dataset; synthetic
            rows never join the candidate pool.
        k: neighbors requested; each list is clamped to ``min(k, T - 1)``.
        metric: a metric object of :mod:`smotekit.distance`; its vectorized
            ``pairwise(dataset, rows)`` method is called once per block of
            rows.

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
    w = min(k, t - 1)
    lists = np.empty((t, w), dtype=np.intp)
    step = max(1, distance._CHUNK_BUDGET // t)
    for start in range(0, t, step):
        block = slice(start, start + step)
        dist = np.asarray(metric.pairwise(minority, block), dtype=float)
        lists[block] = _top_k(dist, start, w)
    return NeighborList(lists)


def _top_k(dist: np.ndarray, first: int, w: int) -> np.ndarray:
    """The ``w`` nearest columns of each row of ``dist``, ordered by
    ``(distance, index)``; row ``i`` is point ``first + i`` and never lists
    itself. Overwrites the self entries of ``dist``.
    """
    own = np.arange(len(dist))
    dist[own, own + first] = np.inf
    # a copy, so the whole (rows, T) partition is not kept alive by a view
    cand = np.argpartition(dist, w - 1, axis=1)[:, :w].copy()
    near = np.take_along_axis(dist, cand, axis=1)
    top = np.take_along_axis(cand, np.lexsort((cand, near)), axis=1)
    # A row with more entries at or under its w-th distance than w had to
    # drop some tied ones arbitrarily; a stable sort keeps the lowest indices.
    tied = np.count_nonzero(dist <= near.max(axis=1, keepdims=True), axis=1) > w
    if tied.any():
        top[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :w]
    return top

"""Brute-force k-nearest-neighbor search within the minority class.

Exact O(T^2) search with a fixed tie rule: candidates sort by ascending
distance, then ascending row index. Distances are computed one row block at
a time; each keeps only its top k and is released before the next, so for
every metric memory is one block, O(block x T), not T x T. ``knn_minority``
searches one minority; ``knn_per_fold`` makes one pass over a whole minority
and selects every cross-validation fold's lists from the same distance
blocks, each equal to a search of that fold's training minority alone. No
spatial index; the interface leaves room for one later.
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
    (lists,) = _search(minority, k, metric, [np.arange(t)])
    return lists


def knn_per_fold(
    minority: Dataset,
    k: int,
    metric: distance.EuclideanMetric,
    fold_of: np.ndarray,
) -> list:
    """Neighbor lists of every fold's training minority from one search.

    ``fold_of[i]`` is the cross-validation fold of minority row ``i``. Entry
    ``f`` of the result, for every fold ``f`` up to ``fold_of.max()``, equals
    ``knn_minority(minority.subset(np.flatnonzero(fold_of != f)), k, metric)``,
    or is None when that training minority has fewer than 2 rows.

    One streamed pass over the whole minority serves every fold, so the
    distance between two rows must not depend on the other rows of the set:
    true of ``EuclideanMetric``, not of ``NcMetric`` or ``VdmMetric``, whose
    median and category counts come from the training rows.
    """
    fold_of = np.asarray(fold_of)
    if fold_of.shape != (len(minority),):
        raise ValueError(
            f"fold_of has shape {fold_of.shape}, expected ({len(minority)},)"
        )
    n_folds = int(fold_of.max()) + 1 if len(fold_of) else 0
    train = [np.flatnonzero(fold_of != f) for f in range(n_folds)]
    found = iter(_search(minority, k, metric, [rows for rows in train if len(rows) >= 2]))
    return [next(found) if len(rows) >= 2 else None for rows in train]


def _search(minority: Dataset, k: int, metric, members: list) -> list:
    """The one block loop behind every neighbor search: the lists of each
    row set in ``members`` (ascending minority row indices, at least 2
    each), searched within that set, in the set's local indices.

    Each block of ``distance._CHUNK_BUDGET // T`` rows is one
    ``metric.pairwise`` call. Every set then selects its rows of the block
    in slices of at most ``distance._DIFF_BUDGET // T`` rows, restricted to
    its own columns. Block and slice are dropped before the next call, so
    one block is the only array of more than ``_DIFF_BUDGET`` floats alive.
    A set's rows and columns keep their global order, so the
    ``(distance, index)`` tie rule is the one a search of the set alone uses.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not minority.minority.all():
        raise ValueError("neighbor search expects a minority-only dataset slice")
    if not members:
        return []
    t = len(minority)
    lists = [np.empty((len(rows), min(k, len(rows) - 1)), dtype=np.intp) for rows in members]
    step = max(1, distance._CHUNK_BUDGET // t)
    part = max(1, distance._DIFF_BUDGET // t)
    for start in range(0, t, step):
        dist = np.asarray(metric.pairwise(minority, slice(start, start + step)), dtype=float)
        own = np.arange(len(dist))
        dist[own, own + start] = np.inf  # a row never lists itself
        for rows, out in zip(members, lists):
            first, stop = np.searchsorted(rows, (start, start + len(dist)))
            for a in range(first, stop, part):
                b = min(a + part, stop)
                if len(rows) == t:  # every row: a view, no copy
                    sub = dist[a - start:b - start]
                else:
                    sub = dist[rows[a:b] - start][:, rows]
                out[a:b] = _top_k(sub, out.shape[1])
        dist = sub = None  # release this block before the metric builds the next
    return [NeighborList(out) for out in lists]


def _top_k(dist: np.ndarray, w: int) -> np.ndarray:
    """The ``w`` nearest columns of each row of ``dist``, ordered by
    ``(distance, index)``."""
    # a copy, so the T-wide index array is freed before the tie pass below
    cand = np.argpartition(dist, w - 1, axis=1)[:, :w].copy()
    near = np.take_along_axis(dist, cand, axis=1)
    top = np.take_along_axis(cand, np.lexsort((cand, near)), axis=1)
    # A row with more entries at or under its w-th distance than w had to
    # drop some tied ones arbitrarily; a stable sort keeps the lowest indices.
    tied = np.count_nonzero(dist <= near.max(axis=1, keepdims=True), axis=1) > w
    if tied.any():
        top[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :w]
    return top

"""Brute-force k-nearest-neighbor search within the minority class.

Exact O(T^2) search with a fixed tie rule: candidates sort by ascending
distance, then ascending row index. Distances are computed one block of
whole rows, at most ``distance._DIFF_BUDGET`` floats, at a time into one
block array that a search allocates once; the rows are cut into the
fewest such blocks, each as short as that count allows, so the array holds
no row more than they need. Each block keeps only its top k before the
next overwrites it, so for every metric memory is one block and the
metric's term buffer, not T x T: at T = 288, two blocks of 144 rows and a
72-row buffer, 0.75 T^2 floats. ``knn_minority`` is the one search: every
neighbor list of the package comes from it, and the lists of every
cross-validation fold are either a search of that fold's training minority
or, where distances do not depend on the rows searched, a filter of one
wider search (see ``smotekit.resample._fold_sources``). Lists are one
read-only ``(T, w)`` ``np.intp`` array, nearest first: row ``i`` holds the
neighbors of row ``i``, never ``i``. No spatial index yet.

The top k of a block are taken in k rounds of ``argmin``; each reads the
block once and overwrites its picks with inf, so selection costs O(k x T)
per row. On distinct distances that is cheaper than a partition and a sort
up to k of about 19, the widest search at 5 folds or more, and dearer from
k = 30 at T >= 1,000. On tied distances, which a partition has to settle
with a stable sort of the whole row, it is cheaper at every k up to 40. A
row with fewer than k finite distances, whose values overflow, is ordered
by a stable sort instead.
"""

from __future__ import annotations

import numpy as np

from . import distance
from .data import Dataset


def knn_minority(
    minority: Dataset,
    k: int,
    metric: distance.EuclideanMetric | distance.NcMetric | distance.VdmMetric,
) -> np.ndarray:
    """k nearest minority neighbors of every minority row, as a read-only
    ``(T, min(k, T - 1))`` ``np.intp`` array.

    Args:
        minority: the minority rows only, as a minority Dataset; synthetic
            rows never join the candidate pool.
        k: neighbors requested; each list is clamped to ``min(k, T - 1)``.
        metric: a metric object of :mod:`smotekit.distance`; its vectorized
            ``pairwise(dataset, rows, out=block)`` method is called once per
            block and fills ``block``, one array allocated once per search;
            the block's lists are selected from it in place before the next
            call overwrites it. The T rows are cut into the fewest blocks
            of at most ``cap = distance._DIFF_BUDGET // T`` rows (at least
            one): every block but the last holds ``ceil(T / ceil(T / cap))``
            rows, and the first sizes the metric's term buffer.

    Ties resolve by ascending row index, so the output is deterministic for
    a fixed input order.
    """
    t = len(minority)
    if t < 2:
        raise ValueError(f"need at least 2 rows for neighbor search, got {t}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not minority.minority.all():
        raise ValueError("neighbor search expects a minority-only dataset slice")
    w = min(k, t - 1)
    step = distance._even_rows(t, max(1, distance._DIFF_BUDGET // t))
    out = np.empty((t, w), dtype=np.intp)
    block = np.empty((step, t))
    for start in range(0, t, step):
        n = min(step, t - start)
        dist = metric.pairwise(minority, slice(start, start + n), out=block[:n])
        own = np.arange(n)
        dist[own, own + start] = np.inf  # a row never lists itself
        out[start:start + n] = _top_k(dist, w, start)
    out.flags.writeable = False
    return out


def _top_k(dist: np.ndarray, w: int, first: int) -> np.ndarray:
    """The ``w`` nearest columns of each row of ``dist``, ordered by
    ``(distance, index)``; row ``i`` is row ``first + i`` of the search, so
    column ``first + i`` is its own, which is never listed.

    Takes the nearest in ``w`` rounds of ``argmin``, which returns the lowest
    column among equal distances; each round sets its picks to inf, so it
    overwrites ``dist`` and reads all of it once per round. A row whose picks
    are not all finite has fewer than ``w`` finite distances, so a pick may
    repeat an earlier one or be its own column. Its picked distances are put
    back, its own column set to NaN, which sorts last, and it is ordered by
    a stable sort of the whole row.
    """
    n = len(dist)
    rows = np.arange(n)
    top = np.empty((n, w), dtype=np.intp)
    near = np.empty((n, w))
    for r in range(w):
        pick = dist.argmin(axis=1)
        top[:, r] = pick
        near[:, r] = dist[rows, pick]
        dist[rows, pick] = np.inf
    short = np.flatnonzero(~np.isfinite(near).all(axis=1))
    if short.size:
        for r in range(w - 1, -1, -1):  # last round first: a repeat gets its first value back
            dist[short, top[short, r]] = near[short, r]
        dist[short, first + short] = np.nan
        top[short] = np.argsort(dist[short], axis=1, kind="stable")[:, :w]
    return top

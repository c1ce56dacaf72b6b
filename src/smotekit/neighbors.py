"""Brute-force k-nearest-neighbor search within the minority class.

Exact O(T^2) search with a fixed tie rule: candidates sort by ascending
distance, then ascending row index. Distances are computed one row block at
a time; each keeps only its top k and is released before the next, so for
every metric memory is one block, O(block x T), not T x T. ``knn_minority``
searches one minority. ``_knn_per_fold`` serves every cross-validation fold
from one wider search over the whole minority: each fold's training rows
keep their candidates that are training rows too, and a row left with
fewer than k is searched again against that fold's training rows alone, so
every fold's lists equal a search of its training minority. Lists are one
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

# Training candidates beyond k that the whole-minority search of
# ``_knn_per_fold`` leaves a row of a fold on average, so that a row rarely
# falls short of k and has to be searched again.
_MARGIN = 10


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
        raise ValueError("neighbor search expects a minority-only dataset slice")
    return _search(minority, min(k, t - 1), metric, np.arange(t))


def _knn_per_fold(
    minority: Dataset,
    k: int,
    metric: distance.EuclideanMetric,
    fold_of: np.ndarray,
) -> list:
    """Neighbor lists of every fold's training minority from one search.

    ``fold_of[i]`` is the cross-validation fold of minority row ``i``, and
    every fold from 0 to ``F - 1``, ``F >= 2``, holds at least one row, as
    :func:`~smotekit.data.stratified_folds` assigns them. Entry ``f`` of the
    result equals
    ``knn_minority(minority.subset(np.flatnonzero(fold_of != f)), k, metric)``,
    or is None when that training minority has fewer than 2 rows.

    One search over the whole minority serves every fold. Its width,
    ``(k + _MARGIN) * F / (F - 1)`` rounded up (at most ``T - 1``), leaves a
    fold's row about ``k + _MARGIN`` training candidates. Each training row
    of a fold keeps its candidates that are training rows too, in list
    order; training rows keep their global order, so these are the first
    entries of the list a search of the fold alone gives, ties included. A
    row left with fewer than ``min(k, T_f - 1)`` of them is searched again,
    against that fold's training rows only. Sharing one search needs a
    distance between two rows that does not depend on the other rows of the
    set: true of ``EuclideanMetric``, not of ``NcMetric`` or ``VdmMetric``,
    whose median and category counts come from the training rows.
    """
    t = len(minority)
    n_folds = int(fold_of.max()) + 1
    width = -(-(k + _MARGIN) * n_folds // (n_folds - 1))  # ceiling division
    found = _search(minority, min(width, t - 1), metric, np.arange(t))
    return [_fold_lists(minority, k, metric, found, fold_of != f) for f in range(n_folds)]


def _fold_lists(minority: Dataset, k: int, metric, found: np.ndarray, in_train: np.ndarray):
    """The lists of the training rows ``in_train`` of ``minority``, in their
    local indices, filtered from ``found``, the whole minority's lists; None
    for fewer than 2 training rows. A row with fewer than ``min(k, T_f - 1)``
    training candidates is searched again against the training rows alone.
    """
    train = np.flatnonzero(in_train)
    if len(train) < 2:
        return None
    w = min(k, len(train) - 1)
    cand = found[train]
    keep = in_train[cand]
    rank = np.cumsum(keep, axis=1)
    short = rank[:, -1] < w
    local = np.cumsum(in_train) - 1  # local index of every training row
    lists = np.empty((len(train), w), dtype=np.intp)
    lists[~short] = local[cand[keep & (rank <= w) & ~short[:, None]]].reshape(-1, w)
    if short.any():
        rows = np.flatnonzero(short)
        lists[rows] = _search(minority.subset(train), w, metric, rows)
    lists.flags.writeable = False
    return lists


def _search(ds: Dataset, w: int, metric, rows: np.ndarray) -> np.ndarray:
    """The one block loop behind every neighbor search: the lists of the
    rows ``rows`` (ascending, not empty) of ``ds``, searched within ``ds``,
    as one read-only ``(len(rows), w)`` array.

    Each run of consecutive indices in ``rows`` goes in blocks of at most
    ``distance._CHUNK_BUDGET // T`` rows, one ``metric.pairwise`` call each.
    A block is selected in slices of at most ``distance._DIFF_BUDGET // T``
    rows, each a view of the block, and is dropped before the next call, so
    one block is the only array of more than ``_DIFF_BUDGET`` floats alive.
    """
    t = len(ds)
    step = max(1, distance._CHUNK_BUDGET // t)
    part = max(1, distance._DIFF_BUDGET // t)
    out = np.empty((len(rows), w), dtype=np.intp)
    cuts = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
    for first, stop in zip([0, *cuts], [*cuts, len(rows)]):  # runs of consecutive rows
        for a in range(first, stop, step):
            start, n = int(rows[a]), min(step, stop - a)
            dist = np.asarray(metric.pairwise(ds, slice(start, start + n)), dtype=float)
            own = np.arange(n)
            dist[own, own + start] = np.inf  # a row never lists itself
            for b in range(0, n, part):
                out[a + b:a + min(b + part, n)] = _top_k(dist[b:b + part], w, start + b)
            dist = None  # release this block before the metric builds the next
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

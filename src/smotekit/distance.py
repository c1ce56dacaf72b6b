"""Distance functions over feature vectors.

Three semantics, one per schema shape:

* all-continuous: plain Euclidean distance;
* mixed: Euclidean over the continuous part, plus one squared median
  penalty ``Med**2`` per differing nominal feature, where ``Med`` is the
  median of the minority class's continuous standard deviations;
* all-nominal: the value difference metric (VDM), where two categories are
  close when their class-conditional distributions are close.

Each metric is a small class whose vectorized ``pairwise(ds, rows,
out=None)`` method reads a Dataset's column blocks and returns the distances
from the rows in the slice ``rows`` to every row of ``ds``: a fresh
``(len(rows), len(ds))`` array, or ``out`` filled in place when given. All
three run one accumulation loop, ``_sum_terms``: in row chunks of half
``_DIFF_BUDGET`` floats, it writes one feature's term (a squared
difference, a ``Med**2`` penalty or a VDM delta) into the output, the first
term straight and every later one through a reused term buffer that it is
added from, feature by feature. Every entry is thus summed left to right,
continuous features first, as ``sum((x - y) * (x - y) ...)`` plus each
differing nominal feature's ``med * med`` would sum it in Python, so a
distance has the same bits on every platform and for every chunk size.

What a call needs of ``ds`` alone (contiguous column copies, VDM's codes
into the categories it holds, its unseen-category check and delta tables)
and the term buffer are built on the first call for ``ds`` and kept on the
metric until a call for another dataset, so a neighbor search, which calls
``pairwise`` once per ``_DIFF_BUDGET``-float block into one reused block,
builds them once. A metric is not for concurrent use from several threads.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

import numpy as np

from .data import NOMINAL, Dataset, FeatureSchema, category_counts
from .errors import DataError
from .record import _FrozenRecord

# Floats per block of the neighbor search, 512KB. ``pairwise`` adds terms
# in row chunks of half as many, so a chunk's output rows and term buffer
# stay in the CPU cache across its features, and a block and buffer freed
# together stay under the heap top that glibc's malloc hands back to the
# system (twice the block), so the next small search does not fault the
# block's pages in again. No size changes a distance.
_DIFF_BUDGET = 1 << 16


def compute_med(minority: Dataset) -> float:
    """Median of the minority class's per-feature sample standard deviations.

    ``minority`` holds the minority rows only. Standard deviations use the
    n-1 denominator; a single-row minority class yields 0. With an even
    feature count the median is the mean of the two central values. Nominal
    features are ignored; an all-nominal schema is an error (use the value
    difference metric instead). A median whose square is not finite, from
    values so far apart that their spread overflows, raises ``DataError``.
    """
    if minority.schema.all_nominal:
        raise ValueError("compute_med requires at least one continuous feature")
    if not len(minority):
        raise ValueError("compute_med requires at least one minority row")
    matrix = minority.cont
    if matrix.shape[0] == 1:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        # the middle of the sorted values: np.median's first call imports numpy.ma
        stds = np.sort(matrix.std(axis=0, ddof=1))
        mid = len(stds) // 2
        med = float(stds[mid] if len(stds) % 2 else (stds[mid - 1] + stds[mid]) / 2)
    if not math.isfinite(med * med):
        raise DataError(
            f"the minority's continuous values spread too far: Med {med} has no finite square"
        )
    return med


class VdmTable(_FrozenRecord):
    """Per-feature category counts backing the value difference metric.

    ``counts[f][value]`` is ``(minority_count, majority_count)`` for that
    category in the table's training rows; only categories seen there have
    an entry. The counts are all :class:`VdmMetric` needs: its exponents are
    fixed at 1, as in the SMOTE paper's VDM.
    """

    _fields = ("counts",)

    def __init__(self, counts: tuple):
        for f, table in enumerate(counts):
            for value, (n_min, n_maj) in table.items():
                if n_min < 0 or n_maj < 0 or n_min + n_maj < 1:
                    raise ValueError(
                        f"feature {f} category {value!r} has invalid counts "
                        f"({n_min}, {n_maj})"
                    )
        vars(self).update(counts=counts)

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "VdmTable":
        """Build from a training split (never test rows); all-nominal schema only."""
        if not ds.schema.all_nominal:
            raise ValueError("VDM tables require an all-nominal schema")
        if not len(ds):
            raise ValueError("cannot build a VDM table from zero rows")
        counts = []
        block, starts = category_counts(ds)
        for table, first in zip(ds.intern, starts.tolist()):
            # the table's own columns, before the count of no category
            n_min, n_maj = block[:, first:first + len(table)]
            counts.append(
                {
                    value: (a, b)
                    for value, a, b in zip(table, n_min.tolist(), n_maj.tolist())
                    if a + b
                }
            )
        return cls(tuple(counts))


def _sum_terms(metric, ds: Dataset, rows: slice, out) -> np.ndarray:
    """The one accumulation loop of every metric: ``out``, or a fresh
    array, of shape ``(len(ds[rows]), len(ds))``, whose entry ``(i, j)``
    sums every term's ``(i, j)`` value, added left to right in term order.

    ``metric._terms(ds)`` gives the terms, each ``(put, column)``:
    ``column`` holds the entries of every row of ``ds`` and
    ``put(column[part], column, buf)`` writes the values of the rows
    ``part`` against every row into ``buf``. The terms and a term buffer
    are built once per dataset (see :func:`_held`). Rows go in chunks of at
    most ``_DIFF_BUDGET // 2`` floats; the first term is written straight
    into a chunk of the output and each later one through the term buffer,
    so nothing is zero-filled and an entry's sum never depends on the
    chunk.
    """
    terms, buf = _held(metric, ds)
    n_rows = len(range(len(ds))[rows])
    if out is None:
        out = np.empty((n_rows, len(ds)))
    elif out.shape != (n_rows, len(ds)) or out.dtype != np.float64:
        raise ValueError(
            f"out must be a ({n_rows}, {len(ds)}) float64 array, got {out.shape} {out.dtype}"
        )
    (put, column), *rest = terms
    step = len(buf)
    for start in range(0, n_rows, step):
        part = slice(start, start + step)
        acc = out[part]
        put(column[rows][part], column, acc)
        term = buf[:len(acc)]
        for put_next, other in rest:
            put_next(other[rows][part], other, term)
            acc += term
    return out


def _held(metric, ds: Dataset) -> tuple:
    """``(metric._terms(ds), term buffer)`` for ``metric``'s calls on
    ``ds``, kept on the metric for the last dataset it was built for. The
    buffer holds ``_DIFF_BUDGET // 2 // len(ds)`` rows (at least one, at
    most ``len(ds)``) of ``len(ds)`` floats."""
    held = metric._held
    if held is None or held[0] is not ds:
        metric._held = None  # release the last dataset's setup before building this one's
        t = len(ds)
        step = max(1, _DIFF_BUDGET // 2 // max(1, t))
        buf = np.empty((min(step, max(1, t)), t))
        held = metric._held = (ds, metric._terms(ds), buf)
    return held[1], held[2]


def _columns(puts, block: np.ndarray) -> list:
    """One term per column of ``block``, left to right, each with the next
    of ``puts``: a contiguous copy of the column."""
    return list(zip(puts, np.ascontiguousarray(block.T)))


def _put_sq_diff(mine: np.ndarray, theirs: np.ndarray, out: np.ndarray) -> None:
    """``(x - y) * (x - y)`` for every ``x`` of ``mine`` against every ``y``
    of ``theirs``.

    Differences, not the |x|^2 + |y|^2 - 2xy trick, so equal rows come out
    exactly 0 and tie-breaking stays reproducible.
    """
    np.subtract(mine[:, None], theirs, out=out)
    np.multiply(out, out, out=out)


def _put_penalty(med_sq: float, mine: np.ndarray, theirs: np.ndarray, out: np.ndarray) -> None:
    """``med_sq`` where the category codes differ, else 0.

    One row against ``theirs`` per code that ``mine`` holds, copied to each
    row with that code: a chunk holds few codes, so this compares a few rows,
    not every one, and the copies are whole rows.
    """
    held = np.bincount(mine) > 0
    rows = np.multiply(np.flatnonzero(held)[:, None] != theirs, med_sq)
    # indices are always in range: "clip" only avoids "raise"'s buffered out
    np.take(rows, (np.cumsum(held) - 1)[mine], axis=0, out=out, mode="clip")


def _put_delta(delta: np.ndarray, mine: np.ndarray, theirs: np.ndarray, out: np.ndarray) -> None:
    """The category-pair deltas ``delta[x, y]`` of the codes ``mine``
    against the codes ``theirs``."""
    # codes are always in range: "clip" only avoids "raise"'s buffered out
    np.take(delta[mine], theirs, axis=1, out=out, mode="clip")


def _check_kinds(ds: Dataset, kinds: tuple[str, ...]) -> None:
    """Reject a dataset whose features differ in number or kind from the
    metric's, so no column is silently ignored or indexed past."""
    got = ds.schema.kinds
    if len(got) != len(kinds):
        raise ValueError(
            f"vector length mismatch: {len(got)} dataset features against "
            f"{len(kinds)} metric features"
        )
    if got != kinds:
        raise ValueError(f"feature kinds mismatch: dataset {got} against metric {kinds}")


class _RootedMetric:
    """A metric whose distance is the square root of its summed terms."""

    def pairwise(self, ds: Dataset, rows: slice = slice(None), out: np.ndarray = None) -> np.ndarray:
        sq = _sum_terms(self, ds, rows, out)
        return np.sqrt(sq, out=sq)


class EuclideanMetric(_RootedMetric):
    """Euclidean distance bound to an all-continuous schema."""

    def __init__(self, schema: FeatureSchema):
        if not schema.all_continuous:
            raise ValueError("EuclideanMetric requires an all-continuous schema")
        self.schema = schema
        self._held = None

    def _terms(self, ds: Dataset) -> list:
        _check_kinds(ds, self.schema.kinds)
        return _columns(repeat(_put_sq_diff), ds.cont)


class NcMetric(_RootedMetric):
    """Median-penalized mixed-schema distance bound to a schema and the
    median penalty ``med``: continuous squared differences plus ``med**2``
    per differing nominal feature, square-rooted.

    Degenerates to Euclidean distance when the schema is all-continuous. With
    ``med == 0`` nominal differences are invisible: that is documented
    behavior, not an error.
    """

    def __init__(self, schema: FeatureSchema, med: float):
        if not schema.continuous_indices:
            raise ValueError("NcMetric requires at least one continuous feature")
        if not math.isfinite(med) or med < 0:
            raise ValueError(f"med must be finite and non-negative, got {med}")
        if not math.isfinite(med * med):  # equal codes would add 0 * inf = NaN
            raise ValueError(f"med must have a finite square, got {med}")
        self.schema = schema
        self.med = med
        self._held = None

    def _terms(self, ds: Dataset) -> list:
        _check_kinds(ds, self.schema.kinds)
        penalty = partial(_put_penalty, self.med * self.med)
        # every continuous term first, then the penalties
        return _columns(repeat(_put_sq_diff), ds.cont) + _columns(repeat(penalty), ds.codes)


class VdmMetric:
    """Value difference metric over a VDM table's category counts.

    A category pair's delta is the sum over classes of ``|C1i/C1 - C2i/C2|``;
    a row pair's distance is the sum over features of the deltas. This is
    the VDM of the SMOTE paper (Chawla et al. 2002, after Cost and Salzberg)
    with its constant exponent, "usually set to 1", and its feature
    exponent both fixed at 1 (Manhattan accumulation) and every weight 1.
    """

    def __init__(self, table: VdmTable):
        self.table = table
        self._held = None

    def pairwise(self, ds: Dataset, rows: slice = slice(None), out: np.ndarray = None) -> np.ndarray:
        """Distances from ``ds[rows]`` to every row of an all-nominal dataset;
        each feature's category-pair deltas are taken over the categories
        ``ds``'s rows hold, not over its intern table, which a subset shares
        with the whole file. Every row of ``ds`` is checked for unseen
        categories."""
        return _sum_terms(self, ds, rows, out)

    def _terms(self, ds: Dataset) -> list:
        _check_kinds(ds, (NOMINAL,) * len(self.table.counts))
        terms = []
        for f, counts in enumerate(self.table.counts):
            tokens, column = list(ds.intern[f]), ds.codes[:, f]
            present = np.bincount(column, minlength=len(tokens)) > 0
            held = np.flatnonzero(present)
            local = np.cumsum(present)[column] - 1  # codes into the held categories
            freq = np.array(
                [counts.get(tokens[c], (0, 0)) for c in held.tolist()], dtype=float
            ).reshape(-1, 2)
            total = freq.sum(axis=1, keepdims=True)
            unseen = total[local, 0] == 0
            if unseen.any():
                value = tokens[column[unseen.argmax()]]
                raise ValueError(f"unseen category {value!r} for feature {f}")
            cond = freq / total
            delta = np.abs(cond[:, None, :] - cond[None, :, :]).sum(axis=2)
            terms.append((partial(_put_delta, delta), local))
        return terms

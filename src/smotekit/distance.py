"""Distance functions over feature vectors.

Three semantics, one per schema shape:

* all-continuous: plain Euclidean distance;
* mixed: Euclidean over the continuous part, plus one squared median
  penalty ``Med**2`` per differing nominal feature, where ``Med`` is the
  median of the minority class's continuous standard deviations;
* all-nominal: the value difference metric (VDM), where two categories are
  close when their class-conditional distributions are close.

Each metric is a small class whose vectorized ``pairwise(ds, rows)`` method
reads a Dataset's column blocks and returns the distances from the rows in
the slice ``rows`` to every row of ``ds``, a fresh ``(len(rows), len(ds))``
array, the only one of its size a call makes. All three run one
accumulation loop, ``_sum_terms``: in row chunks of ``_DIFF_BUDGET``
floats, it writes one feature's term (a squared difference, a ``Med**2``
penalty or a VDM delta) into a reused chunk buffer and adds it to the
output, feature by feature. Every entry is thus summed left to right,
continuous features first, as ``sum((x - y) * (x - y) ...)`` plus each
differing nominal feature's ``med * med`` would sum it in Python, so a
distance has the same bits on every platform and for every chunk size.
The neighbor search calls ``pairwise`` one row block at a time.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat

import numpy as np

from .data import NOMINAL, Dataset, FeatureSchema, category_counts
from .errors import DataError
from .record import _FrozenRecord

_CHUNK_BUDGET = 1 << 22  # floats per distance block of the neighbor search, ~32MB
# Floats per row chunk of ``pairwise``, 512KB: the chunk buffer and the
# output rows it is added to stay in the CPU cache across a chunk's features.
# Each entry is summed feature by feature whatever the chunk's row count, so
# the chunk size never changes a distance. The neighbor search also selects
# its lists in slices of this many floats, so the distance block is its only
# larger array.
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


def _sum_terms(terms: list, n_rows: int, n_cols: int) -> np.ndarray:
    """The one accumulation loop of every metric: a fresh ``(n_rows,
    n_cols)`` array whose entry ``(i, j)`` sums every term's ``(i, j)``
    value, added left to right in ``terms`` order.

    A term is ``(put, mine, theirs)``: ``put(mine[part], theirs, buf)``
    writes the values of the rows ``part`` against every column into
    ``buf``. Rows go in chunks of at most ``_DIFF_BUDGET`` floats through
    one reused chunk buffer, so the result is the only array of its size,
    and an entry's sum never depends on the chunk.
    """
    step = max(1, _DIFF_BUDGET // max(1, n_cols))
    out = np.zeros((n_rows, n_cols))
    buf = np.empty((min(step, n_rows), n_cols))
    for start in range(0, n_rows, step):
        acc = out[start:start + step]
        term = buf[:len(acc)]
        for put, mine, theirs in terms:
            put(mine[start:start + step], theirs, term)
            acc += term
    return out


def _terms(puts, block: np.ndarray, rows: slice) -> list:
    """One term per column of ``block``, left to right, each with the next
    of ``puts``: the column's entries in ``rows`` against all of them."""
    return list(zip(puts, block[rows].T, np.ascontiguousarray(block.T)))


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


class EuclideanMetric:
    """Euclidean distance bound to an all-continuous schema."""

    def __init__(self, schema: FeatureSchema):
        if not schema.all_continuous:
            raise ValueError("EuclideanMetric requires an all-continuous schema")
        self.schema = schema

    def pairwise(self, ds: Dataset, rows: slice = slice(None)) -> np.ndarray:
        _check_kinds(ds, self.schema.kinds)
        sq = _sum_terms(_terms(repeat(_put_sq_diff), ds.cont, rows), len(ds.cont[rows]), len(ds))
        return np.sqrt(sq, out=sq)


class NcMetric:
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

    def pairwise(self, ds: Dataset, rows: slice = slice(None)) -> np.ndarray:
        _check_kinds(ds, self.schema.kinds)
        penalty = partial(_put_penalty, self.med * self.med)
        terms = _terms(repeat(_put_sq_diff), ds.cont, rows)
        terms += _terms(repeat(penalty), ds.codes, rows)  # after every continuous term
        sq = _sum_terms(terms, len(ds.cont[rows]), len(ds))
        return np.sqrt(sq, out=sq)


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

    def pairwise(self, ds: Dataset, rows: slice = slice(None)) -> np.ndarray:
        """Distances from ``ds[rows]`` to every row of an all-nominal dataset;
        each feature's category-pair deltas are taken over the categories
        ``ds``'s rows hold, not over its intern table, which a subset shares
        with the whole file. Every row of ``ds`` is checked for unseen
        categories."""
        _check_kinds(ds, (NOMINAL,) * len(self.table.counts))
        deltas, local = [], np.empty_like(ds.codes)  # local: codes into the held categories
        for f, counts in enumerate(self.table.counts):
            tokens, column = list(ds.intern[f]), ds.codes[:, f]
            present = np.bincount(column, minlength=len(tokens)) > 0
            held = np.flatnonzero(present)
            local[:, f] = np.cumsum(present)[column] - 1
            freq = np.array(
                [counts.get(tokens[c], (0, 0)) for c in held.tolist()], dtype=float
            ).reshape(-1, 2)
            total = freq.sum(axis=1, keepdims=True)
            unseen = total[local[:, f], 0] == 0
            if unseen.any():
                value = tokens[ds.codes[unseen.argmax(), f]]
                raise ValueError(f"unseen category {value!r} for feature {f}")
            cond = freq / total
            deltas.append(np.abs(cond[:, None, :] - cond[None, :, :]).sum(axis=2))
        terms = _terms([partial(_put_delta, delta) for delta in deltas], local, rows)
        return _sum_terms(terms, len(ds.codes[rows]), len(ds))

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
array, the only one of its size a call makes: differences, ``Med**2``
penalties and VDM deltas are added in row chunks of ``_DIFF_BUDGET`` floats,
each entry summing its features in one order. The neighbor search calls
``pairwise`` one row block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NOMINAL, Dataset, FeatureSchema

_CHUNK_BUDGET = 1 << 22  # floats per distance block of the neighbor search, ~32MB
# Floats per row chunk of ``pairwise``, 512KB. A chunk that stays in the CPU
# cache halved the time of a 900 x 900 x 8 distance matrix against one ~32MB
# chunk (two-core Xeon VM). einsum sums each entry the same way whatever the
# chunk's row count, so the chunk size never changes a distance. The neighbor
# search also selects each row set's lists in slices of this many floats, so
# the distance block is its only larger array.
_DIFF_BUDGET = 1 << 16


def compute_med(minority: Dataset) -> float:
    """Median of the minority class's per-feature sample standard deviations.

    ``minority`` holds the minority rows only. Standard deviations use the
    n-1 denominator; a single-row minority class yields 0. With an even
    feature count the median is the mean of the two central values. Nominal
    features are ignored; an all-nominal schema is an error (use the value
    difference metric instead).
    """
    if minority.schema.all_nominal:
        raise ValueError("compute_med requires at least one continuous feature")
    if not len(minority):
        raise ValueError("compute_med requires at least one minority row")
    matrix = minority.cont
    if matrix.shape[0] == 1:
        stds = np.zeros(matrix.shape[1])
    else:
        stds = matrix.std(axis=0, ddof=1)
    return float(np.median(stds))


@dataclass(frozen=True)
class VdmTable:
    """Per-feature category counts backing the value difference metric.

    ``counts[f][value]`` is ``(minority_count, majority_count)`` for that
    category in the table's training rows; only categories seen there have
    an entry. The counts are all :class:`VdmMetric` needs: its exponents are
    fixed at 1, as in the SMOTE paper's VDM.
    """

    counts: tuple

    def __post_init__(self):
        for f, table in enumerate(self.counts):
            for value, (n_min, n_maj) in table.items():
                if n_min < 0 or n_maj < 0 or n_min + n_maj < 1:
                    raise ValueError(
                        f"feature {f} category {value!r} has invalid counts "
                        f"({n_min}, {n_maj})"
                    )

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "VdmTable":
        """Build from a training split (never test rows); all-nominal schema only."""
        if not ds.schema.all_nominal:
            raise ValueError("VDM tables require an all-nominal schema")
        if not len(ds):
            raise ValueError("cannot build a VDM table from zero rows")
        counts = []
        for f, table in enumerate(ds.intern):
            n_min = np.bincount(ds.codes[ds.minority, f], minlength=len(table))
            n_maj = np.bincount(ds.codes[~ds.minority, f], minlength=len(table))
            counts.append(
                {
                    value: (a, b)
                    for value, a, b in zip(table, n_min.tolist(), n_maj.tolist())
                    if a + b
                }
            )
        return cls(tuple(counts))


def _chunked_sq_euclidean(matrix: np.ndarray, rows: slice) -> np.ndarray:
    """Exact squared Euclidean distances from ``matrix[rows]`` to every row,
    via broadcast differences.

    Avoids the |x|^2 + |y|^2 - 2xy trick so equal rows come out exactly 0 and
    tie-breaking stays reproducible.
    """
    n, d = matrix.shape
    block = matrix[rows]
    out = np.empty((len(block), n))
    for part in _row_chunks(len(block), n * d):
        diff = block[part, None, :] - matrix[None, :, :]
        out[part] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _row_chunks(n_rows: int, width: int) -> list:
    """Slices over ``n_rows`` rows of ``width`` floats each, at most
    ``_DIFF_BUDGET`` floats per slice (at least one row)."""
    step = max(1, _DIFF_BUDGET // max(1, width))
    return [slice(s, s + step) for s in range(0, n_rows, step)]


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
        sq = _chunked_sq_euclidean(ds.cont, rows)
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
        self.schema = schema
        self.med = med

    def pairwise(self, ds: Dataset, rows: slice = slice(None)) -> np.ndarray:
        _check_kinds(ds, self.schema.kinds)
        med_sq = self.med * self.med
        sq = _chunked_sq_euclidean(ds.cont, rows)
        for part in _row_chunks(len(sq), len(ds)):
            for mine, codes in zip(ds.codes[rows][part].T, ds.codes.T):
                sq[part] += med_sq * (mine[:, None] != codes[None, :])
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
        each feature's category-pair deltas are taken over ``ds``'s intern
        codes. Every row of ``ds`` is checked for unseen categories."""
        _check_kinds(ds, (NOMINAL,) * len(self.table.counts))
        deltas = []
        for f, counts in enumerate(self.table.counts):
            codes = ds.codes[:, f]
            freq = np.array(
                [counts.get(value, (0, 0)) for value in ds.intern[f]], dtype=float
            ).reshape(-1, 2)
            total = freq.sum(axis=1, keepdims=True)
            unseen = total[codes, 0] == 0
            if unseen.any():
                value = list(ds.intern[f])[codes[unseen.argmax()]]
                raise ValueError(f"unseen category {value!r} for feature {f}")
            with np.errstate(invalid="ignore"):  # categories no row here uses
                cond = freq / total
            deltas.append(np.abs(cond[:, None, :] - cond[None, :, :]).sum(axis=2))
        out = np.zeros((len(ds.codes[rows]), len(ds)))
        for part in _row_chunks(len(out), len(ds)):
            for delta, mine, codes in zip(deltas, ds.codes[rows][part].T, ds.codes.T):
                out[part] += delta[mine[:, None], codes[None, :]]
        return out

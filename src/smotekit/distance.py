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
array; the neighbor search calls it one row block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NOMINAL, Dataset, FeatureSchema

_CHUNK_BUDGET = 1 << 22  # floats per distance block of the neighbor search, ~32MB
# Floats per broadcast-difference chunk, 512KB. A chunk that stays in the CPU
# cache halved the time of a 900 x 900 x 8 distance matrix against one ~32MB
# chunk (two-core Xeon VM). einsum sums each entry the same way whatever the
# chunk's row count, so the chunk size never changes a distance.
_DIFF_BUDGET = 1 << 16


@dataclass(frozen=True)
class NcDistanceParams:
    """Median penalty for nominal mismatches in mixed-schema distances."""

    med: float

    def __post_init__(self):
        if not math.isfinite(self.med) or self.med < 0:
            raise ValueError(f"med must be finite and non-negative, got {self.med}")


def compute_med(minority: Dataset) -> NcDistanceParams:
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
    return NcDistanceParams(med=float(np.median(stds)))


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
    step = max(1, _DIFF_BUDGET // max(1, n * d))
    for s in range(0, len(block), step):
        diff = block[s:s + step, None, :] - matrix[None, :, :]
        out[s:s + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


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
    """Median-penalized mixed-schema distance bound to a schema and params:
    continuous squared differences plus ``Med**2`` per differing nominal
    feature, square-rooted.

    Degenerates to Euclidean distance when the schema is all-continuous. With
    ``med == 0`` nominal differences are invisible: that is documented
    behavior, not an error.
    """

    def __init__(self, schema: FeatureSchema, params: NcDistanceParams):
        if not schema.continuous_indices:
            raise ValueError("NcMetric requires at least one continuous feature")
        self.schema = schema
        self.params = params

    def pairwise(self, ds: Dataset, rows: slice = slice(None)) -> np.ndarray:
        _check_kinds(ds, self.schema.kinds)
        med_sq = self.params.med * self.params.med
        sq = _chunked_sq_euclidean(ds.cont, rows)
        for codes in ds.codes.T:
            sq += med_sq * (codes[rows, None] != codes[None, :])
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
        n = len(ds)
        out = np.zeros((len(ds.codes[rows]), n))
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
            delta = np.abs(cond[:, None, :] - cond[None, :, :]).sum(axis=2)
            out += delta[codes[rows, None], codes[None, :]]
        return out

"""Distance functions over feature vectors.

Three semantics, one per schema shape:

* all-continuous: plain Euclidean distance;
* mixed: Euclidean over the continuous part, plus one squared median
  penalty ``Med**2`` per differing nominal feature, where ``Med`` is the
  median of the minority class's continuous standard deviations;
* all-nominal: the value difference metric (VDM), where two categories are
  close when their class-conditional distributions are close.

Each metric also exists as a small callable class whose vectorized
``pairwise`` method reads a Dataset's column blocks; the neighbor search uses
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset, FeatureSchema, Row

_CHUNK_BUDGET = 1 << 22  # floats per broadcast chunk, ~32MB


def _check_arity(a: Row, b: Row, schema: FeatureSchema) -> None:
    arity = len(schema.features)
    if len(a) != arity or len(b) != arity:
        raise ValueError(
            f"vector length mismatch: {len(a)} and {len(b)} against "
            f"{arity} schema features"
        )


def euclidean(a: Row, b: Row, schema: FeatureSchema) -> float:
    """Euclidean distance; the schema must be all-continuous."""
    if not schema.all_continuous:
        raise ValueError("euclidean distance requires an all-continuous schema")
    _check_arity(a, b, schema)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


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


def nc_distance(a: Row, b: Row, schema: FeatureSchema, params: NcDistanceParams) -> float:
    """Mixed-schema distance: continuous squared differences plus Med**2 per
    differing nominal feature, square-rooted.

    Degenerates to Euclidean distance when the schema is all-continuous. With
    ``med == 0`` nominal differences are invisible: that is documented
    behavior, not an error.
    """
    _check_arity(a, b, schema)
    total = 0.0
    med_sq = params.med * params.med
    for (x, y), kind in zip(zip(a, b), schema.kinds):
        if kind == CONTINUOUS:
            total += (x - y) ** 2
        elif x != y:
            total += med_sq
    return math.sqrt(total)


@dataclass(frozen=True)
class VdmTable:
    """Per-feature category counts backing the value difference metric.

    ``counts[f][value]`` is ``(minority_count, majority_count)`` for that
    category in the table's training rows; only categories seen there have
    an entry. ``k_exp`` is the exponent inside the per-feature delta, ``r``
    the exponent applied to deltas when summing across features; both
    default to 1 (Manhattan-style accumulation).
    """

    counts: tuple
    k_exp: int = 1
    r: int = 1

    def __post_init__(self):
        if self.k_exp < 1 or self.r < 1:
            raise ValueError("k_exp and r must be at least 1")
        for f, table in enumerate(self.counts):
            for value, (n_min, n_maj) in table.items():
                if n_min < 0 or n_maj < 0 or n_min + n_maj < 1:
                    raise ValueError(
                        f"feature {f} category {value!r} has invalid counts "
                        f"({n_min}, {n_maj})"
                    )

    @property
    def n_features(self) -> int:
        return len(self.counts)

    @classmethod
    def from_dataset(cls, ds: Dataset, k_exp: int = 1, r: int = 1) -> "VdmTable":
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
        return cls(tuple(counts), k_exp=k_exp, r=r)


def vdm_delta(table: VdmTable, feature: int, v1: str, v2: str) -> float:
    """Category-pair distance: sum over classes of |C1i/C1 - C2i/C2| ** k_exp."""
    counts = table.counts[feature]
    try:
        c1 = counts[v1]
    except KeyError:
        raise ValueError(f"unseen category {v1!r} for feature {feature}") from None
    try:
        c2 = counts[v2]
    except KeyError:
        raise ValueError(f"unseen category {v2!r} for feature {feature}") from None
    total1 = c1[0] + c1[1]
    total2 = c2[0] + c2[1]
    delta = 0.0
    for i in range(2):
        delta += abs(c1[i] / total1 - c2[i] / total2) ** table.k_exp
    return delta


def vdm_distance(table: VdmTable, x: Row, y: Row) -> float:
    """Vector distance: sum over features of vdm_delta(...) ** r, weights fixed to 1."""
    if len(x) != table.n_features or len(y) != table.n_features:
        raise ValueError(
            f"vector length mismatch: {len(x)} and {len(y)} against "
            f"{table.n_features} table features"
        )
    return sum(
        vdm_delta(table, f, x[f], y[f]) ** table.r for f in range(table.n_features)
    )


def _chunked_sq_euclidean(matrix: np.ndarray) -> np.ndarray:
    """Exact pairwise squared Euclidean distances via broadcast differences.

    Avoids the |x|^2 + |y|^2 - 2xy trick so equal rows come out exactly 0 and
    tie-breaking stays reproducible.
    """
    n, d = matrix.shape
    out = np.empty((n, n))
    step = max(1, _CHUNK_BUDGET // max(1, n * d))
    for s in range(0, n, step):
        diff = matrix[s:s + step, None, :] - matrix[None, :, :]
        out[s:s + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


class EuclideanMetric:
    """Euclidean distance bound to an all-continuous schema."""

    def __init__(self, schema: FeatureSchema):
        if not schema.all_continuous:
            raise ValueError("EuclideanMetric requires an all-continuous schema")
        self.schema = schema

    def __call__(self, a: Row, b: Row) -> float:
        return euclidean(a, b, self.schema)

    def pairwise(self, ds: Dataset) -> np.ndarray:
        sq = _chunked_sq_euclidean(ds.cont)
        return np.sqrt(sq, out=sq)


class NcMetric:
    """Median-penalized mixed-schema distance bound to a schema and params."""

    def __init__(self, schema: FeatureSchema, params: NcDistanceParams):
        if not schema.continuous_indices:
            raise ValueError("NcMetric requires at least one continuous feature")
        self.schema = schema
        self.params = params

    def __call__(self, a: Row, b: Row) -> float:
        return nc_distance(a, b, self.schema, self.params)

    def pairwise(self, ds: Dataset) -> np.ndarray:
        med_sq = self.params.med * self.params.med
        sq = _chunked_sq_euclidean(ds.cont)
        for codes in ds.codes.T:
            sq += med_sq * (codes[:, None] != codes[None, :])
        return np.sqrt(sq, out=sq)


class VdmMetric:
    """Value difference metric over a VDM table's category counts."""

    def __init__(self, table: VdmTable):
        self.table = table

    def __call__(self, x: Row, y: Row) -> float:
        return vdm_distance(self.table, x, y)

    def pairwise(self, ds: Dataset) -> np.ndarray:
        """Distances between the rows of an all-nominal dataset; each
        feature's category-pair deltas are taken over ``ds``'s intern codes."""
        n = len(ds)
        out = np.zeros((n, n))
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
            delta = np.abs(cond[:, None, :] - cond[None, :, :]) ** self.table.k_exp
            out += (delta.sum(axis=2) ** self.table.r)[codes[:, None], codes[None, :]]
        return out

"""Neighbor-list behavior: exactness against a brute-force oracle, the
never-self rule, clamping, deterministic tie order, the per-fold lists of one
shared search, and the memory bound of the streamed search."""

import tracemalloc

import numpy as np
import pytest

from oracles import MAJORITY, MINORITY, dataset_from_rows, metric_oracle, sorted_neighbors
from smotekit import distance
from smotekit.data import FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcDistanceParams,
    NcMetric,
    VdmMetric,
    VdmTable,
)
from smotekit.neighbors import NeighborList, knn_minority, knn_per_fold

CONT1 = FeatureSchema((("x", "continuous"),), "cls")


def minority(schema, rows):
    """The rows as a minority-only Dataset."""
    return dataset_from_rows(schema, tuple(rows), (MINORITY,) * len(rows))


def schema_d(d):
    return FeatureSchema(tuple((f"x{i}", "continuous") for i in range(d)), "cls")


def test_collinear_points():
    rows = [(0.0,), (1.0,), (5.0,)]
    nl = knn_minority(minority(CONT1, rows), 1, EuclideanMetric(CONT1))
    assert nl.lists.tolist() == [[1], [0], [1]]


def test_lists_clamped_to_t_minus_one():
    rows = [(0.0,), (1.0,), (2.0,), (3.0,)]
    nl = knn_minority(minority(CONT1, rows), 5, EuclideanMetric(CONT1))
    assert all(len(lst) == 3 for lst in nl.lists)


def test_duplicate_points_tie_breaks_by_index():
    rows = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    schema = schema_d(2)
    nl = knn_minority(minority(schema, rows), 2, EuclideanMetric(schema))
    assert nl.lists.tolist() == [[1, 2], [0, 2], [0, 1]]


def test_never_self():
    rng = np.random.default_rng(31)
    schema = schema_d(3)
    rows = [tuple(float(v) for v in rng.integers(0, 4, size=3)) for _ in range(40)]
    nl = knn_minority(minority(schema, rows), 5, EuclideanMetric(schema))
    for i, lst in enumerate(nl.lists):
        assert i not in lst
        assert len(lst) == 5
        assert len(set(lst)) == len(lst)


def test_requires_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        knn_minority(minority(CONT1, [(0.0,)]), 1, EuclideanMetric(CONT1))


def test_rejects_majority_rows():
    ds = dataset_from_rows(CONT1, ((0.0,), (1.0,)), (MINORITY, MAJORITY))
    with pytest.raises(ValueError, match="minority-only"):
        knn_minority(ds, 1, EuclideanMetric(CONT1))


def tie_heavy_case(rng, kind):
    """Schema, rows and metric for one oracle case: integer coordinates,
    nominal columns of cardinality 2-3 and a duplicated row, so exact ties
    abound."""
    t = int(rng.integers(2, 60))
    n_cont = 0 if kind == "vdm" else int(rng.integers(1, 4))
    n_nom = 0 if kind == "euclidean" else int(rng.integers(1, 4))
    schema = FeatureSchema(
        tuple((f"x{i}", "continuous") for i in range(n_cont))
        + tuple((f"g{i}", "nominal") for i in range(n_nom)),
        "cls",
    )
    cards = rng.integers(2, 4, size=n_nom)

    def draw():
        return tuple(float(v) for v in rng.integers(0, 5, size=n_cont)) + tuple(
            "abc"[int(rng.integers(c))] for c in cards
        )

    rows = [draw() for _ in range(t)]
    if t > 3:
        rows[t // 2] = rows[0]
    if kind == "euclidean":
        return schema, rows, EuclideanMetric(schema)
    if kind == "nc":
        med = float(rng.choice([0.0, 0.5, 1.0, 1.5]))
        return schema, rows, NcMetric(schema, NcDistanceParams(med))
    # the table sees every minority category, plus majority rows of its own
    extra = [draw() for _ in range(20)]
    labels = (MINORITY,) * t + (MAJORITY,) * len(extra)
    table = VdmTable.from_dataset(dataset_from_rows(schema, tuple(rows + extra), labels))
    return schema, rows, VdmMetric(table)


def sqrt_rounding_case(kind):
    """Row 0 is at squared distances 2**52 + 1 and 2**52 from rows 1 and 2;
    both square-root to 2**26, so the tie rule lists row 1 first."""
    n_nom = 0 if kind == "euclidean" else 1
    schema = FeatureSchema(
        (("x0", "continuous"), ("x1", "continuous"))
        + tuple((f"g{i}", "nominal") for i in range(n_nom)),
        "cls",
    )
    rows = [(0.0, 0.0), (2.0**26, 1.0), (2.0**26, 0.0)]
    rows = [row + ("a",) * n_nom for row in rows]
    if kind == "euclidean":
        return schema, rows, EuclideanMetric(schema)
    return schema, rows, NcMetric(schema, NcDistanceParams(1.0))


def test_matches_oracle_random_datasets(monkeypatch):
    # every metric class, ties from integer coordinates, duplicated rows and
    # low-cardinality nominals; a budget of 3 rows streams several blocks
    rng = np.random.default_rng(32)
    for kind in ("euclidean", "nc", "vdm"):
        cases = [tie_heavy_case(rng, kind) for _ in range(25)]
        if kind != "vdm":
            cases.append(sqrt_rounding_case(kind))
        for schema, rows, metric in cases:
            k = int(rng.integers(1, 8))
            monkeypatch.setattr(distance, "_CHUNK_BUDGET", 3 * len(rows))
            got = knn_minority(minority(schema, rows), k, metric)
            assert tuple(map(tuple, got.lists.tolist())) == sorted_neighbors(
                rows, k, metric_oracle(metric)
            ), (kind, rows, k)


class RecordingMetric:
    """Euclidean distances, recording the rows of every pairwise call."""

    def __init__(self, schema):
        self.inner = EuclideanMetric(schema)
        self.blocks = []

    def pairwise(self, ds, rows=slice(None)):
        self.blocks.append(range(len(ds))[rows])
        return self.inner.pairwise(ds, rows)


def check_search_memory(monkeypatch, search):
    """Run ``search(ds, metric)`` on 3,000 8-d rows in 64-row blocks; its
    peak stays under a quarter of one dense float64 T x T matrix, and the
    blocks cover every row once."""
    t, d, budget = 3000, 8, 3000 * 64
    rng = np.random.default_rng(35)
    schema = schema_d(d)
    ds = minority(schema, [tuple(row) for row in rng.normal(size=(t, d)).tolist()])
    metric = RecordingMetric(schema)
    monkeypatch.setattr(distance, "_CHUNK_BUDGET", budget)
    tracemalloc.start()
    try:
        search(ds, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t * t * 8 / 4
    assert sorted(i for block in metric.blocks for i in block) == list(range(t))
    assert all(len(block) * t <= budget for block in metric.blocks)


def test_streamed_search_memory_is_bounded(monkeypatch):
    check_search_memory(monkeypatch, lambda ds, metric: knn_minority(ds, 5, metric))


def test_per_fold_search_memory_is_bounded(monkeypatch):
    # five folds select from the same blocks; no per-fold T-wide copy
    check_search_memory(
        monkeypatch,
        lambda ds, metric: knn_per_fold(ds, 5, metric, np.arange(len(ds)) % 5),
    )


def fold_case(rng, n_folds, offset):
    """A minority of 1-3 continuous features rounded to 0.1, with duplicated
    rows, shifted by ``offset``, and a fold per row (every fold used)."""
    t = int(rng.integers(n_folds, 50))
    d = int(rng.integers(1, 4))
    x = np.round(rng.normal(size=(t, d)), 1)
    x[t // 2] = x[0]
    x[-1] = x[1]
    schema = schema_d(d)
    rows = [tuple(row) for row in (x + offset).tolist()]
    fold_of = rng.permutation(np.arange(t) % n_folds)
    return minority(schema, rows), EuclideanMetric(schema), fold_of


@pytest.mark.parametrize("n_folds", range(2, 11))
def test_knn_per_fold_matches_each_fold_searched_alone(monkeypatch, n_folds):
    # ties from rounding, duplicates, a +1e8 offset where cancellation
    # bites, k up to the whole minority, and 7-row blocks selected in 3-row
    # slices; each fold must equal a search of its training minority alone
    rng = np.random.default_rng(36 + n_folds)
    for offset in (0.0, 1e8):
        for _ in range(4):
            ds, metric, fold_of = fold_case(rng, n_folds, offset)
            t = len(ds)
            monkeypatch.setattr(distance, "_CHUNK_BUDGET", 7 * t)
            monkeypatch.setattr(distance, "_DIFF_BUDGET", 3 * t)
            for k in (1, int(rng.integers(2, 8)), t):
                got = knn_per_fold(ds, k, metric, fold_of)
                assert len(got) == n_folds
                for f, lists in enumerate(got):
                    train = ds.subset(np.flatnonzero(fold_of != f))
                    if len(train) < 2:
                        assert lists is None
                        continue
                    want = knn_minority(train, k, metric).lists
                    assert lists.lists.shape == want.shape
                    assert lists.lists.tolist() == want.tolist(), (n_folds, offset, k, f)


def test_knn_per_fold_thin_folds_get_none():
    # fold 1's training minority is row 0 alone, fold 2's is empty
    ds = minority(CONT1, [(0.0,), (1.0,), (3.0,)])
    got = knn_per_fold(ds, 2, EuclideanMetric(CONT1), np.array([0, 1, 1]))
    assert [lists is None for lists in got] == [False, True]
    assert got[0].lists.tolist() == [[1], [0]]
    assert knn_per_fold(ds, 2, EuclideanMetric(CONT1), np.array([0, 0, 0]))[0] is None
    with pytest.raises(ValueError, match="k must be at least 1"):
        knn_per_fold(ds, 0, EuclideanMetric(CONT1), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="shape"):
        knn_per_fold(ds, 2, EuclideanMetric(CONT1), np.array([0, 1]))


def test_distances_nondecreasing_and_dominating():
    rng = np.random.default_rng(33)
    schema = schema_d(4)
    rows = [tuple(float(v) for v in rng.normal(size=4)) for _ in range(80)]
    metric = EuclideanMetric(schema)
    oracle = metric_oracle(metric)
    nl = knn_minority(minority(schema, rows), 6, metric)
    for i, lst in enumerate(nl.lists):
        dists = [oracle(rows[i], rows[j]) for j in lst]
        assert dists == sorted(dists)
        rim = dists[-1]
        for j in range(len(rows)):
            if j != i and j not in lst:
                assert oracle(rows[i], rows[j]) >= rim


def test_permutation_equivariance():
    rng = np.random.default_rng(34)
    schema = schema_d(2)
    rows = [tuple(float(v) for v in rng.normal(size=2)) for _ in range(15)]
    base = knn_minority(minority(schema, rows), 3, EuclideanMetric(schema))
    perm = list(rng.permutation(15))
    inverse = {old: new for new, old in enumerate(perm)}
    shuffled = [rows[old] for old in perm]
    moved = knn_minority(minority(schema, shuffled), 3, EuclideanMetric(schema))
    for new_i, old_i in enumerate(perm):
        relabeled = [inverse[j] for j in base.lists[old_i]]
        # distances are unchanged by the permutation, but tie order follows the
        # new labels, so compare as sets when ties are possible; here the rows
        # are generic floats and ties are absent
        assert moved.lists[new_i].tolist() == relabeled


def test_metric_without_pairwise_attribute():
    class PlainMetric:
        def __call__(self, a, b):
            return abs(a[0] - b[0])

    rows = [(0.0,), (1.0,), (5.0,)]
    with pytest.raises(AttributeError, match="pairwise"):
        knn_minority(minority(CONT1, rows), 1, PlainMetric())


def test_ragged_neighbor_list_raises():
    rows = [(0.0,), (1.0,), (5.0,)]
    nl = knn_minority(minority(CONT1, rows), 2, EuclideanMetric(CONT1))
    assert nl.lists.shape == (3, 2)
    assert nl.lists.dtype.kind == "i"
    assert not nl.lists.flags.writeable
    with pytest.raises(ValueError):
        NeighborList(((1, 2), (0,), (1, 0)))

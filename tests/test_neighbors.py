"""Neighbor-list behavior: exactness against a brute-force oracle, the
never-self rule, clamping, deterministic tie order, the per-fold lists of one
shared search, and the memory bound of the streamed search."""

import tracemalloc

import numpy as np
import pytest

from oracles import MAJORITY, MINORITY, dataset_from_rows, metric_oracle, sorted_neighbors
from smotekit import distance, resample
from smotekit.data import FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcMetric,
    VdmMetric,
    VdmTable,
)
from smotekit.neighbors import knn_minority
from smotekit.resample import SmoteParams, _fold_lists, smote

CONT1 = FeatureSchema((("x", "continuous"),), "cls")


def minority(schema, rows):
    """The rows as a minority-only Dataset."""
    return dataset_from_rows(schema, tuple(rows), (MINORITY,) * len(rows))


def schema_d(d):
    return FeatureSchema(tuple((f"x{i}", "continuous") for i in range(d)), "cls")


def test_collinear_points():
    rows = [(0.0,), (1.0,), (5.0,)]
    nl = knn_minority(minority(CONT1, rows), 1, EuclideanMetric(CONT1))
    assert nl.tolist() == [[1], [0], [1]]


def test_lists_clamped_to_t_minus_one():
    rows = [(0.0,), (1.0,), (2.0,), (3.0,)]
    nl = knn_minority(minority(CONT1, rows), 5, EuclideanMetric(CONT1))
    assert all(len(lst) == 3 for lst in nl)


def test_duplicate_points_tie_breaks_by_index():
    rows = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
    schema = schema_d(2)
    nl = knn_minority(minority(schema, rows), 2, EuclideanMetric(schema))
    assert nl.tolist() == [[1, 2], [0, 2], [0, 1]]


def test_never_self():
    rng = np.random.default_rng(31)
    schema = schema_d(3)
    rows = [tuple(float(v) for v in rng.integers(0, 4, size=3)) for _ in range(40)]
    nl = knn_minority(minority(schema, rows), 5, EuclideanMetric(schema))
    for i, lst in enumerate(nl):
        assert i not in lst
        assert len(lst) == 5
        assert len(set(lst)) == len(lst)


def test_requires_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        knn_minority(minority(CONT1, [(0.0,)]), 1, EuclideanMetric(CONT1))


@pytest.mark.parametrize("block_rows", [None, 1], ids=["one-block", "one-row-slices"])
@pytest.mark.parametrize(
    "rows, k, want",
    [
        ([0.5, 1e200, 0.0, -1e200], 3, [[2, 1, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
        # row 2's picks after its two finite ones repeat row 0, which must
        # get its distance back before the row is sorted
        (
            [0.1, 0.3, 0.0, 1e200, -1e200],
            4,
            [[2, 1, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]],
        ),
    ],
    ids=["four-rows", "repeated-pick"],
)
def test_never_self_when_distances_overflow(monkeypatch, rows, k, want, block_rows):
    # every distance to a +-1e200 row squares past the largest float to inf,
    # so rows have fewer than k finite distances; the inf entries order by
    # index, as in sorted_neighbors with an inf-on-overflow distance
    if block_rows:  # blocks of one row, each computed into and selected from one array
        monkeypatch.setattr(distance, "_DIFF_BUDGET", block_rows * len(rows))
    with np.errstate(over="ignore"):
        nl = knn_minority(minority(CONT1, [(x,) for x in rows]), k, EuclideanMetric(CONT1))
    assert nl.tolist() == want


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
        return schema, rows, NcMetric(schema, med)
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
    return schema, rows, NcMetric(schema, 1.0)


def test_matches_oracle_random_datasets(monkeypatch):
    # every metric class, ties from integer coordinates, duplicated rows and
    # low-cardinality nominals, every width up to T - 1 (k = T is clamped);
    # a budget of 3 rows streams several blocks
    rng = np.random.default_rng(32)
    for kind in ("euclidean", "nc", "vdm"):
        cases = [tie_heavy_case(rng, kind) for _ in range(25)]
        if kind != "vdm":
            cases.append(sqrt_rounding_case(kind))
        for schema, rows, metric in cases:
            k = int(rng.integers(1, len(rows) + 1))
            monkeypatch.setattr(distance, "_DIFF_BUDGET", 3 * len(rows))
            got = knn_minority(minority(schema, rows), k, metric)
            assert tuple(map(tuple, got.tolist())) == sorted_neighbors(
                rows, k, metric_oracle(metric)
            ), (kind, rows, k)


class RecordingMetric:
    """A metric's distances, recording the rows of every pairwise call and
    where its ``out`` array starts and its shape (None for no ``out``),
    without keeping the array alive."""

    def __init__(self, inner):
        self.inner = inner
        self.blocks = []
        self.outs = []

    def pairwise(self, ds, rows=slice(None), out=None):
        self.blocks.append(range(len(ds))[rows])
        self.outs.append(None if out is None else (out.__array_interface__["data"][0], out.shape))
        return self.inner.pairwise(ds, rows, out)


def memory_case(kind, t):
    """A minority of ``t`` rows and its metric: 8 continuous features for
    ``euclidean``, 6 continuous and 2 nominal for ``nc``, 4 nominal for
    ``vdm`` and ``vdm_many``. The ``vdm_many`` minority is a subset of a file
    whose 2,000 majority rows add 2,000 categories to its first feature."""
    rng = np.random.default_rng(35)
    n_cont, n_nom = {"euclidean": (8, 0), "nc": (6, 2), "vdm": (0, 4), "vdm_many": (0, 4)}[kind]
    schema = FeatureSchema(
        tuple((f"x{i}", "continuous") for i in range(n_cont))
        + tuple((f"g{i}", "nominal") for i in range(n_nom)),
        "cls",
    )
    cont = rng.normal(size=(t, n_cont)).tolist()
    nom = rng.integers(0, 5, size=(t, n_nom)).tolist()
    rows = [tuple(x) + tuple("abcde"[v] for v in g) for x, g in zip(cont, nom)]
    if kind == "vdm_many":  # the subset shares the file's intern tables
        rows += [(f"m{i}", "a", "a", "a") for i in range(2000)]
        ds = dataset_from_rows(schema, rows, (MINORITY,) * t + (MAJORITY,) * 2000).subset(range(t))
    else:
        ds = minority(schema, rows)
    if kind == "euclidean":
        return ds, EuclideanMetric(schema)
    if kind == "nc":
        return ds, NcMetric(schema, distance.compute_med(ds))
    return ds, VdmMetric(VdmTable.from_dataset(ds))


def check_search_memory(monkeypatch, kind, search, bound, block_rows=None):
    """Run ``search(ds, metric)`` on 3,000 rows in blocks of at most
    ``block_rows`` rows or, by default, of ``_DIFF_BUDGET`` floats (21
    rows). The block (a budget) and the metric's term buffer (half one) are
    the only arrays of their size alive, so the peak stays within ``bound``
    budgets plus the neighbor lists and the metric's contiguous copies of
    the columns; the blocks cover every row once, and every block but the
    last holds ``ceil(T / ceil(T / cap))`` rows, an even split of the rows
    over the fewest blocks of at most ``cap`` rows."""
    t = 3000
    if block_rows:
        monkeypatch.setattr(distance, "_DIFF_BUDGET", t * block_rows)
    budget = distance._DIFF_BUDGET
    ds, inner = memory_case(kind, t)
    metric = RecordingMetric(inner)
    tracemalloc.start()
    try:
        found = search(ds, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(nl.nbytes for nl in found) + ds.cont.nbytes + ds.codes.nbytes
    assert peak <= bound * budget * 8 + held, (peak - held) / (budget * 8)
    assert sorted(i for block in metric.blocks for i in block) == list(range(t))
    assert all(len(block) * t <= budget for block in metric.blocks)
    cap = budget // t
    rows = -(-t // -(-t // cap))
    *full, last = [len(block) for block in metric.blocks]
    assert full == [rows] * len(full) and 0 < last <= rows, (cap, rows, full, last)


def test_streamed_search_memory_is_bounded(monkeypatch):
    # 21-row blocks hold 0.96 budget each, 7-row chunks 0.32; 1.35 budgets
    # on numpy 2.4
    check_search_memory(
        monkeypatch, "euclidean", lambda ds, metric: [knn_minority(ds, 5, metric)], bound=1.65
    )


@pytest.mark.parametrize("kind", ["nc", "vdm", "vdm_many"])
def test_fold_fitted_metric_search_memory_is_bounded(monkeypatch, kind):
    # the nominal terms are added row chunk by row chunk, not block-wide;
    # NC's penalty also holds one T-wide row per code (5 codes: 0.23 budget).
    # On numpy 2.4: nc 1.75, vdm and vdm_many 1.35-1.40 budgets
    bound = 2.05 if kind == "nc" else 1.7
    check_search_memory(
        monkeypatch, kind, lambda ds, metric: [knn_minority(ds, 5, metric)], bound=bound
    )


def test_an_nc_fold_search_holds_an_even_block_and_buffer():
    # mixed_smote_nc's fold minority: 288 rows in two blocks of 144 and a
    # 72-row term buffer are 0.75 T^2 floats. 0.98 T^2 on numpy 2.4 with
    # the metric's column copies; blocks and a buffer of whole budgets
    # (227 + 61 rows and 113) would hold 1.18 T^2 and read 1.41
    t = 288
    ds, inner = memory_case("nc", t)
    metric = RecordingMetric(inner)
    tracemalloc.start()
    try:
        found = knn_minority(ds, 5, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(block) for block in metric.blocks] == [144, 144]
    assert len(inner._held[2]) == 72
    assert peak - found.nbytes <= 1.1 * t * t * 8, (peak - found.nbytes) / (t * t * 8)


def test_selection_frees_its_partition_indices(monkeypatch):
    # in blocks of at most 256 rows: a (rows, T) index array of a partition
    # of the block kept alive beside it would add a whole budget, to 2.5;
    # 250-row blocks read 1.47 on numpy 2.4
    check_search_memory(
        monkeypatch,
        "vdm",
        lambda ds, metric: [knn_minority(ds, 5, metric)],
        bound=1.65,
        block_rows=256,
    )


def test_selection_allocates_nothing_t_wide(monkeypatch):
    # the argmin rounds keep only (block rows, w) arrays beside the 21-row
    # block; a (rows, T) index array, as a partition of the block makes,
    # would add a whole budget, to 2.5
    check_search_memory(
        monkeypatch, "vdm", lambda ds, metric: [knn_minority(ds, 5, metric)], bound=1.7
    )


def fold_filter(ds, k, metric, fold_of):
    """smote's lists of every fold as ``resample._fold_sources`` filters
    them from one search over the whole minority, ``(k + _MARGIN) * F /
    (F - 1)`` wide (rounded up); None for a fold the filter cannot serve."""
    n_folds = int(fold_of.max()) + 1
    found = knn_minority(ds, -(-(k + resample._MARGIN) * n_folds // (n_folds - 1)), metric)
    return [_fold_lists(found, fold_of != f, k) for f in range(n_folds)]


def test_per_fold_search_memory_is_bounded(monkeypatch):
    # one selection over each block of at most 512 rows serves all five
    # folds; a per-fold copy of the block's rows or columns would add 0.8
    # budget. 500-row blocks read 1.48 on numpy 2.4
    check_search_memory(
        monkeypatch,
        "euclidean",
        lambda ds, metric: fold_filter(ds, 5, metric, np.arange(len(ds)) % 5),
        bound=1.6,
        block_rows=512,
    )


@pytest.mark.parametrize("kind", ["euclidean", "nc", "vdm"])
def test_every_block_of_a_search_fills_one_array(monkeypatch, kind):
    # 7-row blocks of 50 rows: every pairwise call but the last fills the
    # whole of one array, and the lists equal those of a one-block search.
    # The metric is first called after the patch, so its term chunks follow
    # the patched budget too
    ds, inner = memory_case(kind, 50)
    want = knn_minority(ds, 5, memory_case(kind, 50)[1])
    monkeypatch.setattr(distance, "_DIFF_BUDGET", 7 * 50)
    metric = RecordingMetric(inner)
    assert np.array_equal(knn_minority(ds, 5, metric), want)
    assert [len(block) for block in metric.blocks] == [7] * 7 + [1]
    start, shape = metric.outs[0]
    assert shape == (7, 50)
    assert metric.outs == [(start, (7, 50))] * 7 + [(start, (1, 50))]


def fold_case(rng, n_folds, offset, cluster=0):
    """A minority of 1-3 continuous features rounded to 0.1, with duplicated
    rows, shifted by ``offset``, and a fold per row (every fold used). With
    ``cluster``, that many copies of row 0 follow, all in one fold that row 0
    is not in."""
    t = int(rng.integers(n_folds, 50))
    d = int(rng.integers(1, 4))
    x = np.round(rng.normal(size=(t, d)), 1)
    x[t // 2] = x[0]
    x[-1] = x[1]
    fold_of = rng.permutation(np.arange(t) % n_folds)
    x = np.vstack([x, np.repeat(x[:1], cluster, axis=0)])
    fold_of = np.append(fold_of, np.full(cluster, (fold_of[0] + 1) % n_folds))
    schema = schema_d(d)
    rows = [tuple(row) for row in (x + offset).tolist()]
    return minority(schema, rows), EuclideanMetric(schema), fold_of


@pytest.mark.parametrize("n_folds", range(2, 11))
def test_knn_per_fold_matches_each_fold_searched_alone(monkeypatch, n_folds):
    # ties from rounding, duplicates, a +1e8 offset where cancellation
    # bites, k up to the whole minority, and 3-row blocks. Rows fall short
    # of k training candidates beside a held-out cluster of 40 duplicates,
    # wider than any search for k < 8 (at most 34 rows, at 2 folds), and
    # with no margin at all; their folds are searched on their own. Every
    # list the filter gives, and every fold's lists of smote's
    # _fold_sources, must equal a search of the fold's training minority.
    rng = np.random.default_rng(36 + n_folds)
    margin_used = resample._MARGIN
    served = {margin_used: 0, 0: 0}
    searched = dict.fromkeys(served, 0)
    for margin in served:
        monkeypatch.setattr(resample, "_MARGIN", margin)
        for offset in (0.0, 1e8):
            for cluster in (0, 0, 0, 0, 40):
                ds, metric, fold_of = fold_case(rng, n_folds, offset, cluster)
                t = len(ds)
                monkeypatch.setattr(distance, "_DIFF_BUDGET", 3 * t)
                for k in (1, int(rng.integers(2, 8)), t):
                    filtered = fold_filter(ds, k, metric, fold_of)
                    sources = resample._fold_sources(ds, fold_of, k, "smote")
                    assert len(filtered) == len(sources) == n_folds
                    for f, (lists, source) in enumerate(zip(filtered, sources)):
                        train = ds.subset(np.flatnonzero(fold_of != f))
                        if len(train) < 2:
                            assert lists is None and source is None
                            continue
                        want = knn_minority(train, k, metric).tolist()
                        assert source[1].tolist() == want, (n_folds, margin, t, k, f)
                        if lists is None:
                            searched[margin] += 1
                        else:
                            served[margin] += 1
                            assert lists.tolist() == want, (n_folds, margin, t, k, f)
    # the filter serves most folds, and a fold with a short row is searched
    assert served[margin_used] > searched[margin_used] and searched[0] > 0, (served, searched)


def test_knn_per_fold_thin_folds_get_none():
    # fold 1's training minority is row 0 alone
    ds = minority(CONT1, [(0.0,), (1.0,), (3.0,)])
    got = fold_filter(ds, 2, EuclideanMetric(CONT1), np.array([0, 1, 1]))
    assert [lists is None for lists in got] == [False, True]
    assert got[0].tolist() == [[1], [0]]


def test_distances_nondecreasing_and_dominating():
    rng = np.random.default_rng(33)
    schema = schema_d(4)
    rows = [tuple(float(v) for v in rng.normal(size=4)) for _ in range(80)]
    metric = EuclideanMetric(schema)
    oracle = metric_oracle(metric)
    nl = knn_minority(minority(schema, rows), 6, metric)
    for i, lst in enumerate(nl):
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
        relabeled = [inverse[j] for j in base[old_i]]
        # distances are unchanged by the permutation, but tie order follows the
        # new labels, so compare as sets when ties are possible; here the rows
        # are generic floats and ties are absent
        assert moved[new_i].tolist() == relabeled


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
    assert nl.shape == (3, 2)
    assert nl.dtype == np.intp
    assert not nl.flags.writeable
    with pytest.raises(ValueError, match="sequence"):  # numpy's "inhomogeneous shape" error
        smote(minority(CONT1, rows), SmoteParams(100, seed=0), ((1, 2), (0,), (1, 0)))


def test_every_search_returns_read_only_intp_arrays():
    ds = minority(CONT1, [(float(v),) for v in (0, 1, 3, 6, 10, 15, 21)])
    metric = EuclideanMetric(CONT1)
    fold_of = np.arange(7) % 3
    for k in (1, 3, 9):
        found = [(7, knn_minority(ds, k, metric))]
        sources = resample._fold_sources(ds, fold_of, k, "smote")
        for f, lists in enumerate(fold_filter(ds, k, metric, fold_of)):
            t = np.count_nonzero(fold_of != f)
            found += [(t, lists), (t, sources[f][1])]
        for t, lists in found:
            assert type(lists) is np.ndarray
            assert lists.dtype == np.intp
            assert lists.shape == (t, min(k, t - 1))
            assert not lists.flags.writeable

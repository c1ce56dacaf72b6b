import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import MAJORITY, MINORITY, dataset_from_rows, metric_oracle, vdm_counts_by_feature
import smotekit
from smotekit import distance
from smotekit.data import FeatureSchema
from smotekit.errors import DataError
from smotekit.distance import (
    EuclideanMetric,
    NcMetric,
    VdmMetric,
    VdmTable,
    compute_med,
)

CONT2 = FeatureSchema((("f1", "continuous"), ("f2", "continuous")), "cls")
CONT3 = FeatureSchema(
    (("f1", "continuous"), ("f2", "continuous"), ("f3", "continuous")), "cls"
)
MIXED6 = FeatureSchema(
    (
        ("f1", "continuous"),
        ("f2", "continuous"),
        ("f3", "continuous"),
        ("f4", "nominal"),
        ("f5", "nominal"),
        ("f6", "nominal"),
    ),
    "cls",
)
NOM3 = FeatureSchema(
    (("g1", "nominal"), ("g2", "nominal"), ("g3", "nominal")), "cls"
)

def minority(schema, rows):
    """The rows as a minority-only Dataset."""
    return dataset_from_rows(schema, tuple(rows), (MINORITY,) * len(rows))


def nominal_schema(d):
    return FeatureSchema(tuple((f"g{i}", "nominal") for i in range(d)), "cls")


def vdm_table(rows, labels):
    """VDM table of all-nominal rows with the given labels."""
    schema = nominal_schema(len(rows[0]))
    return VdmTable.from_dataset(dataset_from_rows(schema, tuple(rows), tuple(labels)))


def distances(metric, schema, rows):
    """The metric's full distance matrix over the rows."""
    return metric.pairwise(minority(schema, rows))


F1 = (1.0, 2.0, 3.0, "A", "B", "C")
F2 = (4.0, 6.0, 5.0, "A", "D", "E")


def test_euclidean_worked_pair():
    got = distances(EuclideanMetric(CONT2), CONT2, [(6.0, 4.0), (4.0, 3.0)])
    assert got[0, 1] == math.sqrt(5.0)


def test_euclidean_rejects_nominal_schema():
    with pytest.raises(ValueError, match="continuous"):
        EuclideanMetric(NOM3)


def test_euclidean_rejects_arity_mismatch():
    cont1 = FeatureSchema((("f1", "continuous"),), "cls")
    mixed2 = FeatureSchema((("f1", "continuous"), ("g", "nominal")), "cls")
    metrics = (EuclideanMetric(CONT2), NcMetric(CONT2, 1.0))
    for metric in metrics:
        for schema, rows in ((cont1, [(1.0,), (2.0,)]), (CONT3, [(1.0, 2.0, 3.0)] * 2)):
            with pytest.raises(ValueError, match="length"):
                distances(metric, schema, rows)
        # the right width with a nominal column the metric would not read
        with pytest.raises(ValueError, match="kinds"):
            distances(metric, mixed2, [(1.0, "a"), (1.0, "b")])


@pytest.mark.parametrize("med", [0.0, 1.0, 2.5])
def test_nc_distance_mixed_pair(med):
    # two nominal mismatches (B/D, C/E) on top of squared gaps 9 + 16 + 4
    got = distances(NcMetric(MIXED6, med), MIXED6, [F1, F2])[0, 1]
    assert got == pytest.approx(math.sqrt(29.0 + 2.0 * med * med), abs=1e-12)


# NcMetric needs one continuous feature; a column equal in every row adds 0
CONST_NOM3 = FeatureSchema((("x", "continuous"),) + NOM3.features, "cls")


def test_nc_distance_all_nominal_counts_mismatches():
    metric = NcMetric(CONST_NOM3, 2.0)
    a = (0.0, "A", "B", "C")
    b = (0.0, "X", "Y", "Z")
    c = (0.0, "A", "B", "Z")
    got = distances(metric, CONST_NOM3, [a, b, c])
    assert got[0, 1] == pytest.approx(math.sqrt(12.0), abs=1e-12)
    assert got[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_nc_distance_zero_med_hides_nominal_differences():
    schema = FeatureSchema((("x", "continuous"), ("g", "nominal")), "cls")
    metric = NcMetric(schema, 0.0)
    assert distances(metric, schema, [(0.0, "A"), (0.0, "B")])[0, 1] == 0.0


def test_nc_distance_matches_euclidean_on_continuous_schema():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = tuple(float(v) for v in rng.normal(size=3))
        b = tuple(float(v) for v in rng.normal(size=3))
        med = float(rng.uniform(0, 10))
        nc = distances(NcMetric(CONT3, med), CONT3, [a, b])
        assert nc[0, 1] == pytest.approx(
            distances(EuclideanMetric(CONT3), CONT3, [a, b])[0, 1], abs=0
        )


CONT6 = FeatureSchema(tuple((f"x{i}", "continuous") for i in range(6)), "cls")
# the same six continuous features with two nominal ones between them
MIXED8 = FeatureSchema(
    (("x0", "continuous"), ("g0", "nominal"), ("x1", "continuous"),
     ("x2", "continuous"), ("g1", "nominal"), ("x3", "continuous"),
     ("x4", "continuous"), ("x5", "continuous")),
    "cls",
)


def left_to_right(schema, med):
    """The pure-Python distance of two rows: continuous squared differences
    summed left to right, then ``med * med`` per differing nominal feature,
    in feature order, then the square root."""

    def dist(a, b):
        total = sum((a[i] - b[i]) * (a[i] - b[i]) for i in schema.continuous_indices)
        for i in schema.nominal_indices:
            if a[i] != b[i]:
                total += med * med
        return math.sqrt(total)

    return dist


def summation_rows(rng, schema):
    """Random, 0.1-rounded, half-duplicated and +1e8-offset row sets of 24
    rows; rows 12-23 repeat the nominal tokens of rows 0-11."""
    x = rng.normal(size=(24, len(schema.continuous_indices)))
    duplicated = x.copy()
    duplicated[12:] = x[:12]
    tokens = rng.choice(list("abc"), size=(12, len(schema.nominal_indices))).tolist() * 2
    for cont in (x, np.round(x, 1), duplicated, x + 1e8):
        rows = []
        for values, nom in zip(cont.tolist(), tokens):
            values, nom = iter(values), iter(nom)
            rows.append(tuple(
                next(values) if kind == "continuous" else str(next(nom))
                for kind in schema.kinds
            ))
        yield rows


NOM4 = nominal_schema(4)


def vdm_left_to_right(table):
    """The pure-Python VDM distance of two rows: per feature, left to right,
    ``|pmin_a - pmin_b| + |pmaj_a - pmaj_b|`` from the table's counts."""

    def dist(a, b):
        total = 0.0
        for f, counts in enumerate(table.counts):
            (min_a, maj_a), (min_b, maj_b) = counts[a[f]], counts[b[f]]
            n_a, n_b = min_a + maj_a, min_b + maj_b
            total += abs(min_a / n_a - min_b / n_b) + abs(maj_a / n_a - maj_b / n_b)
        return total

    return dist


def summation_cases(rng, schema):
    """(rows, their Dataset, a maker of fresh metrics, pure-Python distance)
    per row set. An
    all-nominal schema's one row set is the first 24 of 60 labeled rows whose
    features hold 2, 3, 5 and 7 categories, a subset sharing the intern
    tables of the 60 rows, which the VDM table counts."""
    if schema.all_nominal:
        rows = [tuple(f"v{v}" for v in rng.integers(0, (2, 3, 5, 7))) for _ in range(60)]
        labels = [MINORITY if low else MAJORITY for low in rng.random(60) < 0.4]
        full = dataset_from_rows(schema, rows, labels)
        table = VdmTable.from_dataset(full)
        yield rows[:24], full.subset(range(24)), partial(VdmMetric, table), vdm_left_to_right(table)
        return
    for rows in summation_rows(rng, schema):
        ds = minority(schema, rows)
        if schema.all_continuous:
            make, med = partial(EuclideanMetric, schema), 0.0
        else:
            med = compute_med(ds)
            make = partial(NcMetric, schema, med)
        yield rows, ds, make, left_to_right(schema, med)


@pytest.mark.parametrize("schema", [CONT6, MIXED8, NOM4])
def test_pairwise_sums_features_left_to_right(monkeypatch, schema):
    # bit for bit, not approx, in row chunks of 1, 3 and 7 rows and in
    # slices, fresh or filled into a given array of NaN. A metric sizes its
    # chunks on its first call for a dataset, so each size gets a new one
    rng = np.random.default_rng(37)
    for rows, ds, make, dist in summation_cases(rng, schema):
        want = np.array([[dist(a, b) for b in rows] for a in rows])
        for chunk_rows in (None, 1, 3, 7):
            if chunk_rows:
                monkeypatch.setattr(distance, "_DIFF_BUDGET", 2 * chunk_rows * len(rows))
            metric = make()
            assert np.array_equal(metric.pairwise(ds), want)
            for block in (slice(0, 1), slice(5, 16), slice(19, None)):
                assert np.array_equal(metric.pairwise(ds, block), want[block])
                out = np.full(want[block].shape, np.nan)
                assert metric.pairwise(ds, block, out=out) is out
                assert out.tobytes() == want[block].tobytes()


@pytest.mark.parametrize("shape, dtype", [((2, 3), float), ((1, 2), float), ((2, 2), np.float32)])
def test_pairwise_rejects_an_out_of_another_shape_or_type(shape, dtype):
    ds = minority(CONT2, [(0.0, 1.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match=r"out must be a \(2, 2\) float64 array"):
        EuclideanMetric(CONT2).pairwise(ds, out=np.empty(shape, dtype=dtype))


def test_nc_distance_axioms():
    rng = np.random.default_rng(22)
    med = 1.75
    cats = ["p", "q", "r"]
    for _ in range(100):
        a = (float(rng.normal()), str(rng.choice(cats)), float(rng.normal()))
        b = (float(rng.normal()), str(rng.choice(cats)), float(rng.normal()))
        schema = FeatureSchema(
            (("x", "continuous"), ("c", "nominal"), ("y", "continuous")), "cls"
        )
        got = distances(NcMetric(schema, med), schema, [a, b])
        dab = got[0, 1]
        assert dab >= 0.0
        assert dab == got[1, 0]
        assert got[0, 0] == 0.0
        if a != b:
            assert dab > 0.0


@pytest.mark.parametrize("med", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_nc_metric_rejects_bad_med(med):
    with pytest.raises(ValueError, match="med must be finite and non-negative"):
        NcMetric(MIXED6, med)


def test_nc_metric_rejects_a_med_without_a_finite_square():
    # equal codes would add 0 * inf = NaN to a distance
    NcMetric(MIXED6, 1e154)
    with pytest.raises(ValueError, match=r"med must have a finite square, got 1e\+200"):
        NcMetric(MIXED6, 1e200)


def test_nc_metric_requires_a_continuous_feature():
    with pytest.raises(ValueError, match="NcMetric requires at least one continuous feature"):
        NcMetric(NOM3, 1.0)


@pytest.mark.parametrize(
    "rows",
    [[(1e200,), (-1e200,)], [(1e154,), (-1e154,)], [(1.7e308,), (1.7e308,), (-1.7e308,)]],
    ids=["square-overflows", "sum-of-squares-overflows", "mean-overflows"],
)
def test_compute_med_of_an_overflowing_spread_is_a_data_error(rows):
    schema = FeatureSchema((("f", "continuous"),), "cls")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is not shown
        with pytest.raises(DataError, match="spread too far: Med .* has no finite square"):
            compute_med(minority(schema, rows))


def test_compute_med_even_feature_count():
    # column f scaled so its sample std is exactly s_f; std((0,1,2)) with the
    # n-1 denominator is 1
    stds = (1.0, 2.0, 3.0, 10.0)
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(4)), "cls")
    rows = [tuple(j * s for s in stds) for j in range(3)]
    med = compute_med(minority(schema, rows))
    assert type(med) is float
    assert med == 2.5


def test_compute_med_single_feature():
    schema = FeatureSchema((("f", "continuous"),), "cls")
    rows = [(0.0,), (2.5,), (5.0,)]
    assert compute_med(minority(schema, rows)) == 2.5


def test_compute_med_ignores_nominal_columns():
    rows = [(0.0, "A"), (2.0, "B"), (4.0, "A")]
    schema = FeatureSchema((("f", "continuous"), ("g", "nominal")), "cls")
    assert compute_med(minority(schema, rows)) == 2.0


def test_compute_med_single_row_is_zero():
    schema = FeatureSchema((("f", "continuous"),), "cls")
    assert compute_med(minority(schema, [(7.0,)])) == 0.0


def test_compute_med_equals_numpy_median():
    # small integer values repeat columns often, so tied deviations are common
    rng = np.random.default_rng(65)
    for _ in range(2000):
        n_features = int(rng.integers(1, 13))
        n_rows = int(rng.integers(1, 5))
        values = rng.integers(0, 3, size=(n_rows, n_features)) * rng.choice([0.5, 1.0, 3.0])
        schema = FeatureSchema(
            tuple((f"f{i}", "continuous") for i in range(n_features)), "cls"
        )
        ds = minority(schema, [tuple(map(float, row)) for row in values])
        stds = ds.cont.std(axis=0, ddof=1) if n_rows > 1 else np.zeros(n_features)
        assert compute_med(ds) == float(np.median(stds))


def test_compute_med_leaves_numpy_ma_unloaded():
    # np.median's first call in a process imports numpy.ma
    env = {**os.environ, "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1])}
    code = (
        "import sys\n"
        "from smotekit.data import Dataset, FeatureSchema\n"
        "from smotekit.distance import compute_med\n"
        "schema = FeatureSchema((('f', 'continuous'), ('g', 'continuous')), 'cls')\n"
        "ds = Dataset(schema, [[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]], [True] * 3, 'pos', 'neg')\n"
        "print(compute_med(ds), 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1.5", "False"]


def test_compute_med_requires_continuous_feature():
    with pytest.raises(ValueError, match="continuous"):
        compute_med(minority(FeatureSchema((("g", "nominal"),), "cls"), [("A",)]))


def test_compute_med_requires_a_row():
    with pytest.raises(ValueError, match="^compute_med requires at least one minority row$"):
        compute_med(minority(CONT2, []))


def _toy_table():
    # V1 appears 3 times, all minority; V2 twice, all majority
    rows = [("V1",)] * 3 + [("V2",)] * 2
    labels = [MINORITY] * 3 + [MAJORITY] * 2
    return vdm_table(rows, labels)


def test_vdm_delta_toy_counts():
    table = _toy_table()
    got = distances(VdmMetric(table), nominal_schema(1), [("V1",), ("V2",)])
    assert got[0, 1] == 2.0
    assert got[0, 0] == 0.0
    assert got[1, 0] == 2.0


def test_vdm_delta_unseen_category():
    # every row of ds is checked, also one outside the requested row block;
    # the subset's intern table also holds V8, which none of its rows do
    ds = minority(nominal_schema(1), [("V1",), ("V8",), ("V9",)]).subset([0, 2])
    with pytest.raises(ValueError, match="^unseen category 'V9' for feature 0$"):
        VdmMetric(_toy_table()).pairwise(ds, slice(0, 1))


def test_vdm_distance_sums_feature_deltas():
    rows = [("V1", "V1")] * 3 + [("V2", "V2")] * 2
    labels = [MINORITY] * 3 + [MAJORITY] * 2
    table = vdm_table(rows, labels)
    probe = [("V1", "V1"), ("V2", "V2"), ("V1", "V2")]
    got = distances(VdmMetric(table), nominal_schema(2), probe)
    assert got[0, 1] == 4.0
    assert got[0, 2] == 2.0
    assert got[0, 0] == 0.0


def test_vdm_distance_rejects_arity_mismatch():
    # a one-feature table must not ignore the second column ...
    wide = minority(nominal_schema(2), [("V1", "x"), ("V1", "y")])
    with pytest.raises(ValueError, match="length"):
        VdmMetric(_toy_table()).pairwise(wide)
    # ... nor index past the columns of a narrower dataset
    rows = [("V1", "V1")] * 3 + [("V2", "V2")] * 2
    labels = [MINORITY] * 3 + [MAJORITY] * 2
    narrow = minority(nominal_schema(1), [("V1",), ("V2",)])
    with pytest.raises(ValueError, match="length"):
        VdmMetric(vdm_table(rows, labels)).pairwise(narrow)
    # ... nor one nominal column short when the width matches
    mixed = FeatureSchema((("g0", "nominal"), ("x", "continuous")), "cls")
    with pytest.raises(ValueError, match="kinds"):
        VdmMetric(vdm_table(rows, labels)).pairwise(minority(mixed, [("V1", 1.0)] * 2))


def _random_table(rng, n_features=1, n_values=4, n_rows=40):
    values = [f"v{i}" for i in range(n_values)]
    rows = [
        tuple(str(rng.choice(values)) for _ in range(n_features))
        for _ in range(n_rows)
    ]
    labels = [
        MINORITY if rng.random() < 0.4 else MAJORITY
        for _ in range(n_rows)
    ]
    return vdm_table(rows, labels), values, rows


def test_vdm_delta_axioms_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(100):
        table, values, rows = _random_table(rng)
        seen = [(value,) for value in table.counts[0]]
        got = distances(VdmMetric(table), nominal_schema(1), seen)
        assert np.all(np.diag(got) == 0.0)
        assert np.array_equal(got, got.T)
        assert np.all(got >= 0.0)
        # got[i, j] <= got[i, m] + got[m, j] for every m
        assert np.all(got[:, None, :] <= got[:, :, None] + got[None, :, :] + 1e-12)


def test_vdm_distance_is_pseudometric():
    rng = np.random.default_rng(24)
    for _ in range(25):
        table, values, rows = _random_table(rng, n_features=3, n_rows=60)
        pick = lambda: rows[int(rng.integers(len(rows)))]
        got = distances(VdmMetric(table), NOM3, [pick(), pick(), pick()])
        dxy = got[0, 1]
        assert dxy == got[1, 0]
        assert got[0, 0] == 0.0
        assert dxy <= got[0, 2] + got[2, 1] + 1e-12


def test_vdm_table_rejects_counts_no_row_has():
    for pair in ((-1, 2), (2, -1), (0, 0)):
        with pytest.raises(ValueError, match=rf"^feature 1 category 'B' has invalid counts \({pair[0]}, {pair[1]}\)$"):
            VdmTable(counts=({"A": (1, 0)}, {"B": pair}))


def test_vdm_table_from_dataset_requires_rows():
    ds = dataset_from_rows(NOM3, (("A", "B", "C"),), (MINORITY,))
    with pytest.raises(ValueError, match="^cannot build a VDM table from zero rows$"):
        VdmTable.from_dataset(ds.subset([]))


def test_vdm_table_from_dataset_requires_all_nominal():
    ds = dataset_from_rows(
        CONT2,
        ((1.0, 2.0), (3.0, 4.0)),
        (MINORITY, MAJORITY),
    )
    with pytest.raises(ValueError, match="nominal"):
        VdmTable.from_dataset(ds)


def test_metric_objects_agree_with_functions():
    """Each metric's pairwise distances against the per-pair oracles, and
    every row block against the matching rows of the full matrix."""
    rng = np.random.default_rng(25)
    cont_rows = [tuple(float(v) for v in rng.normal(size=3)) for _ in range(12)]
    mixed_rows = [
        (float(rng.normal()), float(rng.normal()), float(rng.normal()),
         str(rng.choice(["A", "B"])), str(rng.choice(["C", "D"])),
         str(rng.choice(["E", "F"])))
        for _ in range(10)
    ]
    table, values, nom_rows = _random_table(rng, n_features=3, n_rows=30)
    cases = (
        (EuclideanMetric(CONT3), CONT3, cont_rows, 1e-9),
        (NcMetric(MIXED6, 1.25), MIXED6, mixed_rows, 1e-9),
        (VdmMetric(table), NOM3, nom_rows[:10], 1e-12),
    )
    for metric, schema, rows, tol in cases:
        oracle = metric_oracle(metric)
        ds = minority(schema, rows)
        full = metric.pairwise(ds)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert full[i, j] == pytest.approx(oracle(a, b), abs=tol)
        for block in (slice(0, 1), slice(0, 4), slice(3, 7), slice(7, None)):
            assert np.array_equal(metric.pairwise(ds, block), full[block])


def test_vdm_pairwise_rejects_unseen_category():
    table = _toy_table()
    rows = minority(FeatureSchema((("g0", "nominal"),), "cls"), [("V1",), ("V9",)])
    with pytest.raises(ValueError, match="unseen category 'V9'"):
        VdmMetric(table).pairwise(rows)


def test_one_metric_follows_the_dataset_of_each_call():
    # a metric keeps its setup for the last dataset it was called on: calls
    # that alternate datasets, one with an unseen category, see their own
    schema = FeatureSchema((("g0", "nominal"),), "cls")
    metric = VdmMetric(_toy_table())
    seen = minority(schema, [("V1",), ("V2",)])
    other = minority(schema, [("V2",), ("V2",), ("V1",)])
    unseen = minority(schema, [("V1",), ("V9",)])
    for ds, want in ((seen, [[0, 2], [2, 0]]), (other, [[0, 0, 2], [0, 0, 2], [2, 2, 0]])) * 2:
        assert metric.pairwise(ds).tolist() == want
        with pytest.raises(ValueError, match="unseen category 'V9'"):
            metric.pairwise(unseen)


@st.composite
def _vdm_training_splits(draw):
    """A row subset of an all-nominal table whose features hold 1, 2, 3 or
    25 categories, so the subset may use few of the intern tables it
    shares; at least one of its rows is minority."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 25]), min_size=1, max_size=3))
    row = st.tuples(*(st.sampled_from([f"v{c}" for c in range(size)]) for size in sizes))
    n = draw(st.integers(1, 30))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([MINORITY, MAJORITY]), min_size=n, max_size=n))
    keep = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    split = dataset_from_rows(nominal_schema(len(sizes)), rows, labels).subset(sorted(keep))
    assume(split.n_minority)
    return split


# every one of 25 categories is in the table; the minority holds two
_WIDE = dataset_from_rows(
    nominal_schema(1),
    [(f"v{c}",) for c in range(25)] + [("v17",), ("v3",), ("v17",)],
    [MAJORITY] * 25 + [MINORITY] * 3,
)


@settings(max_examples=200, deadline=None)
@given(split=_vdm_training_splits())
@example(split=_WIDE)
@example(split=_WIDE.subset([3, 17, 25, 26, 27]))
def test_vdm_counts_and_minority_distances_equal_the_oracles(split):
    table = VdmTable.from_dataset(split)
    want = vdm_counts_by_feature(split)
    assert [list(counts.items()) for counts in table.counts] == [
        list(counts.items()) for counts in want
    ]
    minority_ds = split.minority_subset()
    dist, rows = vdm_left_to_right(table), minority_ds.rows
    expected = np.array([[dist(a, b) for b in rows] for a in rows])
    assert np.array_equal(VdmMetric(table).pairwise(minority_ds), expected)

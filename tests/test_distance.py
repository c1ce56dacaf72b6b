import math

import numpy as np
import pytest

from oracles import MAJORITY, MINORITY, dataset_from_rows, metric_oracle
from smotekit.data import FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcDistanceParams,
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
    metrics = (EuclideanMetric(CONT2), NcMetric(CONT2, NcDistanceParams(1.0)))
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
    got = distances(NcMetric(MIXED6, NcDistanceParams(med)), MIXED6, [F1, F2])[0, 1]
    assert got == pytest.approx(math.sqrt(29.0 + 2.0 * med * med), abs=1e-12)


# NcMetric needs one continuous feature; a column equal in every row adds 0
CONST_NOM3 = FeatureSchema((("x", "continuous"),) + NOM3.features, "cls")


def test_nc_distance_all_nominal_counts_mismatches():
    metric = NcMetric(CONST_NOM3, NcDistanceParams(2.0))
    a = (0.0, "A", "B", "C")
    b = (0.0, "X", "Y", "Z")
    c = (0.0, "A", "B", "Z")
    got = distances(metric, CONST_NOM3, [a, b, c])
    assert got[0, 1] == pytest.approx(math.sqrt(12.0), abs=1e-12)
    assert got[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_nc_distance_zero_med_hides_nominal_differences():
    schema = FeatureSchema((("x", "continuous"), ("g", "nominal")), "cls")
    metric = NcMetric(schema, NcDistanceParams(0.0))
    assert distances(metric, schema, [(0.0, "A"), (0.0, "B")])[0, 1] == 0.0


def test_nc_distance_matches_euclidean_on_continuous_schema():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = tuple(float(v) for v in rng.normal(size=3))
        b = tuple(float(v) for v in rng.normal(size=3))
        med = float(rng.uniform(0, 10))
        nc = distances(NcMetric(CONT3, NcDistanceParams(med)), CONT3, [a, b])
        assert nc[0, 1] == pytest.approx(
            distances(EuclideanMetric(CONT3), CONT3, [a, b])[0, 1], abs=0
        )


def test_nc_distance_axioms():
    rng = np.random.default_rng(22)
    params = NcDistanceParams(1.75)
    cats = ["p", "q", "r"]
    for _ in range(100):
        a = (float(rng.normal()), str(rng.choice(cats)), float(rng.normal()))
        b = (float(rng.normal()), str(rng.choice(cats)), float(rng.normal()))
        schema = FeatureSchema(
            (("x", "continuous"), ("c", "nominal"), ("y", "continuous")), "cls"
        )
        got = distances(NcMetric(schema, params), schema, [a, b])
        dab = got[0, 1]
        assert dab >= 0.0
        assert dab == got[1, 0]
        assert got[0, 0] == 0.0
        if a != b:
            assert dab > 0.0


def test_compute_med_even_feature_count():
    # column f scaled so its sample std is exactly s_f; std((0,1,2)) with the
    # n-1 denominator is 1
    stds = (1.0, 2.0, 3.0, 10.0)
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(4)), "cls")
    rows = [tuple(j * s for s in stds) for j in range(3)]
    assert compute_med(minority(schema, rows)).med == 2.5


def test_compute_med_single_feature():
    schema = FeatureSchema((("f", "continuous"),), "cls")
    rows = [(0.0,), (2.5,), (5.0,)]
    assert compute_med(minority(schema, rows)).med == 2.5


def test_compute_med_ignores_nominal_columns():
    rows = [(0.0, "A"), (2.0, "B"), (4.0, "A")]
    schema = FeatureSchema((("f", "continuous"), ("g", "nominal")), "cls")
    assert compute_med(minority(schema, rows)).med == 2.0


def test_compute_med_single_row_is_zero():
    schema = FeatureSchema((("f", "continuous"),), "cls")
    assert compute_med(minority(schema, [(7.0,)])).med == 0.0


def test_compute_med_requires_continuous_feature():
    with pytest.raises(ValueError, match="continuous"):
        compute_med(minority(FeatureSchema((("g", "nominal"),), "cls"), [("A",)]))


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
    # every row of ds is checked, also one outside the requested row block
    ds = minority(nominal_schema(1), [("V1",), ("V9",)])
    with pytest.raises(ValueError, match="unseen"):
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
        (NcMetric(MIXED6, NcDistanceParams(1.25)), MIXED6, mixed_rows, 1e-9),
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

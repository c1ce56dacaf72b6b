import math

import numpy as np
import pytest

from smotekit.data import ClassLabel, Dataset, FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcDistanceParams,
    NcMetric,
    VdmMetric,
    VdmTable,
    compute_med,
    euclidean,
    nc_distance,
    vdm_delta,
    vdm_distance,
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
    return Dataset(schema, tuple(rows), (ClassLabel.MINORITY,) * len(rows))


def vdm_table(rows, labels):
    """VDM table of all-nominal rows with the given labels."""
    schema = FeatureSchema(tuple((f"g{i}", "nominal") for i in range(len(rows[0]))), "cls")
    return VdmTable.from_dataset(Dataset(schema, tuple(rows), tuple(labels)))


F1 = (1.0, 2.0, 3.0, "A", "B", "C")
F2 = (4.0, 6.0, 5.0, "A", "D", "E")


def test_euclidean_worked_pair():
    assert euclidean((6.0, 4.0), (4.0, 3.0), CONT2) == math.sqrt(5.0)


def test_euclidean_rejects_nominal_schema():
    with pytest.raises(ValueError, match="continuous"):
        euclidean(("A", "B", "C"), ("A", "B", "C"), NOM3)


def test_euclidean_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="length"):
        euclidean((1.0,), (1.0, 2.0), CONT2)


@pytest.mark.parametrize("med", [0.0, 1.0, 2.5])
def test_nc_distance_mixed_pair(med):
    # two nominal mismatches (B/D, C/E) on top of squared gaps 9 + 16 + 4
    got = nc_distance(F1, F2, MIXED6, NcDistanceParams(med))
    assert got == pytest.approx(math.sqrt(29.0 + 2.0 * med * med), abs=1e-12)


def test_nc_distance_all_nominal_counts_mismatches():
    params = NcDistanceParams(2.0)
    a = ("A", "B", "C")
    b = ("X", "Y", "Z")
    assert nc_distance(a, b, NOM3, params) == pytest.approx(math.sqrt(12.0), abs=1e-12)
    c = ("A", "B", "Z")
    assert nc_distance(a, c, NOM3, params) == pytest.approx(2.0, abs=1e-12)


def test_nc_distance_zero_med_hides_nominal_differences():
    params = NcDistanceParams(0.0)
    assert nc_distance(("A",), ("B",), FeatureSchema((("g", "nominal"),), "cls"), params) == 0.0


def test_nc_distance_matches_euclidean_on_continuous_schema():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = tuple(float(v) for v in rng.normal(size=3))
        b = tuple(float(v) for v in rng.normal(size=3))
        med = float(rng.uniform(0, 10))
        assert nc_distance(a, b, CONT3, NcDistanceParams(med)) == pytest.approx(
            euclidean(a, b, CONT3), abs=0
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
        dab = nc_distance(a, b, schema, params)
        assert dab >= 0.0
        assert dab == nc_distance(b, a, schema, params)
        assert nc_distance(a, a, schema, params) == 0.0
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
    labels = [ClassLabel.MINORITY] * 3 + [ClassLabel.MAJORITY] * 2
    return vdm_table(rows, labels)


def test_vdm_delta_toy_counts():
    table = _toy_table()
    assert vdm_delta(table, 0, "V1", "V2") == 2.0
    assert vdm_delta(table, 0, "V1", "V1") == 0.0
    assert vdm_delta(table, 0, "V2", "V1") == 2.0


def test_vdm_delta_unseen_category():
    with pytest.raises(ValueError, match="unseen"):
        vdm_delta(_toy_table(), 0, "V1", "V9")


def test_vdm_distance_sums_feature_deltas():
    rows = [("V1", "V1")] * 3 + [("V2", "V2")] * 2
    labels = [ClassLabel.MINORITY] * 3 + [ClassLabel.MAJORITY] * 2
    table = vdm_table(rows, labels)
    assert vdm_distance(table, ("V1", "V1"), ("V2", "V2")) == 4.0
    assert vdm_distance(table, ("V1", "V1"), ("V1", "V2")) == 2.0
    assert vdm_distance(table, ("V1", "V1"), ("V1", "V1")) == 0.0


def test_vdm_distance_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="length"):
        vdm_distance(_toy_table(), ("V1", "V1"), ("V1",))


def _random_table(rng, n_features=1, n_values=4, n_rows=40):
    values = [f"v{i}" for i in range(n_values)]
    rows = [
        tuple(str(rng.choice(values)) for _ in range(n_features))
        for _ in range(n_rows)
    ]
    labels = [
        ClassLabel.MINORITY if rng.random() < 0.4 else ClassLabel.MAJORITY
        for _ in range(n_rows)
    ]
    return vdm_table(rows, labels), values, rows


def test_vdm_delta_axioms_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(100):
        table, values, rows = _random_table(rng)
        seen = list(table.counts[0])
        for v1 in seen:
            assert vdm_delta(table, 0, v1, v1) == 0.0
            for v2 in seen:
                d12 = vdm_delta(table, 0, v1, v2)
                assert d12 == vdm_delta(table, 0, v2, v1)
                assert d12 >= 0.0
                for v3 in seen:
                    assert d12 <= (
                        vdm_delta(table, 0, v1, v3) + vdm_delta(table, 0, v3, v2)
                    ) + 1e-12


def test_vdm_distance_is_pseudometric():
    rng = np.random.default_rng(24)
    for _ in range(25):
        table, values, rows = _random_table(rng, n_features=3, n_rows=60)
        pick = lambda: rows[int(rng.integers(len(rows)))]
        x, y, z = pick(), pick(), pick()
        dxy = vdm_distance(table, x, y)
        assert dxy == vdm_distance(table, y, x)
        assert vdm_distance(table, x, x) == 0.0
        assert dxy <= vdm_distance(table, x, z) + vdm_distance(table, z, y) + 1e-12


def test_vdm_table_from_dataset_requires_all_nominal():
    ds = Dataset(
        CONT2,
        ((1.0, 2.0), (3.0, 4.0)),
        (ClassLabel.MINORITY, ClassLabel.MAJORITY),
    )
    with pytest.raises(ValueError, match="nominal"):
        VdmTable.from_dataset(ds)


def test_metric_objects_agree_with_functions():
    rng = np.random.default_rng(25)
    cont_rows = [tuple(float(v) for v in rng.normal(size=3)) for _ in range(12)]
    em = EuclideanMetric(CONT3)
    pair = em.pairwise(minority(CONT3, cont_rows))
    for i in range(12):
        for j in range(12):
            assert pair[i, j] == pytest.approx(
                euclidean(cont_rows[i], cont_rows[j], CONT3), abs=1e-9
            )

    mixed_rows = [
        (float(rng.normal()), float(rng.normal()), float(rng.normal()),
         str(rng.choice(["A", "B"])), str(rng.choice(["C", "D"])),
         str(rng.choice(["E", "F"])))
        for _ in range(10)
    ]
    params = NcDistanceParams(1.25)
    nm = NcMetric(MIXED6, params)
    pair = nm.pairwise(minority(MIXED6, mixed_rows))
    for i in range(10):
        for j in range(10):
            assert pair[i, j] == pytest.approx(
                nc_distance(mixed_rows[i], mixed_rows[j], MIXED6, params), abs=1e-9
            )

    table, values, nom_rows = _random_table(rng, n_features=3, n_rows=30)
    vm = VdmMetric(table)
    pair = vm.pairwise(minority(NOM3, nom_rows[:10]))
    for i in range(10):
        for j in range(10):
            assert pair[i, j] == pytest.approx(
                vdm_distance(table, nom_rows[i], nom_rows[j]), abs=1e-12
            )


def test_vdm_pairwise_rejects_unseen_category():
    table = _toy_table()
    rows = minority(FeatureSchema((("g0", "nominal"),), "cls"), [("V1",), ("V9",)])
    with pytest.raises(ValueError, match="unseen category 'V9'"):
        VdmMetric(table).pairwise(rows)

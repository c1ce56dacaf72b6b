import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import MAJORITY, MINORITY, concatenated_plan, dataset_from_rows, vote_by_position
from smotekit import distance, resample
from smotekit.data import Dataset, FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcMetric,
    VdmMetric,
    VdmTable,
    compute_med,
)
from smotekit.errors import DataError
from smotekit.neighbors import knn_minority
from smotekit.rng import child_seed, generator
from smotekit.resample import (
    DISTINCT,
    NEIGHBOR_MODES,
    PER_ATTRIBUTE,
    SHARED,
    VARIANTS,
    WITH_REPLACEMENT,
    Provenance,
    SmoteParams,
    apply_plan_detailed,
    audit_batch,
    replicate_oversample,
    smote,
    smote_n,
    smote_nc,
    synthesis_source,
    under_sample,
    write_provenance,
)
from stub_rng import StubRng

CONT2 = FeatureSchema((("f1", "continuous"), ("f2", "continuous")), "cls")
MIXED = FeatureSchema(
    (("x", "continuous"), ("c", "nominal")), "cls"
)


def minority(schema, rows):
    """The rows as a minority-only Dataset."""
    return dataset_from_rows(schema, tuple(rows), (MINORITY,) * len(rows))


PAIR = minority(CONT2, [(6.0, 4.0), (4.0, 3.0)])
PAIR_NEIGHBORS = ((1,), (0,))


@pytest.mark.parametrize("gap", [0.0, 0.25, 0.5, float(np.nextafter(1.0, 0.0))])
def test_shared_gap_interpolation_is_exact(gap):
    params = SmoteParams(n_percent=100, seed=0, gap_mode=SHARED)
    batch = smote(PAIR, params, PAIR_NEIGHBORS, rng=StubRng(gap))
    assert batch.rows[0] == (6.0 - 2.0 * gap, 4.0 - gap)
    assert batch.provenance.base_index[0] == 0
    assert batch.provenance.neighbor_index[0] == 1
    assert batch.provenance.gaps[0].tolist() == [gap]


def test_gap_zero_reproduces_base():
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote(PAIR, params, PAIR_NEIGHBORS, rng=StubRng(0.0))
    assert batch.rows == [(6.0, 4.0), (4.0, 3.0)]


def test_count_t4_n200():
    rows = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    ds = minority(CONT2, rows)
    nbrs = knn_minority(ds, 3, EuclideanMetric(CONT2))
    batch = smote(ds, SmoteParams(n_percent=200, seed=7), nbrs)
    assert len(batch) == 8
    per_base = np.bincount(batch.provenance.base_index, minlength=4)
    assert per_base.tolist() == [2, 2, 2, 2]


def test_under_100_selects_distinct_bases():
    rows = [(float(i), 0.0) for i in range(10)]
    ds = minority(CONT2, rows)
    nbrs = knn_minority(ds, 2, EuclideanMetric(CONT2))
    batch = smote(ds, SmoteParams(n_percent=50, seed=3), nbrs)
    assert len(batch) == 5
    bases = batch.provenance.base_index.tolist()
    assert len(set(bases)) == 5


def test_zero_percent_yields_empty_batch():
    batch = smote(PAIR, SmoteParams(n_percent=0, seed=0), PAIR_NEIGHBORS)
    assert len(batch) == 0


def test_count_exactness_randomized():
    rng = np.random.default_rng(41)
    for _ in range(40):
        t = int(rng.integers(2, 50))
        n = int(rng.integers(0, 11)) * 50
        k = int(rng.integers(1, 8))
        rows = [tuple(map(float, rng.normal(size=2))) for _ in range(t)]
        ds = minority(CONT2, rows)
        nbrs = knn_minority(ds, k, EuclideanMetric(CONT2))
        batch = smote(ds, SmoteParams(n_percent=n, seed=int(rng.integers(1 << 30))), nbrs)
        if n < 100:
            expected = (n * t) // 100
        else:
            expected = (n // 100) * t
        assert len(batch) == expected


def test_segment_membership_shared_gap():
    rng = np.random.default_rng(42)
    rows = [tuple(map(float, rng.normal(size=3))) for _ in range(20)]
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(3)), "cls")
    ds = minority(schema, rows)
    nbrs = knn_minority(ds, 5, EuclideanMetric(schema))
    params = SmoteParams(n_percent=300, seed=9, gap_mode=SHARED)
    batch = smote(ds, params, nbrs)
    matrix = np.asarray(rows)
    prov = batch.provenance
    for row, b, j, (gap,) in zip(batch.rows, prov.base_index, prov.neighbor_index, prov.gaps):
        base = matrix[b]
        nb = matrix[j]
        expected = base + gap * (nb - base)
        for got, want in zip(row, expected):
            assert abs(got - want) <= math.ulp(want)
        assert j in nbrs[b]


def test_bounding_box_per_attribute_gap():
    rng = np.random.default_rng(43)
    rows = [tuple(map(float, rng.normal(size=4))) for _ in range(15)]
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(4)), "cls")
    ds = minority(schema, rows)
    nbrs = knn_minority(ds, 4, EuclideanMetric(schema))
    params = SmoteParams(n_percent=400, seed=10, gap_mode=PER_ATTRIBUTE)
    batch = smote(ds, params, nbrs)
    matrix = np.asarray(rows)
    prov = batch.provenance
    assert prov.gaps.shape == (len(batch), 4)
    for row, b, j in zip(batch.rows, prov.base_index, prov.neighbor_index):
        base = matrix[b]
        nb = matrix[j]
        for value, lo, hi in zip(row, np.minimum(base, nb), np.maximum(base, nb)):
            assert lo <= value <= hi


@pytest.mark.parametrize("gap_mode", [PER_ATTRIBUTE, SHARED])
def test_smote_memory_is_a_few_outputs(gap_mode):
    # the interpolation and the box clip run in place: no temporary the size
    # of the output beyond the base, neighbor, gap and lower-bound arrays
    rng = np.random.default_rng(44)
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(8)), "cls")
    ds = minority(schema, [tuple(row) for row in rng.normal(size=(200, 8)).tolist()])
    nbrs = knn_minority(ds, 5, EuclideanMetric(schema))
    params = SmoteParams(n_percent=4000, seed=11, gap_mode=gap_mode)
    tracemalloc.start()
    try:
        batch = smote(ds, params, nbrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = batch.data.cont.nbytes
    assert output == 8000 * 8 * 8
    assert peak <= 6 * output, peak / output


def random_minority(rng, t, n_cont, n_nom):
    """A minority of ``t`` rows: ``n_cont`` normal columns, then ``n_nom``
    nominal columns of five categories."""
    schema = FeatureSchema(
        tuple((f"x{i}", "continuous") for i in range(n_cont))
        + tuple((f"g{i}", "nominal") for i in range(n_nom)),
        "cls",
    )
    nominal = [list(map(str, rng.integers(0, 5, size=t).tolist())) for _ in range(n_nom)]
    return Dataset(schema, [*rng.normal(size=(n_cont, t)), *nominal], np.ones(t, dtype=bool))


def batch_bytes(batch):
    """Every array of a batch as bytes, so -0.0 and 0.0 differ."""
    prov = batch.provenance
    arrays = (batch.data.cont, batch.data.codes, prov.base_index, prov.neighbor_index, prov.gaps)
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("gap_mode", [PER_ATTRIBUTE, SHARED])
@pytest.mark.parametrize(
    "variant, n_cont, n_nom", [("smote", 3, 0), ("smote_nc", 3, 2), ("smote_n", 0, 3)]
)
def test_synthesis_in_chunks_equals_one_chunk(monkeypatch, variant, n_cont, n_nom, gap_mode):
    # 180 rows in chunks of 7, the last one short, against one chunk
    rng = np.random.default_rng(45)
    ds = random_minority(rng, 60, n_cont, n_nom)
    source = resample._synthesis_source(variant, ds, rng.integers(0, 60, size=(60, 4)))
    params = SmoteParams(300, seed=7, gap_mode=gap_mode)
    whole = batch_bytes(resample._synthesize(source, params, None))
    monkeypatch.setattr(distance, "_DIFF_BUDGET", 7 * 3 * max(1, n_cont))
    assert batch_bytes(resample._synthesize(source, params, None)) == whole


def test_synthesis_memory_is_its_outputs_and_one_budget():
    # 40,000 x 6 smote_nc, 4 continuous columns: the interpolation chunks
    # hold one budget of temporaries, not three arrays of the output's size
    # (7.3 budgets beyond the outputs with those); 0.84 on numpy 2.4
    rng = np.random.default_rng(46)
    t = 40_000
    ds = random_minority(rng, t, 4, 2)
    source = resample._synthesis_source("smote_nc", ds, rng.integers(0, t, size=(t, 5)))
    params = SmoteParams(100, seed=3)
    resample._synthesize(source, params, None)
    tracemalloc.start()
    try:
        batch = resample._synthesize(source, params, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prov = batch.provenance
    outputs = sum(
        a.nbytes
        for a in (batch.data.cont, batch.data.codes, batch.data.minority)
        + (prov.base_index, prov.neighbor_index, prov.gaps)
    )
    budget = distance._DIFF_BUDGET * 8
    assert peak <= outputs + 1.25 * budget, (peak - outputs) / budget


# The schema shape of each variant's test data: (continuous, nominal) columns.
_COLUMNS = {"smote": (3, 0), "smote_nc": (3, 2), "smote_n": (0, 3), "replicate": (3, 2)}
_SYNTHESIZE = {"smote": smote, "smote_nc": smote_nc, "smote_n": smote_n}


def random_split(rng, n_min, n_maj, variant):
    """A training split of the variant's shape, minority rows spread among
    the majority rows."""
    ds = random_minority(rng, n_min + n_maj, *_COLUMNS[variant])
    return ds.with_blocks(ds.cont, ds.codes, rng.permutation(np.arange(n_min + n_maj) < n_min))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_percent", [0, 1, 50, 99, 100, 150, 300, 4000])
def test_every_variant_makes_the_synthetic_count(variant, n_percent):
    rng = np.random.default_rng(47)
    for t in (2, 7, 400):
        ds = random_minority(rng, t, *_COLUMNS[variant])
        if variant == "replicate":
            batch = replicate_oversample(ds, n_percent, seed=3)
        else:
            batch = _SYNTHESIZE[variant](ds, SmoteParams(n_percent, seed=3), rng.integers(0, t, size=(t, 2)))
        assert len(batch) == len(batch.provenance) == resample._synthetic_count(n_percent, t)


@pytest.mark.parametrize("under_basis", ["pre", "post"])
@pytest.mark.parametrize("under", [None, 100])
@pytest.mark.parametrize("over", [0, 50, 300])
@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_is_the_public_batch_in_one_read_only_block(variant, over, under, under_basis):
    rng = np.random.default_rng(48)
    train = random_split(rng, 30, 60, variant)
    minority = train.minority_subset()
    seed = 5
    if variant == "replicate":
        want = replicate_oversample(minority, over, seed=child_seed(seed, "over"))
        source = None
    else:
        source = synthesis_source(train, 3, variant)
        want = _SYNTHESIZE[variant](minority, SmoteParams(over, seed=child_seed(seed, "over")), source[1])
    # a given source and one searched in the call
    result = apply_plan_detailed(
        train, over, under, 3, seed, variant, under_basis=under_basis, source=source if under else None
    )
    batch = result.batch
    assert batch_bytes(batch) == batch_bytes(want)
    assert batch.data == want.data and len(batch) == resample._synthetic_count(over, 30)
    got, oracle = result.dataset, concatenated_plan(train, result)
    assert got == oracle and got.cont.tobytes() == oracle.cont.tobytes()
    kinds = ("cont", "codes", "minority")
    for kind in kinds:
        part = getattr(batch.data, kind)
        if part.size:
            assert np.shares_memory(part, getattr(got, kind)), kind
    for block in [getattr(ds, kind) for ds in (got, batch.data) for kind in kinds]:
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 0


def test_plan_memory_is_its_outputs_and_under_one_and_a_half_budgets():
    # augment_write's shape: 400 / 800 rows, 6 continuous and 4 nominal
    # columns, 4000 % smote_nc. The synthetic rows are written into the set's
    # blocks, not built apart and copied in: 2.6 budgets beyond the outputs
    # when they were, 1.35 on numpy 2.4
    rng = np.random.default_rng(49)
    train = random_minority(rng, 1200, 6, 4)
    train = train.with_blocks(train.cont, train.codes, np.arange(1200) < 400)
    source = synthesis_source(train, 5, "smote_nc")
    apply_plan_detailed(train, 4000, None, 5, 11, "smote_nc", source=source)
    tracemalloc.start()
    try:
        result = apply_plan_detailed(train, 4000, None, 5, 11, "smote_nc", source=source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prov, ds = result.batch.provenance, result.dataset
    outputs = sum(
        a.nbytes
        for a in (ds.cont, ds.codes, ds.minority, result.retained_majority)
        + (prov.base_index, prov.neighbor_index, prov.gaps)
    )
    budget = distance._DIFF_BUDGET * 8
    assert peak <= outputs + 1.5 * budget, (peak - outputs) / budget


def test_distinct_neighbor_mode_avoids_repeats_within_k():
    rows = [(float(i), float(i % 3)) for i in range(8)]
    ds = minority(CONT2, rows)
    nbrs = knn_minority(ds, 5, EuclideanMetric(CONT2))
    params = SmoteParams(
        n_percent=400, seed=11, neighbor_mode=DISTINCT
    )
    batch = smote(ds, params, nbrs)
    seen = {}
    prov = batch.provenance
    for b, j in zip(prov.base_index.tolist(), prov.neighbor_index.tolist()):
        seen.setdefault(b, []).append(j)
    for base, picks in seen.items():
        # 4 rows per base from 5 candidates: all picks distinct
        assert len(set(picks)) == len(picks)


def test_distinct_neighbor_mode_cycles_when_count_exceeds_k():
    rows = [(float(i), 0.0) for i in range(4)]
    ds = minority(CONT2, rows)
    nbrs = knn_minority(ds, 2, EuclideanMetric(CONT2))
    params = SmoteParams(n_percent=500, seed=12, neighbor_mode=DISTINCT)
    batch = smote(ds, params, nbrs)
    seen = {}
    prov = batch.provenance
    for b, j in zip(prov.base_index.tolist(), prov.neighbor_index.tolist()):
        seen.setdefault(b, []).append(j)
    for base, picks in seen.items():
        assert len(picks) == 5
        # 5 picks from 2 candidates: each candidate appears at least twice
        counts = {p: picks.count(p) for p in set(picks)}
        assert sorted(counts.values()) in ([2, 3], [5])


def test_smote_rejects_nominal_rows():
    nominal = FeatureSchema((("g1", "nominal"), ("g2", "nominal")), "cls")
    with pytest.raises(ValueError, match="continuous"):
        smote(
            minority(nominal, [("A", "B"), ("C", "D")]), SmoteParams(100, seed=0), PAIR_NEIGHBORS
        )


def test_smote_rejects_single_row():
    with pytest.raises(ValueError, match="at least 2"):
        smote(minority(CONT2, [(1.0, 2.0)]), SmoteParams(100, seed=0), ((0,),))


def test_smote_rejects_mismatched_neighbor_list():
    with pytest.raises(ValueError, match="neighbor list"):
        smote(PAIR, SmoteParams(100, seed=0), ((1,), (0,), (0,)))


def test_smote_rejects_one_dimensional_neighbor_lists():
    with pytest.raises(ValueError, match=r"^neighbor lists have shape \(2,\), expected \(2, w\)"):
        smote(PAIR, SmoteParams(100, seed=0), (1, 0))


@pytest.mark.parametrize("mode", NEIGHBOR_MODES)
@pytest.mark.parametrize("synthesize, ds", [(smote, PAIR), (smote_nc, None)], ids=["smote", "smote_nc"])
def test_interpolation_rejects_empty_neighbor_lists(synthesize, ds, mode):
    # a (T, 0) list leaves nothing to interpolate toward; smote_n's vote
    # needs no neighbor, so only the interpolating variants reject it
    ds = ds or _nc_dataset(["A"])
    empty = np.empty((2, 0), dtype=np.intp)
    with pytest.raises(ValueError, match=r"^neighbor lists have shape \(2, 0\), expected \(2, w\) with w >= 1$"):
        synthesize(ds, SmoteParams(100, seed=0, neighbor_mode=mode), empty)
    batch = smote_n(minority(NOM1, [("A",), ("B",)]), SmoteParams(100, seed=0, neighbor_mode=mode), empty)
    assert batch.rows == [("A",), ("B",)]


@pytest.mark.parametrize(
    "lists, dtype",
    [
        (((1.9,), (0.7,)), "float64"),
        (np.array([[1.0], [0.0]]), "float64"),
        (((True,), (False,)), "bool"),
        ((("1",), ("0",)), "<U1"),
    ],
    ids=["fractional", "integral-float", "bool", "text"],
)
@pytest.mark.parametrize(
    "synthesize, ds",
    [(smote, PAIR), (smote_nc, None), (smote_n, None)],
    ids=["smote", "smote_nc", "smote_n"],
)
def test_synthesis_rejects_non_integer_neighbor_lists(synthesize, ds, lists, dtype):
    # a cast would truncate 1.9 to 1 and read True as 1; the lists must
    # already hold integers
    ds = ds or (_nc_dataset(["A"]) if synthesize is smote_nc else minority(NOM1, [("A",), ("B",)]))
    with pytest.raises(ValueError, match=rf"^neighbor lists must hold integers, got {dtype}$"):
        synthesize(ds, SmoteParams(100, seed=0), lists)


def test_empty_neighbor_lists_read_as_float_reach_the_width_check():
    # numpy reads ((), ()) as a float64 (2, 0) array; an empty list holds no
    # value to reject, so the width check decides
    message = r"^neighbor lists have shape \(2, 0\), expected \(2, w\) with w >= 1$"
    assert np.asarray(((), ())).dtype == np.float64
    with pytest.raises(ValueError, match=message):
        smote(PAIR, SmoteParams(100, seed=0), ((), ()))
    with pytest.raises(ValueError, match=message):
        smote_nc(_nc_dataset(["A"]), SmoteParams(100, seed=0), ((), ()))
    batch = smote_n(minority(NOM1, [("A",), ("B",)]), SmoteParams(100, seed=0), ((), ()))
    assert batch.rows == [("A",), ("B",)]


def test_smote_determinism():
    rng = np.random.default_rng(44)
    rows = [tuple(map(float, rng.normal(size=2))) for _ in range(12)]
    ds = minority(CONT2, rows)
    nbrs = knn_minority(ds, 3, EuclideanMetric(CONT2))
    a = smote(ds, SmoteParams(300, seed=77), nbrs)
    b = smote(ds, SmoteParams(300, seed=77), nbrs)
    c = smote(ds, SmoteParams(300, seed=78), nbrs)
    assert a.rows == b.rows
    for column in ("base_index", "neighbor_index", "gaps"):
        assert np.array_equal(getattr(a.provenance, column), getattr(b.provenance, column))
    assert a.rows != c.rows


def _nc_dataset(nominals, base_value="B"):
    """Minority-only mixed dataset: row 0 is the base, the rest its neighbors."""
    rows = [(0.0, base_value)] + [(float(i + 1), v) for i, v in enumerate(nominals)]
    labels = tuple([MINORITY] * len(rows))
    return dataset_from_rows(MIXED, tuple(rows), labels)


def _full_lists(t):
    return tuple(tuple(j for j in range(t) if j != i) for i in range(t))


def test_nc_vote_tie_skips_base_when_not_leading():
    # neighbor values A,A,B,C,C: A and C tie at 2, base holds B, so the
    # earliest-interned leader wins; intern order here is B,A,C
    ds = _nc_dataset(["A", "A", "B", "C", "C"])
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote_nc(ds, params, _full_lists(6), rng=StubRng(0.25))
    assert batch.rows[0][1] == "A"


def test_nc_vote_unanimous():
    ds = _nc_dataset(["Q", "Q", "Q"])
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote_nc(ds, params, _full_lists(4), rng=StubRng(0.5))
    assert batch.rows[0][1] == "Q"


def test_nc_vote_excludes_base():
    # single neighbor holds A; were the base's own B counted, the tie rule
    # would keep B
    ds = _nc_dataset(["A"])
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote_nc(ds, params, ((1,), (0,)), rng=StubRng(0.0))
    assert batch.rows[0][1] == "A"


def test_nc_vote_tie_prefers_base_value():
    ds = _nc_dataset(["A", "B"])
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote_nc(ds, params, _full_lists(3), rng=StubRng(0.0))
    assert batch.rows[0][1] == "B"


def test_nc_continuous_part_interpolates():
    rows = ((6.0, 4.0, "A"), (4.0, 3.0, "A"))
    schema = FeatureSchema(
        (("f1", "continuous"), ("f2", "continuous"), ("c", "nominal")), "cls"
    )
    ds = dataset_from_rows(schema, rows, (MINORITY, MINORITY))
    params = SmoteParams(n_percent=100, seed=0, gap_mode=SHARED)
    batch = smote_nc(ds, params, ((1,), (0,)), rng=StubRng(0.5))
    assert batch.rows[0] == (5.0, 3.5, "A")


def test_nc_rejects_all_nominal_schema():
    schema = FeatureSchema((("c", "nominal"),), "cls")
    ds = dataset_from_rows(schema, (("A",), ("B",)), (MINORITY, MINORITY))
    with pytest.raises(ValueError, match="smote_n"):
        smote_nc(ds, SmoteParams(100, seed=0), ((1,), (0,)))


def test_nc_rejects_majority_rows():
    ds = dataset_from_rows(
        MIXED,
        ((0.0, "A"), (1.0, "B")),
        (MINORITY, MAJORITY),
    )
    with pytest.raises(ValueError, match="minority-only"):
        smote_nc(ds, SmoteParams(100, seed=0), ((1,), (0,)))


NOM5 = FeatureSchema(tuple((f"g{i}", "nominal") for i in range(5)), "cls")
NOM2 = FeatureSchema((("g0", "nominal"), ("g1", "nominal")), "cls")
NOM1 = FeatureSchema((("g0", "nominal"),), "cls")


def test_smote_n_worked_vote():
    rows = [
        ("A", "B", "C", "D", "E"),
        ("A", "F", "C", "G", "N"),
        ("H", "B", "C", "D", "N"),
    ]
    ds = minority(NOM5, rows)
    params = SmoteParams(n_percent=100, seed=0)
    batch = smote_n(ds, params, _full_lists(3))
    assert batch.rows[0] == ("A", "B", "C", "D", "N")
    assert batch.provenance.base_index[0] == 0
    assert batch.provenance.neighbor_index[0] == 0
    assert batch.provenance.gaps[0].tolist() == []


def test_smote_n_unanimous():
    ds = minority(NOM2, [("A", "B")] * 3)
    batch = smote_n(ds, SmoteParams(100, seed=0), _full_lists(3))
    assert all(r == ("A", "B") for r in batch.rows)


def test_smote_n_tie_keeps_base_value():
    ds = minority(NOM1, [("A",), ("B",)])
    batch = smote_n(ds, SmoteParams(100, seed=0), ((1,), (0,)))
    assert batch.rows[0] == ("A",)
    assert batch.rows[1] == ("B",)


def test_smote_n_deterministic_rows_per_base():
    ds = minority(NOM2, [("A", "B"), ("A", "C"), ("D", "C")])
    batch = smote_n(ds, SmoteParams(300, seed=5), _full_lists(3))
    assert len(batch) == 9
    by_base = {}
    for row, b in zip(batch.rows, batch.provenance.base_index.tolist()):
        by_base.setdefault(b, set()).add(row)
    assert all(len(v) == 1 for v in by_base.values())


def test_smote_n_rejects_continuous():
    with pytest.raises(ValueError, match="nominal"):
        smote_n(
            minority(FeatureSchema((("x", "continuous"),), "cls"), [(1.0,), (2.0,)]),
            SmoteParams(100, seed=0),
            ((1,), (0,)),
        )


def test_replicate_membership_and_count():
    rows = [(float(i), float(i)) for i in range(5)]
    ds = minority(CONT2, rows)
    batch = replicate_oversample(ds, 100, seed=1)
    assert len(batch) == 5
    assert all(r in rows for r in batch.rows)
    prov = batch.provenance
    assert np.array_equal(prov.base_index, prov.neighbor_index)
    assert prov.gaps.tolist() == [[0.0]] * 5
    for row, b in zip(batch.rows, prov.base_index.tolist()):
        assert row == rows[b]
    assert len(replicate_oversample(ds, 0, seed=1)) == 0
    assert len(replicate_oversample(ds.subset(range(4)), 250, seed=1)) == 8


@pytest.mark.parametrize("n_percent, t", [(50, 10), (1, 250)])
def test_replicate_under_100_copies_as_many_distinct_rows_as_smote_makes(n_percent, t):
    rows = [(float(i), -float(i)) for i in range(t)]
    ds = minority(CONT2, rows)
    batch = replicate_oversample(ds, n_percent, seed=3)
    assert len(batch) == n_percent * t // 100
    picks = batch.provenance.base_index.tolist()
    assert len(set(picks)) == len(picks)
    assert batch.rows == [rows[b] for b in picks]
    # the bases SMOTE draws from the same substream
    knn = knn_minority(ds, 1, EuclideanMetric(CONT2))
    made = smote(ds, SmoteParams(n_percent, seed=3), knn, rng=generator(3, "replicate"))
    assert made.provenance.base_index.tolist() == picks


def test_under_sample_worked_percentages():
    majority = list(range(100, 300))
    assert len(under_sample(majority, 50, 200, seed=1)) == 25
    assert len(under_sample(majority, 50, 100, seed=1)) == 50
    capped = under_sample(majority, 50, 10, seed=1).tolist()
    assert capped == majority


def test_under_sample_rounding_ties_to_even():
    majority = list(range(50))
    # 100*5/200 = 2.5 rounds to 2; 100*15/200 = 7.5 rounds to 8
    assert len(under_sample(majority, 5, 200, seed=2)) == 2
    assert len(under_sample(majority, 15, 200, seed=2)) == 8


def test_under_sample_sorted_subset_and_deterministic():
    majority = list(range(0, 400, 2))
    a = under_sample(majority, 30, 150, seed=5).tolist()
    b = under_sample(majority, 30, 150, seed=5).tolist()
    c = under_sample(majority, 30, 150, seed=6).tolist()
    assert a == b
    assert a != c
    assert a == sorted(a)
    assert set(a) <= set(majority)
    assert len(set(a)) == len(a) == 20


def test_replicate_and_under_sample_reject_bad_counts():
    ds = _plan_dataset(4, 8).minority_subset()
    with pytest.raises(ValueError, match="^n_percent must be non-negative, got -100$"):
        replicate_oversample(ds, -100)
    with pytest.raises(ValueError, match="^need at least 1 minority row$"):
        replicate_oversample(ds.subset([]), 100)
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"^minority_count must be positive, got {count}$"):
            under_sample(range(10), count, 100)


def _plan_dataset(n_min=50, n_maj=200):
    rng = np.random.default_rng(45)
    rows = tuple(tuple(map(float, rng.normal(size=2))) for _ in range(n_min + n_maj))
    labels = tuple(
        MINORITY if i < n_min else MAJORITY
        for i in range(n_min + n_maj)
    )
    return dataset_from_rows(CONT2, rows, labels)


def test_apply_plan_pure_balancing():
    ds = _plan_dataset()
    out = apply_plan_detailed(ds, 0, 100, k=5, seed=1).dataset
    assert out.n_minority == 50
    assert out.n_majority == 50


def test_apply_plan_under_basis_pre_and_post():
    ds = _plan_dataset()
    pre = apply_plan_detailed(ds, 100, 100, k=5, seed=1, under_basis="pre").dataset
    assert pre.n_minority == 100
    assert pre.n_majority == 50
    post = apply_plan_detailed(ds, 100, 100, k=5, seed=1, under_basis="post").dataset
    assert post.n_minority == 100
    assert post.n_majority == 100


def test_apply_plan_noop_preserves_content():
    ds = _plan_dataset(10, 30)
    out = apply_plan_detailed(ds, 0, None, k=5, seed=1).dataset
    assert sorted(zip(out.rows, out.minority.tolist()), key=repr) == sorted(
        zip(ds.rows, ds.minority.tolist()), key=repr
    )


def test_apply_plan_builds_the_training_minority_once(monkeypatch):
    # the neighbor search reads the minority apply_plan_detailed built
    calls = []
    build = Dataset.minority_subset

    def counted(ds):
        calls.append(len(ds))
        return build(ds)

    monkeypatch.setattr(Dataset, "minority_subset", counted)
    ds = _plan_dataset(10, 40)
    for variant in ("smote", "replicate"):
        calls.clear()
        apply_plan_detailed(ds, 200, 100, k=3, seed=2, variant=variant)
        assert calls == [50]


def test_apply_plan_reads_a_given_source(monkeypatch):
    # the source's rows stand in for the training minority: no search, no
    # vote and no minority slice is built again, and the result is the same
    ds = _plan_dataset(10, 40)
    source = synthesis_source(ds, 3, "smote")
    want = {
        variant: apply_plan_detailed(ds, 200, 100, k=3, seed=2, variant=variant).dataset
        for variant in ("smote", "replicate")
    }
    thin = resample._synthesis_source("smote", source[0].subset(np.arange(9)), ((1,),) * 9)
    monkeypatch.setattr(resample, "knn_minority", None)
    monkeypatch.setattr(resample, "_vote", None)
    monkeypatch.setattr(Dataset, "minority_subset", None)
    for variant in ("smote", "replicate"):
        got = apply_plan_detailed(ds, 200, 100, k=3, seed=2, variant=variant, source=source)
        assert got.dataset == want[variant]
    with pytest.raises(ValueError, match="^source has 9 minority rows, train has 10$"):
        apply_plan_detailed(ds, 200, 100, k=3, seed=2, source=thin)


def test_apply_plan_row_order_and_detail():
    ds = _plan_dataset(10, 40)
    result = apply_plan_detailed(ds, 200, 100, k=3, seed=2)
    out = result.dataset
    minority_rows = [ds.rows[i] for i in ds.minority_indices()]
    assert list(out.rows[:10]) == minority_rows
    assert list(out.rows[10:30]) == list(result.batch.rows)
    assert [ds.rows[i] for i in result.retained_majority] == list(out.rows[30:])
    assert out.minority[:30].all()
    assert not out.minority[30:].any()
    audit_batch(result.batch, 10)


def test_apply_plan_replicate_variant():
    ds = _plan_dataset(10, 40)
    out = apply_plan_detailed(ds, 300, None, k=3, seed=2, variant="replicate").dataset
    assert out.n_minority == 40
    assert out.n_majority == 40
    originals = set(ds.rows[i] for i in ds.minority_indices())
    assert all(r in originals for r in out.rows[:40])


def test_apply_plan_rejects_unknown_variant():
    ds = _plan_dataset(4, 8)
    with pytest.raises(ValueError, match="variant"):
        apply_plan_detailed(ds, 100, None, k=1, seed=0, variant="mystery")


def test_apply_plan_rejects_a_bad_basis_or_amount():
    ds = _plan_dataset(4, 8)
    with pytest.raises(ValueError, match="^under_basis must be 'pre' or 'post', got 'mid'$"):
        apply_plan_detailed(ds, 100, 100, k=1, seed=0, under_basis="mid")
    with pytest.raises(ValueError, match="^over_percent must be non-negative, got -100$"):
        apply_plan_detailed(ds, -100, None, k=1, seed=0)


def test_apply_plan_rejects_wrong_schema_for_variant():
    ds = _plan_dataset(4, 8)
    with pytest.raises(ValueError, match="mixed"):
        apply_plan_detailed(ds, 100, None, k=1, seed=0, variant="smote_nc")
    with pytest.raises(ValueError, match="nominal"):
        apply_plan_detailed(ds, 100, None, k=1, seed=0, variant="smote_n")


def _assert_fold_source(source, train, k, variant):
    """``source`` is what one cell that searches and votes on ``train``
    alone builds: the same minority slice, lists and votes."""
    minority = train.minority_subset()
    want = synthesis_source(train, k, variant)
    assert len(source) == 3
    assert source[0] == minority
    assert source[1].tolist() == want[1].tolist()
    assert source[2].tolist() == want[2].tolist()
    return source[1]


def fold_sources(ds, folds, k, variant):
    """The source of every fold that ``resample._fold_sources`` yields, in
    fold order, each checked to come with its fold's training split."""
    sources = []
    for f, split, source in resample._fold_sources(ds, folds, k, variant):
        assert split == ds.subset(np.flatnonzero(folds != f))
        sources.append(source)
    return sources


def test_fold_neighbors_shares_lists_for_smote_alone():
    ds = _plan_dataset(12, 24)
    folds = np.arange(len(ds)) % 3
    shared = fold_sources(ds, folds, 3, "smote")
    for f, source in enumerate(shared):
        _assert_fold_source(source, ds.subset(np.flatnonzero(folds != f)), 3, "smote")
    # 3 minority rows over 3 folds leave 2 in each training fold; 2 folds leave 1
    thin = _plan_dataset(3, 6)
    assert all(source is not None for source in fold_sources(thin, np.arange(9) % 3, 3, "smote"))
    assert fold_sources(thin, np.array([0, 1, 1] * 3), 3, "smote")[1] is None
    with pytest.raises(ValueError, match="^smote takes all-continuous features, got mixed"):
        fold_sources(minority(MIXED, [(0.0, "A"), (1.0, "B")]), np.array([0, 1]), 1, "smote")


def _tied_nominal_dataset(n_min, n_maj, seed=8):
    """All-nominal rows over two categories per feature: many duplicate rows
    and many tied VDM distances."""
    rng = np.random.default_rng(seed)
    rows = [tuple(rng.choice(["a", "b"], size=2).tolist()) for _ in range(n_min + n_maj)]
    return dataset_from_rows(NOM2, rows, (MINORITY,) * n_min + (MAJORITY,) * n_maj)


def test_fold_neighbors_searches_each_smote_n_fold():
    ds = _tied_nominal_dataset(20, 40)
    folds = np.arange(len(ds)) % 4
    per_fold = fold_sources(ds, folds, 3, "smote_n")
    assert len(per_fold) == 4
    for f, source in enumerate(per_fold):
        _assert_fold_source(source, ds.subset(np.flatnonzero(folds != f)), 3, "smote_n")
    for variant in ("smote_nc", "replicate"):
        assert fold_sources(ds, folds, 3, variant) == [None] * 4
    # fold 1 holds out 2 of the 3 minority rows, leaving its training minority 1
    thin = _tied_nominal_dataset(3, 9)
    thin_folds = np.array([0, 1, 1] + [0, 1] * 4 + [0])
    sources = fold_sources(thin, thin_folds, 2, "smote_n")
    assert sources[0] is not None and sources[1] is None
    # the cell that needs the thin fold's source raises on its own call
    with pytest.raises(DataError, match="training minority has 1 row"):
        apply_plan_detailed(
            thin.subset(np.flatnonzero(thin_folds != 1)), 100, None, 2, 0, "smote_n", source=sources[1]
        )
    mixed = dataset_from_rows(MIXED, [(0.0, "A"), (1.0, "B")] * 2, (MINORITY, MAJORITY) * 2)
    with pytest.raises(ValueError, match="^smote_n takes all-nominal features, got mixed features$"):
        fold_sources(mixed, np.array([0, 0, 1, 1]), 1, "smote_n")


SHAPED_ROWS = {
    "all-continuous": (CONT2, [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0)]),
    "mixed": (MIXED, [(0.0, "A"), (1.0, "B"), (2.0, "A")]),
    "all-nominal": (NOM2, [("A", "B"), ("A", "C"), ("D", "C")]),
}


@pytest.mark.parametrize(
    "variant, empty",
    [
        pytest.param(variant, empty, id=f"{variant}-{name}")
        for variant in VARIANTS
        for empty, name in enumerate(("first", "middle", "last"))
    ],
)
def test_fold_neighbors_gives_every_fold_an_entry(variant, empty):
    # rows 0-3 are minority and fold ``empty`` holds majority rows only, so
    # its training minority is the whole minority
    shape = {"smote_nc": "mixed", "smote_n": "all-nominal"}.get(variant, "all-continuous")
    schema, rows = SHAPED_ROWS[shape]
    ds = dataset_from_rows(schema, tuple([*rows, rows[0]] * 2), (MINORITY,) * 4 + (MAJORITY,) * 4)
    a, b = (f for f in range(3) if f != empty)
    folds = np.array([a, b, a, b, 0, 1, 2, empty])
    per_fold = fold_sources(ds, folds, 2, variant)
    assert len(per_fold) == 3
    for f, source in enumerate(per_fold):
        if variant in ("smote_nc", "replicate"):
            assert source is None
            continue
        train = ds.subset(np.flatnonzero(folds != f))
        lists = _assert_fold_source(source, train, 2, variant)
        for got in (lists, synthesis_source(train, 2, variant)[1]):
            assert got.dtype == np.intp and not got.flags.writeable
            assert got.shape == ((4, 2) if f == empty else (2, 1))


@pytest.mark.parametrize("shape", SHAPED_ROWS)
@pytest.mark.parametrize(
    "variant, synthesize, takes",
    [
        ("smote", smote, "all-continuous"),
        ("smote_nc", smote_nc, "mixed"),
        ("smote_n", smote_n, "all-nominal"),
    ],
    ids=["smote", "smote_nc", "smote_n"],
)
def test_each_variant_takes_one_schema_shape(variant, synthesize, takes, shape):
    schema, rows = SHAPED_ROWS[shape]
    train = dataset_from_rows(schema, tuple(rows) * 2, (MINORITY,) * 3 + (MAJORITY,) * 3)
    params = SmoteParams(100, seed=0)
    if shape == takes:
        assert len(synthesize(train.minority_subset(), params, _full_lists(3))) == 3
        assert len(apply_plan_detailed(train, 100, None, k=2, seed=0, variant=variant).batch) == 3
        return
    message = f"^{variant} takes {takes} features, got {shape} features$"
    with pytest.raises(ValueError, match=message):
        synthesize(train.minority_subset(), params, _full_lists(3))
    with pytest.raises(ValueError, match=message):
        apply_plan_detailed(train, 100, None, k=2, seed=0, variant=variant)


SHAPE_OF = {"smote": "all-continuous", "smote_nc": "mixed", "smote_n": "all-nominal"}


@pytest.mark.parametrize("call", VARIANTS)
@pytest.mark.parametrize("made", SHAPE_OF)
def test_a_given_source_does_not_skip_the_shape_check(made, call):
    # the source's variant takes train's shape; a call of another synthesis
    # variant raises as it does with no source, but not at over 0, where
    # nothing is synthesized (undersample runs smote there on any schema)
    shape = SHAPE_OF[made]
    schema, rows = SHAPED_ROWS[shape]
    train = dataset_from_rows(schema, tuple(rows) * 2, (MINORITY,) * 3 + (MAJORITY,) * 3)
    source = synthesis_source(train, 2, made)
    for over in (0, 100):
        plan = dict(over_percent=over, under_percent=None, k=2, seed=0, variant=call)
        if over and call not in (made, "replicate"):
            message = f"^{call} takes {SHAPE_OF[call]} features, got {shape} features$"
            for given in (None, source):
                with pytest.raises(ValueError, match=message):
                    apply_plan_detailed(train, **plan, source=given)
            continue
        want = apply_plan_detailed(train, **plan)
        got = apply_plan_detailed(train, **plan, source=source)
        assert got.dataset == want.dataset and len(got.batch) == 3 * (over // 100)


@pytest.mark.parametrize("variant", ["replicate", "mystery"])
def test_synthesis_source_takes_the_three_synthesis_variants(variant):
    message = f"^synthesis_source takes smote, smote_nc or smote_n, got '{variant}'$"
    with pytest.raises(ValueError, match=message):
        synthesis_source(_plan_dataset(10, 40), 3, variant)


def test_fold_sources_search_each_fold_when_the_whole_minority_spreads_too_far():
    # one far minority row overflows the whole minority's squared spread but
    # not that of the training fold that holds it out
    ds = _plan_dataset(12, 24)
    folds = np.arange(len(ds)) % 3
    far = ds.minority_indices()[0]
    cont = ds.cont.copy()
    cont[far, 0] = 1e200
    ds = ds.with_blocks(cont, ds.codes, ds.minority)
    with pytest.raises(DataError, match="spread too far"):
        synthesis_source(ds, 3, "smote")
    sources = fold_sources(ds, folds, 3, "smote")
    for f, source in enumerate(sources):
        if f == folds[far]:
            _assert_fold_source(source, ds.subset(np.flatnonzero(folds != f)), 3, "smote")
        else:
            assert source is None


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "T"])
@pytest.mark.parametrize(
    "variant, synthesize, shape",
    [
        ("smote", smote, "all-continuous"),
        ("smote_nc", smote_nc, "mixed"),
        ("smote_n", smote_n, "all-nominal"),
    ],
    ids=["smote", "smote_nc", "smote_n"],
)
def test_synthesis_rejects_neighbor_index_outside_minority(variant, synthesize, shape, bad):
    schema, rows = SHAPED_ROWS[shape]
    train = dataset_from_rows(schema, tuple(rows) * 2, (MINORITY,) * 3 + (MAJORITY,) * 3)
    # the first index outside [0, 3) in row order is named, not the later 7
    neighbors = ((1,), (bad,), (7,))
    message = rf"^neighbor index {bad} outside \[0, 3\)$"
    with pytest.raises(ValueError, match=message):
        synthesize(train.minority_subset(), SmoteParams(100, seed=1), neighbors)
    with pytest.raises(ValueError, match=message):
        resample._synthesis_source(variant, train.minority_subset(), neighbors)


def test_apply_plan_determinism():
    ds = _plan_dataset(20, 60)
    a = apply_plan_detailed(ds, 200, 150, k=5, seed=123).dataset
    b = apply_plan_detailed(ds, 200, 150, k=5, seed=123).dataset
    assert a == b


def _shifted(column, value):
    """A provenance fault: ``value`` in place of entry 0 of ``column``."""

    def fault(prov):
        broken = getattr(prov, column).copy()
        broken[0] = value
        columns = {name: getattr(prov, name) for name in ("base_index", "neighbor_index", "gaps")}
        columns[column] = broken
        return Provenance(**columns)

    return fault


@pytest.mark.parametrize(
    "fault, message",
    [
        (_shifted("base_index", 2), "outside"),
        (_shifted("neighbor_index", -1), "outside"),
        (_shifted("gaps", 1.0), "outside"),
        (_shifted("gaps", -0.25), "outside"),
        (
            lambda prov: Provenance(
                base_index=prov.base_index[:1],
                neighbor_index=prov.neighbor_index[:1],
                gaps=prov.gaps[:1],
            ),
            "provenance",
        ),
    ],
    ids=["base-past-pool", "negative-neighbor", "gap-one", "negative-gap", "short"],
)
def test_audit_batch_rejects_foreign_indices(fault, message):
    batch = smote(PAIR, SmoteParams(100, seed=0), PAIR_NEIGHBORS, rng=StubRng(0.5))
    audit_batch(batch, 2)
    batch.provenance = fault(batch.provenance)
    with pytest.raises(DataError, match=message):
        audit_batch(batch, 2)


def test_write_provenance_jsonl(tmp_path):
    batch = smote(
        PAIR,
        SmoteParams(100, seed=0, gap_mode=SHARED),
        PAIR_NEIGHBORS,
        rng=StubRng(0.25),
    )
    path = tmp_path / "prov.jsonl"
    write_provenance(path, batch, "smote")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "base_index": 0,
        "gap": 0.25,
        "neighbor_index": 1,
        "variant": "smote",
    }


def test_smote_params_validation():
    with pytest.raises(ValueError):
        SmoteParams(-1, seed=0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        knn_minority(PAIR, 0, EuclideanMetric(CONT2))
    with pytest.raises(ValueError):
        SmoteParams(100, seed=0, gap_mode="sometimes")
    with pytest.raises(ValueError):
        SmoteParams(100, seed=0, neighbor_mode="psychic")
    with pytest.raises(ValueError, match="percent must be positive"):
        under_sample([1, 2], 1, 0, seed=1)


def _expected_vote(values, base_value, first_seen):
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    top = max(counts.values())
    leaders = [value for value, count in counts.items() if count == top]
    if base_value in leaders:
        return base_value
    return min(leaders, key=first_seen.index)


@st.composite
def _minority_sets(draw):
    """(shape, schema, minority rows, majority rows) for one of the three
    schema shapes, with few categories and coarse floats so votes tie and
    coordinates coincide."""
    shape = draw(st.sampled_from(["continuous", "mixed", "nominal"]))
    n_cont = 0 if shape == "nominal" else draw(st.integers(1, 3))
    n_nom = 0 if shape == "continuous" else draw(st.integers(1, 3))
    kinds = draw(st.permutations(["continuous"] * n_cont + ["nominal"] * n_nom))
    schema = FeatureSchema(tuple((f"f{i}", kind) for i, kind in enumerate(kinds)), "cls")
    cell = {
        "continuous": st.integers(-4, 4).map(lambda v: v / 2),
        "nominal": st.sampled_from("ABC"),
    }
    row = st.tuples(*(cell[kind] for kind in kinds))
    t = draw(st.integers(2, 8))
    pool = draw(st.lists(row, min_size=t, max_size=t))
    majority = draw(st.lists(row, min_size=1, max_size=3))
    return shape, schema, pool, majority


@settings(max_examples=150, deadline=None)
@given(
    data=_minority_sets(),
    gap_mode=st.sampled_from([PER_ATTRIBUTE, SHARED]),
    neighbor_mode=st.sampled_from([WITH_REPLACEMENT, DISTINCT]),
    # 500 and 900 take more picks per base than any list here holds (w <= 4)
    n_percent=st.sampled_from([50, 100, 300, 500, 900]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesis_count_box_and_vote_properties(
    data, gap_mode, neighbor_mode, n_percent, k, seed
):
    shape, schema, pool, majority = data
    t = len(pool)
    params = SmoteParams(
        n_percent=n_percent, seed=seed, gap_mode=gap_mode, neighbor_mode=neighbor_mode
    )
    if shape == "continuous":
        ds = minority(schema, pool)
        nbrs = knn_minority(ds, k, EuclideanMetric(schema))
        batch = smote(ds, params, nbrs)
        vote_pool = pool
    elif shape == "mixed":
        ds = minority(schema, pool)
        med = compute_med(ds)
        nbrs = knn_minority(ds, k, NcMetric(schema, med))
        batch = smote_nc(ds, params, nbrs)
        vote_pool = pool
    else:
        full = dataset_from_rows(
            schema,
            tuple(pool + majority),
            tuple([MINORITY] * t + [MAJORITY] * len(majority)),
        )
        ds = full.minority_subset()
        table = VdmTable.from_dataset(full)
        nbrs = knn_minority(ds, k, VdmMetric(table))
        batch = smote_n(ds, params, nbrs)
        vote_pool = pool + majority

    expected = (n_percent // 100) * t if n_percent >= 100 else n_percent * t // 100
    assert len(batch.rows) == len(batch.provenance) == expected

    audit_batch(batch, t)
    cont = schema.continuous_indices
    prov = batch.provenance
    if shape == "nominal":
        width = 0
    else:
        width = 1 if gap_mode == SHARED else len(cont)
    assert prov.gaps.shape == (expected, width)
    picks_of = {}
    for row, b, j in zip(batch.rows, prov.base_index.tolist(), prov.neighbor_index.tolist()):
        base = pool[b]
        assert len(row) == len(base)
        picks_of.setdefault(b, []).append(j)
        if shape == "nominal":
            assert j == b
        else:
            nb = pool[j]
            assert j in nbrs[b].tolist()
            for i in cont:
                assert min(base[i], nb[i]) <= row[i] <= max(base[i], nb[i])
        for i in schema.nominal_indices:
            first_seen = list(dict.fromkeys(r[i] for r in vote_pool))
            voters = [pool[j][i] for j in nbrs[b]]
            if shape == "nominal":
                voters = [base[i]] + voters
            assert row[i] == _expected_vote(voters, base[i], first_seen)
    if neighbor_mode == DISTINCT and shape != "nominal":
        w = nbrs.shape[1]
        for picks in picks_of.values():
            for start in range(0, len(picks), w):
                dealt = picks[start : start + w]
                assert len(set(dealt)) == len(dealt)


@st.composite
def _vote_blocks(draw):
    """(codes, lists, base_votes): T rows of F nominal codes, mostly from
    {0, 1} so that votes tie, and a (T, w) neighbor list into them."""
    t, f, w = draw(st.integers(1, 10)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    n_codes = draw(st.sampled_from([2, 2, 3, 7]))
    codes = draw(arrays(np.intp, (t, f), elements=st.integers(0, n_codes - 1)))
    lists = draw(arrays(np.intp, (t, w), elements=st.integers(0, t - 1)))
    return codes, lists, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(block=_vote_blocks())
# codes 1 and 0 tie at two votes: row 0 (code 2) takes 0, the lower code;
# row 1 keeps its own code 1
@example(block=(np.array([[2], [1], [0], [1], [0]]), np.array([[1, 2, 3, 4]] * 5), False))
@example(block=(np.array([[2], [1], [0], [1], [0]]), np.array([[1, 2, 3, 4]] * 5), True))
def test_vote_equals_the_per_position_oracle(block):
    codes, lists, base_votes = block
    got = resample._vote(codes, lists, base_votes)
    want = vote_by_position(codes, lists, base_votes)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_vote_memory_and_time_do_not_grow_with_the_categories():
    # one feature of 5,000 categories: a count per row and category would
    # need 4,000 x 5,000 slots for it alone, 100 times the voters' block
    rng = np.random.default_rng(30)
    t, f, w = 4000, 8, 5
    codes = rng.integers(0, 3, size=(t, f)).astype(np.intp)
    codes[:, 3] = rng.integers(0, 5000, size=t)
    lists = rng.integers(0, t, size=(t, w)).astype(np.intp)
    voters_bytes = t * f * (w + 1) * codes.itemsize
    resample._vote(codes, lists, True)
    tracemalloc.start()
    try:
        resample._vote(codes, lists, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * voters_bytes  # 3.3x on numpy 2.4
    # best of interleaved repeats: no slower than counting one position at a time
    best = {resample._vote: math.inf, vote_by_position: math.inf}
    for _ in range(7):
        for vote in best:
            start = time.perf_counter()
            vote(codes, lists, True)
            best[vote] = min(best[vote], time.perf_counter() - start)
    assert best[resample._vote] <= best[vote_by_position]

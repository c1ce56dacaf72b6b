import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MAJORITY, MINORITY, dataset_from_rows
from smotekit.data import (
    Dataset,
    FeatureSchema,
    load_csv,
    save_csv,
    stratified_folds,
)
from smotekit.errors import DataError

CONT2 = FeatureSchema((("a", "continuous"), ("b", "continuous")), "cls")
MIXED = FeatureSchema(
    (("a", "continuous"), ("color", "nominal"), ("b", "continuous")), "cls"
)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_smallest_valid_file(tmp_path):
    path = tmp_path / "tiny.csv"
    write_csv(path, ["a", "b", "cls"], [[1, 2, "pos"], [3, 4, "neg"], [5, 6, "neg"]])
    ds = load_csv(path, CONT2, "pos")
    assert ds.n_minority == 1
    assert ds.n_majority == 2
    assert ds.rows[0] == (1.0, 2.0)
    assert ds.minority.tolist() == [True, False, False]
    assert ds.minority_token == "pos"
    assert ds.majority_token == "neg"


def test_load_column_order_may_differ_from_schema(tmp_path):
    path = tmp_path / "reordered.csv"
    write_csv(path, ["cls", "b", "a"], [["pos", 2, 1], ["neg", 4, 3], ["neg", 6, 5]])
    ds = load_csv(path, CONT2, "pos")
    assert ds.rows[0] == (1.0, 2.0)


def test_load_realistic_shape_counts(tmp_path):
    # 768 rows, 8 continuous features, 268 in the positive class
    rng = np.random.default_rng(11)
    schema = FeatureSchema(
        tuple((f"f{i}", "continuous") for i in range(8)), "outcome"
    )
    rows = []
    for i in range(768):
        token = "tested_positive" if i < 268 else "tested_negative"
        rows.append([round(float(v), 3) for v in rng.normal(size=8)] + [token])
    path = tmp_path / "clinic.csv"
    write_csv(path, [f"f{i}" for i in range(8)] + ["outcome"], rows)
    ds = load_csv(path, schema, "tested_positive")
    assert len(ds) == 768
    assert ds.n_minority == 268
    assert ds.n_majority == 500


def test_load_rejects_non_numeric_continuous(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a", "b", "cls"], [[1, "oops", "pos"], [3, 4, "neg"], [5, 6, "neg"]])
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_non_finite_continuous(tmp_path):
    path = tmp_path / "inf.csv"
    write_csv(path, ["a", "b", "cls"], [[1, "inf", "pos"], [3, 4, "neg"], [5, 6, "neg"]])
    with pytest.raises(DataError, match="non-finite"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_missing_value(tmp_path):
    path = tmp_path / "gap.csv"
    write_csv(path, ["a", "b", "cls"], [[1, "", "pos"], [3, 4, "neg"], [5, 6, "neg"]])
    with pytest.raises(DataError, match="missing value"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "short.csv"
    write_csv(path, ["a", "cls"], [[1, "pos"], [3, "neg"], [5, "neg"]])
    with pytest.raises(DataError, match="missing columns"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_unknown_minority_token(tmp_path):
    path = tmp_path / "tokens.csv"
    write_csv(path, ["a", "b", "cls"], [[1, 2, "yes"], [3, 4, "no"], [5, 6, "no"]])
    with pytest.raises(DataError, match="unknown class value"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_more_than_two_classes(tmp_path):
    path = tmp_path / "multi.csv"
    write_csv(
        path,
        ["a", "b", "cls"],
        [[1, 2, "pos"], [3, 4, "neg"], [5, 6, "neg"], [7, 8, "maybe"]],
    )
    with pytest.raises(DataError, match="exactly two class values"):
        load_csv(path, CONT2, "pos")


def test_load_rejects_minority_outnumbering_majority(tmp_path):
    path = tmp_path / "flipped.csv"
    write_csv(path, ["a", "b", "cls"], [[1, 2, "pos"], [3, 4, "pos"], [5, 6, "neg"]])
    with pytest.raises(DataError, match="minority"):
        load_csv(path, CONT2, "pos")


LOAD_ERRORS = [
    ("", "empty file"),
    ("a,a,cls\n", "duplicate column names in header"),
    ("a,cls\n1,pos\n", "missing columns ['b', 'color']"),
    ("a,color,b,cls,z\n", "unexpected columns ['z']"),
    ("a,color,b,cls\n1,x,2,pos\n3,x,4\n", "line 3 has 3 fields, expected 4"),
    ("a,color,b,cls\n1,x,,pos\n", "line 2: missing value in column 'b'"),
    ("a,color,b,cls\n1,x,2,neg\n3,,4,pos\n", "line 3: missing value in column 'color'"),
    (
        "a,color,b,cls\n1,x,2,neg\n1,x,2,neg\noops,x,4,pos\n",
        "line 4: non-numeric value 'oops' in continuous column 'a'",
    ),
    (
        "a,color,b,cls\n1,x,2,neg\n3,x,nan,pos\n",
        "line 3: non-finite value 'nan' in continuous column 'b'",
    ),
    ("a,color,b,cls\n1,x,2,\n", "line 2: missing class value"),
    (
        "a,color,b,cls\n1,x,2,yes\n3,x,4,no\n",
        "unknown class value: minority label 'pos' not present (classes found: ['no', 'yes'])",
    ),
    (
        "a,color,b,cls\n1,x,2,pos\n3,x,4,neg\n5,x,6,maybe\n",
        "expected exactly two class values, found ['maybe', 'neg', 'pos']; "
        "collapse multi-class data before loading",
    ),
    (
        "a,color,b,cls\n1,x,2,pos\n3,x,4,pos\n5,x,6,neg\n",
        "minority class 'pos' has 2 rows, more than the majority class; "
        "check the minority label",
    ),
    # the first bad cell in file order wins: line 3's column b before line
    # 4's column a, and a bad cell before any class-count check
    (
        "a,color,b,cls\n1,x,2,pos\n3,x,inf,neg\n,x,4,neg\n5,x,6,maybe\n",
        "line 3: non-finite value 'inf' in continuous column 'b'",
    ),
    (
        "a,color,b,cls\n1,x,2,pos\n3,,4,neg\n5,x,oops,neg\n",
        "line 3: missing value in column 'color'",
    ),
    (
        "a,color,b,cls\n1,x,2,pos\n3,x,4,maybe\n5,x,6,neg\n7,x,z,neg\n",
        "line 5: non-numeric value 'z' in continuous column 'b'",
    ),
    # within one line, schema order: 'a' before 'b' whatever the header order
    (
        "b,cls,color,a\noops,pos,x,inf\n",
        "line 2: non-finite value 'inf' in continuous column 'a'",
    ),
]


@pytest.mark.parametrize("text, message", LOAD_ERRORS)
def test_load_error_messages_are_pinned(tmp_path, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as caught:
        load_csv(path, MIXED, "pos")
    assert str(caught.value) == f"{path}: {message}"


def test_load_memory_is_bounded(tmp_path):
    # the records go straight into column buffers, not row tuples
    n, d = 20_000, 8
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(d)), "cls")
    values = np.random.default_rng(12).normal(size=(n, d)).tolist()
    lines = [",".join([*schema.names, "cls"])]
    lines += [
        ",".join([*map(repr, row), "neg" if i % 4 else "pos"]) for i, row in enumerate(values)
    ]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del values, lines
    ds, peak = _load_peak(path, schema)
    assert ds.n_minority == n // 4
    assert peak <= 3 * _block_bytes(ds)


def test_load_memory_is_bounded_with_nominal_columns(tmp_path):
    # a nominal column holds one str object per distinct token while loading
    n = 20_000
    schema = FeatureSchema(
        tuple((f"f{i}", "continuous") for i in range(4))
        + tuple((f"g{i}", "nominal") for i in range(4)),
        "cls",
    )
    rng = np.random.default_rng(13)
    values = rng.normal(size=(n, 4)).tolist()
    categories = rng.integers(20, size=(n, 4)).tolist()
    lines = [",".join([*schema.names, "cls"])]
    lines += [
        ",".join([*map(repr, row), *(f"cat{c}" for c in cats), "neg" if i % 4 else "pos"])
        for i, (row, cats) in enumerate(zip(values, categories))
    ]
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del values, categories, lines
    ds, peak = _load_peak(path, schema)
    assert [len(table) for table in ds.intern[4:]] == [20] * 4
    assert peak <= 3 * _block_bytes(ds)


def _load_peak(path, schema):
    """The dataset ``load_csv`` builds and its ``tracemalloc`` peak."""
    tracemalloc.start()
    try:
        ds = load_csv(path, schema, "pos")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ds, peak


def _block_bytes(ds):
    return ds.cont.nbytes + ds.codes.nbytes + ds.minority.nbytes


def test_nominal_intern_order_is_first_appearance(tmp_path):
    path = tmp_path / "colors.csv"
    write_csv(
        path,
        ["a", "color", "b", "cls"],
        [
            [1, "green", 2, "pos"],
            [3, "red", 4, "neg"],
            [5, "green", 6, "neg"],
            [7, "blue", 8, "neg"],
        ],
    )
    ds = load_csv(path, MIXED, "pos")
    assert ds.intern[1] == {"green": 0, "red": 1, "blue": 2}
    assert ds.intern[0] is None


def test_csv_round_trip_identity(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(5):
        n_maj = int(rng.integers(3, 30))
        n_min = int(rng.integers(1, n_maj + 1))
        rows = []
        labels = []
        for i in range(n_min + n_maj):
            rows.append(
                (
                    float(rng.normal()) * 1e3,
                    str(rng.choice(["x", "y", "z,with comma", 'q"uote'])),
                    float(rng.normal()) / 7.0,
                )
            )
            labels.append(MINORITY if i < n_min else MAJORITY)
        ds = dataset_from_rows(MIXED, tuple(rows), tuple(labels), "pos", "neg")
        path = tmp_path / f"round{trial}.csv"
        save_csv(ds, path)
        again = load_csv(path, MIXED, "pos")
        assert again == ds


def test_csv_round_trip_spans_write_chunks(tmp_path):
    # more rows than one write chunk holds, and no numpy scalar text
    rng = np.random.default_rng(6)
    n = 2500
    rows = tuple(
        (float(rng.normal()), str(rng.choice(["x", "y"])), float(rng.normal()) * 1e-300)
        for _ in range(n)
    )
    labels = tuple(MINORITY if i % 5 == 0 else MAJORITY for i in range(n))
    ds = dataset_from_rows(MIXED, rows, labels, "pos", "neg")
    path = tmp_path / "big.csv"
    save_csv(ds, path)
    assert "np.float64(" not in path.read_text(encoding="utf-8")
    again = load_csv(path, MIXED, "pos")
    assert again == ds
    assert again.rows == rows


def test_schema_json_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    mapping = dict(MIXED.features)
    mapping[MIXED.class_column] = "class"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=2)
    assert FeatureSchema.from_json(path) == MIXED


BOM = "\ufeff"  # the UTF-8 byte-order mark Excel writes first


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    """A CSV saved as Excel's "CSV UTF-8" loads as the same file without
    the mark: its first header is the column, not BOM + column."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(plain, ["a", "color", "b", "cls"], [[1, "red", 2, "pos"], [3, "blue", 4, "neg"]])
    marked.write_text(BOM + plain.read_text("utf-8"), encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_csv(marked, MIXED, "pos") == load_csv(plain, MIXED, "pos")


def test_schema_json_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "schema.json"
    mapping = {"a": "continuous", "color": "nominal", "b": "continuous", "cls": "class"}
    path.write_text(BOM + json.dumps(mapping), encoding="utf-8")
    assert FeatureSchema.from_json(path) == MIXED


def test_schema_json_requires_single_class_column(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"a": "continuous", "b": "continuous"}), encoding="utf-8")
    with pytest.raises(DataError, match="class"):
        FeatureSchema.from_json(path)


@pytest.mark.parametrize(
    "features, class_column, message",
    [
        ((), "cls", "schema declares no features"),
        ((("a", "continuous"), ("a", "nominal")), "cls", "duplicate feature names in schema"),
        ((("", "continuous"),), "cls", "empty feature name in schema"),
        ((("a", "ordinal"),), "cls", "unknown feature kind 'ordinal' for column 'a'"),
        ((("a", "continuous"),), "", "empty class column name"),
        ((("a", "continuous"),), "a", "class column duplicates a feature name"),
    ],
    ids=["no-features", "duplicate", "empty-name", "unknown-kind", "empty-class", "class-is-feature"],
)
def test_schema_rejects_malformed_declarations(features, class_column, message):
    with pytest.raises(DataError) as caught:
        FeatureSchema(features, class_column)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [("{bogus", "is not valid JSON: "), ('["a", "b"]', "must hold a JSON object")],
    ids=["not-json", "not-object"],
)
def test_schema_json_rejects_a_file_that_is_not_an_object(tmp_path, text, message):
    path = tmp_path / "schema.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as caught:
        FeatureSchema.from_json(path)
    assert str(caught.value).startswith(f"schema file {path} {message}")


def _balanced_dataset(n_min, n_maj):
    rows = tuple((float(i), float(i) * 2) for i in range(n_min + n_maj))
    labels = tuple(
        MINORITY if i < n_min else MAJORITY
        for i in range(n_min + n_maj)
    )
    return dataset_from_rows(CONT2, rows, labels)


def test_folds_exact_split():
    ds = _balanced_dataset(10, 20)
    folds = stratified_folds(ds, 10, seed=3)
    for fold in range(10):
        test = np.flatnonzero(folds == fold)
        assert np.count_nonzero(ds.minority[test]) == 1
        assert np.count_nonzero(~ds.minority[test]) == 2


def test_folds_remainder_spreads_to_one_fold():
    ds = _balanced_dataset(11, 20)
    folds = stratified_folds(ds, 10, seed=3)
    minority_per_fold = sorted(
        int(np.count_nonzero(ds.minority[np.flatnonzero(folds == fold)])) for fold in range(10)
    )
    assert minority_per_fold == [1] * 9 + [2]


def test_folds_deterministic_and_seed_sensitive():
    ds = _balanced_dataset(13, 29)
    a = stratified_folds(ds, 5, seed=42)
    b = stratified_folds(ds, 5, seed=42)
    c = stratified_folds(ds, 5, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_folds_class_counts_differ_by_at_most_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n_folds = int(rng.integers(2, 8))
        n_min = int(rng.integers(n_folds, 40))
        n_maj = int(rng.integers(n_min, 80))
        ds = _balanced_dataset(n_min, n_maj)
        folds = stratified_folds(ds, n_folds, seed=int(rng.integers(1 << 30)))
        for indices in (ds.minority_indices(), ds.majority_indices()):
            counts = [0] * n_folds
            for i in indices:
                counts[folds[i]] += 1
            assert max(counts) - min(counts) <= 1
            # every fold holds a row of each class, which the per-fold
            # neighbor search relies on
            assert min(counts) >= 1
        # train/test partition the rows for every fold
        for fold in range(n_folds):
            train = set(np.flatnonzero(folds != fold))
            test = set(np.flatnonzero(folds == fold))
            assert train | test == set(range(len(ds)))
            assert not train & test


def test_folds_are_one_read_only_intp_array():
    ds = _balanced_dataset(10, 20)
    folds = stratified_folds(ds, 5, seed=1)
    assert isinstance(folds, np.ndarray)
    assert folds.dtype == np.intp
    assert folds.shape == (len(ds),)
    assert not folds.flags.writeable
    with pytest.raises(ValueError):
        folds[0] = 1


def test_folds_reject_thin_class():
    ds = _balanced_dataset(3, 20)
    with pytest.raises(DataError, match="folds"):
        stratified_folds(ds, 4, seed=0)


def test_label_partition():
    ds = _balanced_dataset(4, 9)
    both = np.concatenate([ds.minority_indices(), ds.majority_indices()])
    assert sorted(both) == list(range(13))
    assert ds.n_minority == 4
    assert ds.n_majority == 9


def test_subset_preserves_interning():
    rows = (
        (1.0, "green", 2.0),
        (3.0, "red", 4.0),
        (5.0, "blue", 6.0),
        (7.0, "red", 8.0),
    )
    labels = (
        MINORITY,
        MAJORITY,
        MAJORITY,
        MAJORITY,
    )
    ds = dataset_from_rows(MIXED, rows, labels)
    sub = ds.subset([2, 3])
    assert sub.intern[1] == {"green": 0, "red": 1, "blue": 2}
    assert sub.rows == (rows[2], rows[3])


def test_dataset_rejects_a_column_count_other_than_the_schemas():
    for columns in ([[1.0, 3.0]], [[1.0, 3.0], [2.0, 4.0], [5.0, 6.0]]):
        with pytest.raises(DataError, match=f"^{len(columns)} columns, expected 2$"):
            Dataset(CONT2, columns, [True, False])


def test_dataset_rejects_a_column_of_another_length():
    with pytest.raises(DataError, match=r"^column 'b' has 1 entries, expected 2$"):
        Dataset(CONT2, [[1.0, 3.0], [2.0]], [True, False])
    with pytest.raises(DataError, match=r"^column 'a' has 2 entries, expected 1$"):
        Dataset(CONT2, [[1.0, 3.0], [2.0, 4.0]], [True])


def test_dataset_rejects_minority_flags_that_are_not_bools():
    for minority in (["minority", "majority"], [1, 0], [[True, False]]):
        with pytest.raises(DataError, match="one bool per row"):
            Dataset(CONT2, [[1.0, 3.0], [2.0, 4.0]], minority)


def test_dataset_rejects_non_finite_continuous_values():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DataError, match="^non-finite value in a continuous column$"):
            Dataset(MIXED, [[1.0, bad], ["x", "y"], [2.0, 4.0]], [True, False])


def test_dataset_rejects_non_numeric_continuous_values():
    with pytest.raises(DataError, match="^non-numeric value in a continuous column$"):
        Dataset(MIXED, [[1.0, "oops"], ["x", "y"], [2.0, 4.0]], [True, False])


def test_dataset_equals_no_other_type():
    ds = Dataset(CONT2, [[1.0, 3.0], [2.0, 4.0]], [True, False])
    assert ds == Dataset(CONT2, [[1.0, 3.0], [2.0, 4.0]], [True, False])
    assert ds != (1.0, 2.0) and not ds == "ds"


@st.composite
def _tables(draw):
    """(schema, rows, labels) for a continuous, mixed or nominal schema with
    interleaved column kinds; either block may be zero columns wide and the
    table may have no rows."""
    shape = draw(st.sampled_from(["continuous", "mixed", "nominal"]))
    n_cont = 0 if shape == "nominal" else draw(st.integers(1, 3))
    n_nom = 0 if shape == "continuous" else draw(st.integers(1, 3))
    kinds = draw(st.permutations(["continuous"] * n_cont + ["nominal"] * n_nom))
    schema = FeatureSchema(tuple((f"f{i}", kind) for i, kind in enumerate(kinds)), "cls")
    cell = {
        "continuous": st.floats(allow_nan=False, allow_infinity=False),
        "nominal": st.sampled_from(["a", "b", "c,d", "0.5"]),
    }
    rows = draw(st.lists(st.tuples(*(cell[kind] for kind in kinds)), max_size=8))
    labels = draw(
        st.lists(st.sampled_from([MINORITY, MAJORITY]), min_size=len(rows), max_size=len(rows))
    )
    return schema, rows, labels


@settings(max_examples=200, deadline=None)
@given(table=_tables(), data=st.data())
def test_blocks_round_trip_rows_labels_and_subsets(table, data):
    schema, rows, labels = table
    ds = dataset_from_rows(schema, tuple(rows), tuple(labels))
    # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
    assert repr(ds.rows) == repr(tuple(rows))
    assert ds.minority.tolist() == labels
    assert ds.n_minority == labels.count(MINORITY)
    assert ds.cont.shape == (len(rows), len(schema.continuous_indices))
    assert ds.codes.shape == (len(rows), len(schema.nominal_indices))
    assert ds.cont.dtype == np.float64 and ds.cont.flags.c_contiguous

    picks = st.lists(st.integers(0, len(rows) - 1), max_size=10) if rows else st.just([])
    idx = data.draw(picks)
    sub = ds.subset(idx)
    assert repr(sub.rows) == repr(tuple(rows[i] for i in idx))
    assert sub.minority.tolist() == [labels[i] for i in idx]
    assert sub.intern is ds.intern
    for block in (ds.cont, ds.codes, ds.minority, sub.cont, sub.codes, sub.minority):
        assert block.flags.writeable is False

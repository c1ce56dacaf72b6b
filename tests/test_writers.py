"""Byte checks of every text writer against the row-at-a-time oracles."""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from smotekit.data import CONTINUOUS, NOMINAL, ClassLabel, Dataset, FeatureSchema, save_csv
from smotekit.evaluate import HullVertex, RocCurve, RocPoint, write_hull_csv, write_points_csv
from smotekit.resample import Provenance, SyntheticBatch, write_provenance

# around the 1,024-line write chunk
ROW_COUNTS = (0, 1, 1023, 1024, 1025, 2049)
EDGE_FLOATS = (-0.0, 1e-05, 1e16, 5e-324, 0.30000000000000004, 1.2345678901234567)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
# the empty token, and the characters that make the csv module quote a field
TOKENS = st.text(alphabet=st.sampled_from('ab,"\r\n é'), max_size=4)
FILE_CHECK = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _spread(data, pool, n):
    """``n`` entries drawn from ``pool``, every one of them used when ``n`` allows."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    picks[: min(n, len(pool))] = np.arange(min(n, len(pool)))
    return [pool[i] for i in picks.tolist()]


@FILE_CHECK
@given(data=st.data())
def test_save_csv_bytes_match_csv_writer(tmp_path, data):
    kinds = data.draw(st.lists(st.sampled_from((CONTINUOUS, NOMINAL)), min_size=1, max_size=4))
    schema = FeatureSchema(tuple((f"f{i}", kind) for i, kind in enumerate(kinds)), 'class "c"')
    value = {CONTINUOUS: FLOATS, NOMINAL: TOKENS}
    pool = data.draw(st.lists(st.tuples(*(value[kind] for kind in kinds)), min_size=1, max_size=8))
    rows = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    labels = _spread(data, [ClassLabel.MINORITY, ClassLabel.MAJORITY], len(rows))
    tokens = {ClassLabel.MINORITY: data.draw(TOKENS), ClassLabel.MAJORITY: data.draw(TOKENS)}
    ds = Dataset(schema, rows, labels, tokens[ClassLabel.MINORITY], tokens[ClassLabel.MAJORITY])
    path = tmp_path / "out.csv"

    save_csv(ds, path)
    header = [*schema.names, schema.class_column]
    expected = oracles.csv_text(header, [(*row, tokens[lab]) for row, lab in zip(rows, labels)])
    assert path.read_bytes() == expected.encode()

    save_csv(ds, path, class_column=False)
    assert path.read_bytes() == oracles.csv_text(schema.names, rows).encode()


def test_save_csv_quotes_an_empty_field_alone_on_its_line(tmp_path):
    # the csv module writes a line of one empty field as "", not as a blank line
    schema = FeatureSchema((("f0", NOMINAL),), "class")
    rows = [("",), ("a,b",), ("",)]
    ds = Dataset(schema, rows, [ClassLabel.MINORITY, ClassLabel.MAJORITY, ClassLabel.MAJORITY])
    save_csv(ds, tmp_path / "out.csv", class_column=False)
    assert (tmp_path / "out.csv").read_bytes() == oracles.csv_text(schema.names, rows).encode()


@FILE_CHECK
@given(data=st.data())
def test_write_provenance_bytes_match_json_dumps(tmp_path, data):
    width = data.draw(st.sampled_from((0, 1, 6)))
    draws = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from((-0.0, 1e-05, 5e-324, 0.1 + 0.2))
    pool = data.draw(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.lists(draws, min_size=width, max_size=width)),
            min_size=1,
            max_size=8,
        )
    )
    records = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    base, neighbor, gaps = zip(*records) if records else ((), (), ())
    prov = Provenance(
        np.array(base, dtype=np.intp),
        np.array(neighbor, dtype=np.intp),
        np.array(gaps, dtype=float).reshape(len(records), width),
    )
    variant = data.draw(st.sampled_from(("smote", "smote_nc", "smote_n", "replicate")) | TOKENS)
    path = tmp_path / "out.jsonl"
    write_provenance(path, SyntheticBatch(None, prov), variant)
    assert path.read_bytes() == oracles.provenance_text(base, neighbor, gaps, variant).encode()


@FILE_CHECK
@given(data=st.data())
def test_report_csv_bytes_match_csv_writer(tmp_path, data):
    rates = st.floats(0.0, 100.0) | st.sampled_from((-0.0, 1e-05, 5e-324, 33.333333333333336))
    point = st.tuples(TOKENS, TOKENS, rates, rates)
    pool = data.draw(st.lists(point, min_size=1, max_size=8))
    records = _spread(data, pool, data.draw(st.sampled_from(ROW_COUNTS)))
    curves = [
        RocCurve(family, tuple(RocPoint(fp, tp, tag) for f, tag, fp, tp in records if f == family))
        for family in dict.fromkeys(r[0] for r in records)
    ]
    hull = [HullVertex(fp, tp, family, tag) for family, tag, fp, tp in records[::3]]
    on_hull = {(v.fp_rate, v.tp_rate) for v in hull}
    rows = sorted(
        ((f, tag, fp, tp, int((fp, tp) in on_hull)) for f, tag, fp, tp in records),
        key=lambda r: (r[0], r[2], r[3], r[1]),
    )

    write_points_csv(tmp_path / "points.csv", curves, hull)
    expected = oracles.csv_text(["family", "tag", "fp_rate", "tp_rate", "on_hull"], rows)
    assert (tmp_path / "points.csv").read_bytes() == expected.encode()

    write_hull_csv(tmp_path / "hull.csv", hull)
    expected = oracles.csv_text(
        ["family", "tag", "fp_rate", "tp_rate"], [(v.family, v.tag, v.fp_rate, v.tp_rate) for v in hull]
    )
    assert (tmp_path / "hull.csv").read_bytes() == expected.encode()


def test_save_csv_memory_is_bounded(tmp_path):
    n = 50_000
    rng = np.random.default_rng(36)
    schema = FeatureSchema(
        tuple((f"c{i}", CONTINUOUS) for i in range(6)) + (("n0", NOMINAL),), "class"
    )
    rows = [(*values, f"v{i % 7}") for i, values in enumerate(rng.normal(size=(n, 6)).tolist())]
    ds = Dataset(schema, rows, [ClassLabel.MINORITY if i % 3 else ClassLabel.MAJORITY for i in range(n)])
    del rows
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        save_csv(ds, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert peak < size / 4  # a quarter of the whole file as text

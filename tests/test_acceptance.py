"""Acceptance gate: twelve criteria, one [PASS]/[FAIL] line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion is a hard assertion except the end-to-end AUC trend
inside criterion 11, which prints a flagged warning when violated (synthetic
data at desk scale does not guarantee the large-study ordering).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    MAJORITY,
    MINORITY,
    dataset_from_rows,
    hull_membership,
    riemann_auc,
    sorted_neighbors,
)
from smotekit.data import FeatureSchema
from smotekit.distance import (
    EuclideanMetric,
    NcDistanceParams,
    NcMetric,
    VdmMetric,
    VdmTable,
)
from smotekit.evaluate import RocCurve, RocPoint, auc, convex_hull
from smotekit.neighbors import NeighborList, knn_minority
from smotekit.pipeline import ExperimentConfig, emit_report, run_experiment
from smotekit.resample import (
    PER_ATTRIBUTE,
    SHARED,
    SmoteParams,
    UnderSamplePlan,
    smote,
    smote_n,
    under_sample,
)
from stub_rng import StubRng


def report(number: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{verdict}] criterion {number}: {label}")
    assert not failures, f"criterion {number}: {label}: {failures[:5]}"


def minority(schema, rows):
    """The rows as a minority-only Dataset."""
    return dataset_from_rows(schema, tuple(rows), (MINORITY,) * len(rows))


def nominal_schema(d):
    return FeatureSchema(tuple((f"g{i}", "nominal") for i in range(d)), "cls")


def test_criterion_01_shared_gap_worked_example():
    schema = FeatureSchema((("f1", "continuous"), ("f2", "continuous")), "cls")
    ds = minority(schema, [(6.0, 4.0), (4.0, 3.0)])
    neighbors = NeighborList(((1,), (0,)))
    params = SmoteParams(n_percent=100, seed=0, gap_mode=SHARED)
    gaps = [0.0, 0.25, 0.5, float(np.nextafter(1.0, 0.0))]
    smote(ds, params, neighbors, rng=StubRng(0.0))  # warm numpy paths
    failures = []
    start = time.perf_counter()
    got = [smote(ds, params, neighbors, rng=StubRng(g)).rows[0] for g in gaps]
    elapsed = time.perf_counter() - start
    for g, row in zip(gaps, got):
        expected = (6.0 - 2.0 * g, 4.0 - g)
        if row != expected:
            failures.append((g, row, expected))
    if elapsed >= 1e-3:
        failures.append(f"took {elapsed * 1e3:.3f} ms")
    report(1, "shared-gap interpolation matches (6-2g, 4-g) exactly, <1 ms", failures)


def test_criterion_02_mixed_distance_worked_example():
    schema = FeatureSchema(
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
    f1 = (1.0, 2.0, 3.0, "A", "B", "C")
    f2 = (4.0, 6.0, 5.0, "A", "D", "E")
    failures = []
    for med in (0.0, 1.0, 2.5):
        metric = NcMetric(schema, NcDistanceParams(med))
        got = metric.pairwise(minority(schema, [f1, f2]))[0, 1]
        want = math.sqrt(29.0 + 2.0 * med * med)
        if abs(got - want) > 1e-12:
            failures.append((med, got, want))
    report(2, "NcMetric distance equals sqrt(29 + 2 Med^2) within 1e-12", failures)


def test_criterion_03_nominal_vote_worked_example():
    rows = [
        ("A", "B", "C", "D", "E"),
        ("A", "F", "C", "G", "N"),
        ("H", "B", "C", "D", "N"),
    ]
    ds = minority(nominal_schema(5), rows)
    neighbors = NeighborList(((1, 2), (0, 2), (0, 1)))
    params = SmoteParams(n_percent=100, seed=0)
    failures = []
    for _ in range(2):  # deterministic: identical across invocations
        batch = smote_n(ds, params, neighbors)
        if batch.rows[0] != ("A", "B", "C", "D", "N"):
            failures.append(batch.rows[0])
    report(3, "smote_n vote produces FS = A B C D N deterministically", failures)


def test_criterion_04_under_sampling_semantics():
    majority = list(range(1000, 1200))
    failures = []
    for percent, expected in ((200, 25), (100, 50)):
        got = len(under_sample(majority, 50, UnderSamplePlan(percent, seed=3)))
        if got != expected:
            failures.append((percent, got, expected))
    report(4, "minority 50 / majority 200: percent 200 keeps 25, percent 100 keeps 50", failures)


def test_criterion_05_count_exactness():
    rng = np.random.default_rng(105)
    failures = []
    start = time.perf_counter()
    for case in range(200):
        t = int(rng.integers(2, 201))
        n = int(rng.integers(0, 11)) * 50
        k = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(d)), "cls")
        rows = [tuple(float(v) for v in rng.normal(size=d)) for _ in range(t)]
        ds = minority(schema, rows)
        neighbors = knn_minority(ds, k, EuclideanMetric(schema))
        params = SmoteParams(n_percent=n, seed=int(rng.integers(1 << 30)))
        batch = smote(ds, params, neighbors)
        expected = (n * t) // 100 if n < 100 else (n // 100) * t
        if len(batch) != expected:
            failures.append((case, t, n, k, len(batch), expected))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s")
    report(5, "batch size is floor(N'/100) x T' on 200 random cases, <5 s", failures)


def test_criterion_06_provenance_audit():
    rng = np.random.default_rng(106)
    t, d = 100, 4
    schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(d)), "cls")
    rows = [tuple(float(v) for v in rng.normal(size=d) * 10) for _ in range(t)]
    ds = minority(schema, rows)
    neighbors = knn_minority(ds, 5, EuclideanMetric(schema))
    matrix = np.asarray(rows)
    failures = []

    shared = smote(
        ds, SmoteParams(10000, seed=61, gap_mode=SHARED), neighbors
    )
    assert len(shared) == 10000
    prov = shared.provenance
    for row, b, j, (gap,) in zip(
        shared.rows, prov.base_index, prov.neighbor_index, prov.gaps
    ):
        base = matrix[b]
        nb = matrix[j]
        want = base + gap * (nb - base)
        for got, expected in zip(row, want):
            if abs(got - expected) > math.ulp(expected):
                failures.append(("shared", b, j, got, expected))

    boxed = smote(
        ds, SmoteParams(10000, seed=62, gap_mode=PER_ATTRIBUTE), neighbors
    )
    assert len(boxed) == 10000
    prov = boxed.provenance
    for row, b, j in zip(boxed.rows, prov.base_index, prov.neighbor_index):
        base = matrix[b]
        nb = matrix[j]
        lo = np.minimum(base, nb)
        hi = np.maximum(base, nb)
        if not all(l <= v <= h for v, l, h in zip(row, lo, hi)):
            failures.append(("per-attribute", b, j, row))
    report(
        6,
        "10,000-sample audits: shared-gap within 1 ulp of the segment, "
        "per-attribute within the base/neighbor box",
        failures,
    )


def test_criterion_07_auc_riemann_oracle():
    rng = np.random.default_rng(107)
    failures = []
    for case in range(100):
        n = int(rng.integers(1, 21))
        coords = [
            (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for _ in range(n)
        ]
        got = auc(RocCurve("f", tuple(RocPoint(x, y) for x, y in coords)))
        want = riemann_auc(coords, total_strips=1_000_000)
        if abs(got - want) > 1e-9:
            failures.append((case, got, want, abs(got - want)))
    report(7, "trapezoid AUC within 1e-9 of a 10^6-strip midpoint Riemann oracle", failures)


def test_criterion_08_hull_dominance_oracle():
    rng = np.random.default_rng(108)
    failures = []
    for case in range(100):
        n = int(rng.integers(1, 51))
        pts = [(float(x), float(y)) for x, y in rng.integers(0, 101, size=(n, 2))]
        hull = convex_hull([RocCurve("f", tuple(RocPoint(x, y) for x, y in pts))])
        got = {(v.fp_rate, v.tp_rate) for v in hull}
        for coord, is_vertex in hull_membership(pts).items():
            if (coord in got) != is_vertex:
                failures.append((case, coord, is_vertex))
    report(8, "monotone-chain hull matches the O(n^3) dominance oracle exactly", failures)


def test_criterion_09_vdm_axioms():
    rng = np.random.default_rng(109)
    failures = []
    for case in range(100):
        n_values = int(rng.integers(2, 6))
        values = [f"v{i}" for i in range(n_values)]
        rows = [
            (str(rng.choice(values)),) for _ in range(int(rng.integers(5, 60)))
        ]
        labels = [
            MINORITY if rng.random() < 0.4 else MAJORITY
            for _ in rows
        ]
        table = VdmTable.from_dataset(dataset_from_rows(nominal_schema(1), rows, labels))
        seen = list(table.counts[0])
        # one-feature rows at r = 1: each distance is the category pair's delta
        delta = VdmMetric(table).pairwise(minority(nominal_schema(1), [(v,) for v in seen]))
        for i, v1 in enumerate(seen):
            if delta[i, i] != 0.0:
                failures.append((case, "identity", v1))
            for j, v2 in enumerate(seen):
                if delta[i, j] != delta[j, i]:
                    failures.append((case, "symmetry", v1, v2))
                for m, v3 in enumerate(seen):
                    if delta[i, j] > delta[i, m] + delta[m, j] + 1e-12:
                        failures.append((case, "triangle", v1, v2, v3))
    report(9, "VDM delta: symmetric, zero on identity, triangle within 1e-12", failures)


def test_criterion_10_knn_oracle():
    rng = np.random.default_rng(110)
    failures = []
    for case in range(50):
        t = int(rng.integers(200, 301)) if case < 5 else int(rng.integers(2, 80))
        d = int(rng.integers(1, 11))
        k = int(rng.integers(1, 8))
        schema = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(d)), "cls")
        rows = [tuple(float(v) for v in rng.integers(0, 7, size=d)) for _ in range(t)]
        for _ in range(min(t // 3, 10)):  # force exact duplicates
            rows[int(rng.integers(t))] = rows[int(rng.integers(t))]
        lists = knn_minority(minority(schema, rows), k, EuclideanMetric(schema)).lists
        got = tuple(map(tuple, lists.tolist()))
        matrix = np.asarray(rows)

        def squared(i, j):
            diff = matrix[i] - matrix[j]
            return float(diff @ diff)

        want = tuple(
            tuple(
                sorted(
                    (j for j in range(t) if j != i),
                    key=lambda j, i=i: (squared(i, j), j),
                )[: min(k, t - 1)]
            )
            for i in range(t)
        )
        if got != want:
            failures.append((case, t, d, k))
    report(10, "neighbor lists match a full-sort oracle, ties and duplicates included", failures)


SCHEMA_5D = FeatureSchema(tuple((f"f{i}", "continuous") for i in range(5)), "cls")


def overlapping_gaussians(seed=111):
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for _ in range(100):
        rows.append(tuple(float(v) for v in rng.normal(loc=1.0, size=5)))
        labels.append(MINORITY)
    for _ in range(2000):
        rows.append(tuple(float(v) for v in rng.normal(loc=0.0, size=5)))
        labels.append(MAJORITY)
    return dataset_from_rows(SCHEMA_5D, tuple(rows), tuple(labels), "pos", "neg")


def desk_scale_config():
    return ExperimentConfig(
        families=("smote_under", "plain_under"),
        over_percents=(200,),
        under_percents=(10, 25, 50, 100, 200, 500, 1000, 2000),
        k=5,
        n_folds=10,
        seed=29,
    )


@pytest.fixture(scope="module")
def desk_scale_runs(tmp_path_factory):
    ds = overlapping_gaussians()
    cfg = desk_scale_config()
    start = time.perf_counter()
    first = run_experiment(ds, cfg)
    elapsed = time.perf_counter() - start
    dir_a = tmp_path_factory.mktemp("report_a")
    dir_b = tmp_path_factory.mktemp("report_b")
    paths_a = emit_report(first, dir_a, {"dataset": "synthetic-5d"})
    second = run_experiment(ds, cfg)
    paths_b = emit_report(second, dir_b, {"dataset": "synthetic-5d"})
    return first, elapsed, paths_a, paths_b


def test_criterion_11_end_to_end_desk_scale(desk_scale_runs):
    result, elapsed, paths, _ = desk_scale_runs
    failures = []
    if elapsed >= 60.0:
        failures.append(f"run took {elapsed:.1f} s")

    with paths["roc_points"].open(newline="") as fh:
        point_rows = list(csv.reader(fh))
    if point_rows[0] != ["family", "tag", "fp_rate", "tp_rate", "on_hull"]:
        failures.append("roc_points.csv header")
    for family, tag, fp, tp, flag in point_rows[1:]:
        if not (0.0 <= float(fp) <= 100.0 and 0.0 <= float(tp) <= 100.0):
            failures.append(f"point out of range: {family}/{tag}")
        if flag not in ("0", "1"):
            failures.append(f"bad on_hull flag: {family}/{tag}")

    with paths["hull"].open(newline="") as fh:
        hull_rows = list(csv.reader(fh))
    fps = [float(row[2]) for row in hull_rows[1:]]
    if fps != sorted(fps):
        failures.append("hull.csv not sorted by fp_rate")

    summary = json.loads(paths["aucs"].read_text("utf-8"))
    for family in ("plain_under", "smote_under@200"):
        value = summary["aucs"][family]["auc"]
        if not (0.0 <= value <= 1.0):
            failures.append((family, value))
    if not summary["statement"]:
        failures.append("missing hull dominance statement")
    if summary["statement"] != result.statement:
        failures.append("statement mismatch between files and result")

    gap = result.aucs["smote_under@200"] - result.aucs["plain_under"]
    if gap < -0.02:
        print(
            "[WARN] flagged: smote_under@200 AUC trails plain_under by "
            f"{-gap:.4f} (> 0.02) on this synthetic dataset"
        )
    report(
        11,
        "end-to-end run under 60 s with valid ROC/hull/AUC files and a "
        "dominance statement",
        failures,
    )


def test_criterion_12_byte_identical_reruns(desk_scale_runs):
    _, _, paths_a, paths_b = desk_scale_runs
    failures = []
    for key in ("roc_points", "hull", "aucs", "manifest"):
        if paths_a[key].read_bytes() != paths_b[key].read_bytes():
            failures.append(key)
    report(12, "same seed reruns emit byte-identical data files", failures)

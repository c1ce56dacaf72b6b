import json
import math

import numpy as np
import pytest

from oracles import MAJORITY as MAJ
from oracles import MINORITY as MIN
from oracles import hull_membership, riemann_auc
from smotekit.evaluate import (
    ANCHOR_FAMILY,
    ConfusionMatrix,
    RocCurve,
    RocPoint,
    auc,
    auc_e4,
    build_family_curve,
    convex_hull,
    write_hull_csv,
    write_points_csv,
    write_summary_json,
)
from smotekit.model import confusion_from_scores


def curve(*coords, family="f"):
    return RocCurve(family, tuple(RocPoint(x, y) for x, y in coords))


def tally(predicted, actual):
    """Confusion of predicted labels; scores 1.0/0.0 stand for minority/majority."""
    scores = [1.0 if label is MIN else 0.0 for label in predicted]
    return confusion_from_scores(scores, [label is MIN for label in actual], 0.5)


def test_confusion_perfect():
    actual = [MIN] * 3 + [MAJ] * 7
    cm = tally(actual, actual)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 7, 0)


def test_confusion_all_negative():
    actual = [MIN] * 2 + [MAJ] * 8
    cm = tally([MAJ] * 10, actual)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 8, 2)


def test_confusion_default_accuracy_at_scale():
    # 11183 rows with 260 positives, everything predicted negative: the
    # default accuracy 10923 / 11183 = 97.68%
    actual = [MIN] * 260 + [MAJ] * 10923
    cm = tally([MAJ] * 11183, actual)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 10923, 260)


def test_confusion_rejects_length_mismatch():
    with pytest.raises(ValueError, match="against"):
        tally([MIN], [MIN, MAJ])


def one_fold_point(cm):
    """The ROC point of a grid cell with one fold."""
    (point,) = build_family_curve("f", [("cell", [cm])]).points
    return point


def test_metrics_hand_arithmetic():
    point = one_fold_point(ConfusionMatrix(tp=50, fp=10, tn=90, fn=50))
    assert point.fp_rate == pytest.approx(10.0)
    assert point.tp_rate == pytest.approx(50.0)


def test_metrics_absent_on_zero_denominator():
    point = one_fold_point(ConfusionMatrix(tp=0, fp=0, tn=5, fn=5))
    assert (point.fp_rate, point.tp_rate) == (0.0, 0.0)
    # no negatives: the fp rate is undefined, never reported as 0
    with pytest.raises(ValueError, match="missing one class"):
        one_fold_point(ConfusionMatrix(tp=5, fp=0, tn=0, fn=0))


def test_confusion_matrix_rejects_negative_counts():
    for name in ("tp", "fp", "tn", "fn"):
        counts = {**dict.fromkeys(("tp", "fp", "tn", "fn"), 1), name: -1}
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            ConfusionMatrix(**counts)


def test_roc_point_bounds():
    with pytest.raises(ValueError):
        RocPoint(-0.1, 50.0)
    with pytest.raises(ValueError):
        RocPoint(10.0, 100.5)


def test_curve_sorts_points():
    c = curve((50, 60), (10, 20), (50, 40))
    assert [(p.fp_rate, p.tp_rate) for p in c.points] == [
        (10, 20),
        (50, 40),
        (50, 60),
    ]


def test_auc_single_perfect_point():
    assert auc(curve((0, 100))) == 1.0


def test_auc_diagonal_is_half():
    assert auc(curve((0, 0), (25, 25), (50, 50), (75, 75), (100, 100))) == 0.5


def test_auc_hand_trapezoid():
    assert auc(curve((0, 0), (10, 80), (100, 100))) == pytest.approx(0.85)


def test_auc_leftmost_anchor_drops_origin_wedge():
    c = curve((10, 80))
    assert auc(c, anchor="origin") == pytest.approx(0.85)
    assert auc(c, anchor="leftmost") == pytest.approx(0.81)


def test_auc_appends_upper_right():
    assert auc(curve((0, 0), (50, 100))) == pytest.approx(0.75)


def test_auc_invariant_to_on_segment_points():
    base = curve((0, 0), (40, 80), (100, 100))
    dense = curve((0, 0), (10, 20), (40, 80), (70, 90), (100, 100))
    assert auc(base) == pytest.approx(auc(dense), abs=1e-12)


def test_auc_rejects_empty_and_bad_anchor():
    with pytest.raises(ValueError):
        auc(RocCurve("f", ()))
    with pytest.raises(ValueError, match="anchor"):
        auc(curve((0, 100)), anchor="midpoint")


def test_auc_e4_prints_conventionally():
    assert auc_e4(0.7242) == 7242
    assert auc_e4(1.0) == 10000


def test_auc_matches_riemann_oracle_small():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        coords = sorted(
            (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for _ in range(n)
        )
        c = curve(*coords)
        got = auc(c)
        want = riemann_auc(coords, total_strips=200_000)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got <= 1.0


def test_hull_drops_dominated_point():
    hull = convex_hull([curve((10, 50), (10, 40))])
    coords = [(v.fp_rate, v.tp_rate) for v in hull]
    assert (10, 50) in coords
    assert (10, 40) not in coords


def test_hull_drops_collinear_middle():
    hull = convex_hull([curve((0, 0), (50, 50), (100, 100))])
    coords = [(v.fp_rate, v.tp_rate) for v in hull]
    assert coords == [(0, 0), (100, 100)]


def test_hull_anchors_tagged():
    hull = convex_hull([curve((50, 90))])
    assert [(v.fp_rate, v.tp_rate) for v in hull] == [(0, 0), (50, 90), (100, 100)]
    assert hull[0].family == ANCHOR_FAMILY
    assert hull[1].family == "f"
    assert hull[2].family == ANCHOR_FAMILY


def test_hull_origin_dropped_when_dominated():
    hull = convex_hull([curve((0, 60))])
    assert [(v.fp_rate, v.tp_rate) for v in hull] == [(0, 60), (100, 100)]


def test_hull_needs_a_point():
    for curves in ([], [curve()]):
        with pytest.raises(ValueError, match="^convex_hull needs at least one point$"):
            convex_hull(curves)


def test_hull_first_seen_family_owns_shared_points():
    a = curve((20, 70), family="alpha")
    b = curve((20, 70), (60, 95), family="beta")
    hull = convex_hull([a, b])
    owners = {(v.fp_rate, v.tp_rate): v.family for v in hull}
    assert owners[(20, 70)] == "alpha"
    assert owners[(60, 95)] == "beta"


def test_hull_idempotent():
    rng = np.random.default_rng(52)
    pts = [(float(x), float(y)) for x, y in rng.integers(0, 101, size=(30, 2))]
    first = convex_hull([curve(*pts)])
    again = convex_hull([curve(*[(v.fp_rate, v.tp_rate) for v in first])])
    assert [(v.fp_rate, v.tp_rate) for v in first] == [
        (v.fp_rate, v.tp_rate) for v in again
    ]


def test_hull_matches_membership_oracle():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        pts = [(float(x), float(y)) for x, y in rng.integers(0, 101, size=(n, 2))]
        hull = convex_hull([curve(*pts)])
        on_hull = {(v.fp_rate, v.tp_rate) for v in hull}
        verdict = hull_membership(pts)
        for coord, is_vertex in verdict.items():
            assert (coord in on_hull) == is_vertex, (coord, sorted(on_hull))


def test_hull_dominates_every_input_point():
    rng = np.random.default_rng(54)
    pts = [(float(x), float(y)) for x, y in rng.integers(0, 101, size=(50, 2))]
    hull = convex_hull([curve(*pts)])
    vertices = [(v.fp_rate, v.tp_rate) for v in hull]
    for x, y in pts:
        left = [v for v in vertices if v[0] <= x]
        right = [v for v in vertices if v[0] >= x]
        assert left and right
        a = max(left)
        b = min(right)
        if a[0] == b[0]:
            assert max(a[1], b[1]) >= y
        else:
            t = (x - a[0]) / (b[0] - a[0])
            assert a[1] + t * (b[1] - a[1]) >= y - 1e-9


def test_family_curve_averages_fold_rates():
    cms = [
        ConfusionMatrix(tp=6, fn=4, fp=2, tn=8),   # tp 60, fp 20
        ConfusionMatrix(tp=8, fn=2, fp=4, tn=6),   # tp 80, fp 40
    ]
    c = build_family_curve("fam", [("cell", cms)])
    assert len(c.points) == 1
    assert c.points[0].tp_rate == pytest.approx(70.0)
    assert c.points[0].fp_rate == pytest.approx(30.0)
    assert c.points[0].tag == "cell"


def test_family_curve_deduplicates_identical_cells():
    cm = [ConfusionMatrix(tp=5, fn=5, fp=1, tn=9)]
    c = build_family_curve("fam", [("one", cm), ("two", cm)])
    assert len(c.points) == 1
    assert c.points[0].tag == "one"


def test_family_curve_fold_permutation_invariant():
    rng = np.random.default_rng(55)
    cms = [
        ConfusionMatrix(
            tp=int(rng.integers(1, 50)),
            fn=int(rng.integers(1, 50)),
            fp=int(rng.integers(1, 50)),
            tn=int(rng.integers(1, 50)),
        )
        for _ in range(10)
    ]
    a = build_family_curve("fam", [("cell", cms)])
    b = build_family_curve("fam", [("cell", list(reversed(cms)))])
    assert a.points[0].fp_rate == b.points[0].fp_rate
    assert a.points[0].tp_rate == b.points[0].tp_rate


def test_family_curve_rejects_one_class_fold():
    with pytest.raises(ValueError, match="missing one class"):
        build_family_curve("fam", [("cell", [ConfusionMatrix(tp=0, fn=0, fp=1, tn=9)])])


def test_point_and_hull_files(tmp_path):
    curves = [
        curve((0, 0), (10, 80), family="a"),
        curve((20, 50), (30, 90), family="b"),
    ]
    hull = convex_hull(curves)
    points_path = tmp_path / "roc_points.csv"
    hull_path = tmp_path / "hull.csv"
    write_points_csv(points_path, curves, hull)
    write_hull_csv(hull_path, hull)

    lines = points_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,tag,fp_rate,tp_rate,on_hull"
    assert len(lines) == 5
    flags = {}
    for line in lines[1:]:
        family, tag, fp, tp, on_hull = line.split(",")
        flags[(family, float(fp), float(tp))] = on_hull
    assert flags[("a", 10.0, 80.0)] == "1"
    # (20,50) sits under the (10,80)-(30,90) segment
    assert flags[("b", 20.0, 50.0)] == "0"
    assert flags[("b", 30.0, 90.0)] == "1"

    hull_lines = hull_path.read_text(encoding="utf-8").splitlines()
    assert hull_lines[0] == "family,tag,fp_rate,tp_rate"
    assert len(hull_lines) == len(hull) + 1


def test_summary_json_stable_layout(tmp_path):
    path = tmp_path / "aucs.json"
    write_summary_json(path, {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text == '{\n  "a": 1,\n  "b": 2\n}\n'

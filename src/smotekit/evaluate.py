"""ROC analysis: confusion matrices, rates, trapezoid AUC, and the ROC convex hull.

The minority class is the positive class throughout. ROC coordinates are
percentages: ``fp_rate = 100 * FP / (TN + FP)`` on the x axis and
``tp_rate = 100 * TP / (TP + FN)`` on the y axis. Cross-validated points
average the per-fold percentages, never raw counts. AUC integrates the
piecewise-linear curve anchored at (0, 0) and (100, 100) and is reported on
the [0, 1] scale; the (0, 0) anchor is a reporting choice and is flagged in
output metadata so curves can be recomputed without it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .data import CSV_END, quote_fields, write_lines
from .record import _FrozenRecord, _Record

ANCHOR_FAMILY = "anchor"
ANCHORS = ("origin", "leftmost")  # AUC anchoring rules, the default first


class ConfusionMatrix(_FrozenRecord):
    _fields = ("tp", "fp", "tn", "fn")

    def __init__(self, tp: int, fp: int, tn: int, fn: int):
        for name, value in zip(self._fields, (tp, fp, tn, fn)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        vars(self).update(tp=tp, fp=fp, tn=tn, fn=fn)


class RocPoint(_FrozenRecord):
    """One operating point in percent coordinates, tagged with its grid cell."""

    _fields = ("fp_rate", "tp_rate", "tag")

    def __init__(self, fp_rate: float, tp_rate: float, tag: str = ""):
        for name, value in (("fp_rate", fp_rate), ("tp_rate", tp_rate)):
            if not (0.0 <= value <= 100.0):
                raise ValueError(f"{name} must lie in [0, 100], got {value}")
        vars(self).update(fp_rate=fp_rate, tp_rate=tp_rate, tag=tag)


class RocCurve(_Record):
    """Measured points of one resampling family, kept sorted by (fp, tp)."""

    _fields = ("family", "points")

    def __init__(self, family: str, points: tuple):
        self.family = family
        self.points = tuple(sorted(points, key=lambda p: (p.fp_rate, p.tp_rate)))


def auc(curve: RocCurve, anchor: str = ANCHORS[0]) -> float:
    """Trapezoid area under the curve on the [0, 1] scale.

    The point sequence is finalized before integrating: points sort by
    ascending (fp_rate, tp_rate), (100, 100) is appended when absent, and
    with ``anchor="origin"`` (the default, flagged in report metadata) a
    (0, 0) anchor is prepended so every curve spans the full fp range.
    ``anchor="leftmost"`` integrates from the leftmost measured point
    instead, leaving the spanned area as-is.
    """
    if anchor not in ANCHORS:
        raise ValueError(f"anchor must be {' or '.join(map(repr, ANCHORS))}, got {anchor!r}")
    if not curve.points:
        raise ValueError("cannot integrate an empty curve")
    pts = [(p.fp_rate, p.tp_rate) for p in curve.points]
    if anchor == "origin" and pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    if pts[-1] != (100.0, 100.0):
        pts.append((100.0, 100.0))
    areas = [
        (x2 - x1) * (y1 + y2) / 2.0
        for (x1, y1), (x2, y2) in zip(pts, pts[1:])
    ]
    return math.fsum(areas) / 10000.0


def auc_e4(value: float) -> int:
    """AUC as the conventional x10^4 integer (0.7242 prints as 7242)."""
    return int(round(value * 10000))


class HullVertex(_FrozenRecord):
    _fields = ("fp_rate", "tp_rate", "family", "tag")

    def __init__(self, fp_rate: float, tp_rate: float, family: str, tag: str = ""):
        vars(self).update(fp_rate=fp_rate, tp_rate=tp_rate, family=family, tag=tag)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(curves: Iterable[RocCurve]) -> list[HullVertex]:
    """Upper-left convex hull across all curves, anchored at (0,0) and (100,100).

    Returns the chain vertices sorted by fp_rate, each keeping the family and
    tag of the first curve that produced its coordinates. Dominated points and
    collinear interior points are dropped; the (0, 0) anchor itself is dropped
    when a measured point at fp 0 dominates it. A vertex on this hull is an
    operating point that is optimal for some cost ratio.
    """
    owner: dict = {}
    for curve in curves:
        for point in curve.points:
            key = (point.fp_rate, point.tp_rate)
            if key not in owner:
                owner[key] = (curve.family, point.tag)
    if not owner:
        raise ValueError("convex_hull needs at least one point")
    for key in ((0.0, 0.0), (100.0, 100.0)):
        if key not in owner:
            owner[key] = (ANCHOR_FAMILY, ANCHOR_FAMILY)
    pts = sorted(owner)
    chain: list = []
    for p in pts:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) >= 0:
            chain.pop()
        chain.append(p)
    # a vertical start segment means the origin anchor is dominated at fp = 0
    while len(chain) >= 2 and chain[0][0] == chain[1][0]:
        chain.pop(0)
    return [
        HullVertex(fp, tp, owner[(fp, tp)][0], owner[(fp, tp)][1]) for fp, tp in chain
    ]


def build_family_curve(family: str, results: Iterable) -> RocCurve:
    """Fold-averaged ROC curve for one family.

    Args:
        family: curve label.
        results: iterable of ``(tag, confusion_matrices)`` pairs, one per grid
            cell, where ``confusion_matrices`` holds one matrix per fold
            and is not empty: ``run_experiment`` reports a cell only when
            every one of its two or more folds ran.

    Rates average as the mean of per-fold percentages (math.fsum, so fold
    order cannot perturb the result). Cells that land on identical
    coordinates collapse to one point keeping the first tag.
    """
    points: list[RocPoint] = []
    seen: set = set()
    for tag, cms in results:
        fp_rates = []
        tp_rates = []
        for cm in cms:
            pos = cm.tp + cm.fn
            neg = cm.tn + cm.fp
            if pos == 0 or neg == 0:
                raise ValueError(
                    f"cell {tag!r}: a fold is missing one class entirely"
                )
            fp_rates.append(100.0 * cm.fp / neg)
            tp_rates.append(100.0 * cm.tp / pos)
        point = RocPoint(
            fp_rate=math.fsum(fp_rates) / len(fp_rates),
            tp_rate=math.fsum(tp_rates) / len(tp_rates),
            tag=str(tag),
        )
        key = (point.fp_rate, point.tp_rate)
        if key not in seen:
            seen.add(key)
            points.append(point)
    return RocCurve(family=family, points=tuple(points))


def write_points_csv(
    path: str | Path, curves: Sequence[RocCurve], hull: Sequence[HullVertex]
) -> None:
    """Plot-ready CSV of every measured point with an on-hull flag."""
    hull_coords = {(v.fp_rate, v.tp_rate) for v in hull}
    records = [
        (curve.family, p.tag, p.fp_rate, p.tp_rate, int((p.fp_rate, p.tp_rate) in hull_coords))
        for curve in curves
        for p in curve.points
    ]
    records.sort(key=lambda r: (r[0], r[2], r[3], r[1]))
    _write_report_csv(path, ["family", "tag", "fp_rate", "tp_rate", "on_hull"], records)


def write_hull_csv(path: str | Path, hull: Sequence[HullVertex]) -> None:
    records = [(v.family, v.tag, v.fp_rate, v.tp_rate) for v in hull]
    _write_report_csv(path, ["family", "tag", "fp_rate", "tp_rate"], records)


def _write_report_csv(path: str | Path, header: list[str], records: list[tuple]) -> None:
    """Records of (family, tag, number, ...) through the shared writer."""

    def chunk_text(part: slice) -> str:
        family, tag, *numbers = zip(*records[part])
        columns = [quote_fields(family), quote_fields(tag), *(map(repr, c) for c in numbers)]
        return CSV_END.join(map(",".join, zip(*columns))) + CSV_END

    write_lines(path, header, len(records), chunk_text)


def auc_summary(aucs: dict, hull: Sequence[HullVertex], anchor: str = ANCHORS[0]) -> dict:
    """The ``aucs.json`` core: the AUC anchoring rule, per-family AUC as a
    fraction and as ``auc_e4``, and the hull vertices."""
    return {
        "auc_anchor": anchor,
        "aucs": {
            family: {"auc": value, "auc_e4": auc_e4(value)}
            for family, value in sorted(aucs.items())
        },
        "hull_vertices": [
            {"family": v.family, "tag": v.tag, "fp_rate": v.fp_rate, "tp_rate": v.tp_rate}
            for v in hull
        ],
    }


def write_summary_json(path: str | Path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

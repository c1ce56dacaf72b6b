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

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .data import ClassLabel

ANCHOR_FAMILY = "anchor"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(
    predicted: Sequence[ClassLabel], actual: Sequence[ClassLabel]
) -> ConfusionMatrix:
    """Tally predictions against truth; minority is the positive class."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"{len(predicted)} predictions against {len(actual)} actual labels"
        )
    if not predicted:
        raise ValueError("need at least one row")
    tp = fp = tn = fn = 0
    for pred, act in zip(predicted, actual):
        pred_min = ClassLabel(pred) is ClassLabel.MINORITY
        act_min = ClassLabel(act) is ClassLabel.MINORITY
        if pred_min and act_min:
            tp += 1
        elif pred_min:
            fp += 1
        elif act_min:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics(cm: ConfusionMatrix) -> dict:
    """Summary rates for one confusion matrix.

    ``accuracy``, ``error_rate``, ``precision``, and ``recall`` are fractions
    in [0, 1]; ``tp_rate`` and ``fp_rate`` are the ROC percentages in
    [0, 100]. A rate whose denominator is zero is reported as None, never 0.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    pos = cm.tp + cm.fn
    neg = cm.tn + cm.fp
    predicted_pos = cm.tp + cm.fp
    return {
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "error_rate": (cm.fp + cm.fn) / cm.total,
        "tp_rate": 100.0 * cm.tp / pos if pos else None,
        "fp_rate": 100.0 * cm.fp / neg if neg else None,
        "precision": cm.tp / predicted_pos if predicted_pos else None,
        "recall": cm.tp / pos if pos else None,
    }


@dataclass(frozen=True)
class RocPoint:
    """One operating point in percent coordinates, tagged with its grid cell."""

    fp_rate: float
    tp_rate: float
    tag: str = ""

    def __post_init__(self):
        for name in ("fp_rate", "tp_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 100.0):
                raise ValueError(f"{name} must lie in [0, 100], got {value}")


@dataclass
class RocCurve:
    """Measured points of one resampling family, kept sorted by (fp, tp)."""

    family: str
    points: tuple

    def __post_init__(self):
        self.points = tuple(
            sorted(self.points, key=lambda p: (p.fp_rate, p.tp_rate))
        )


def auc(curve: RocCurve, anchor: str = "origin") -> float:
    """Trapezoid area under the curve on the [0, 1] scale.

    The point sequence is finalized before integrating: points sort by
    ascending (fp_rate, tp_rate), (100, 100) is appended when absent, and
    with ``anchor="origin"`` (the default, flagged in report metadata) a
    (0, 0) anchor is prepended so every curve spans the full fp range.
    ``anchor="leftmost"`` integrates from the leftmost measured point
    instead, leaving the spanned area as-is.
    """
    if anchor not in ("origin", "leftmost"):
        raise ValueError(f"anchor must be 'origin' or 'leftmost', got {anchor!r}")
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


@dataclass(frozen=True)
class HullVertex:
    fp_rate: float
    tp_rate: float
    family: str
    tag: str = ""


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
            cell, where ``confusion_matrices`` holds one matrix per fold.

    Rates average as the mean of per-fold percentages (math.fsum, so fold
    order cannot perturb the result). Cells that land on identical
    coordinates collapse to one point keeping the first tag.
    """
    points: list[RocPoint] = []
    seen: set = set()
    for tag, cms in results:
        cms = list(cms)
        if not cms:
            raise ValueError(f"cell {tag!r} has no fold results")
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
    records = []
    for curve in curves:
        for point in curve.points:
            records.append(
                (
                    curve.family,
                    point.tag,
                    point.fp_rate,
                    point.tp_rate,
                    1 if (point.fp_rate, point.tp_rate) in hull_coords else 0,
                )
            )
    records.sort(key=lambda r: (r[0], r[2], r[3], r[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "tag", "fp_rate", "tp_rate", "on_hull"])
        for family, tag, fp, tp, flag in records:
            writer.writerow([family, tag, repr(fp), repr(tp), flag])


def write_hull_csv(path: str | Path, hull: Sequence[HullVertex]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "tag", "fp_rate", "tp_rate"])
        for vertex in hull:
            writer.writerow(
                [vertex.family, vertex.tag, repr(vertex.fp_rate), repr(vertex.tp_rate)]
            )


def auc_summary(aucs: dict, hull: Sequence[HullVertex], anchor: str = "origin") -> dict:
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

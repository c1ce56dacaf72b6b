"""Independent re-implementations used only to cross-check the package.

Each oracle favors a different algorithmic route than the production code so
that agreement is evidence, not tautology: AUC by midpoint Riemann sums
instead of trapezoids, hull membership by exhaustive pairwise domination
instead of a chain scan, neighbors by a full stable sort instead of lexsort
selection, distances by a loop over one pair of row tuples instead of
vectorized blocks, and text files by ``csv.writer`` and ``json.dumps`` over
one row at a time instead of column chunks. :func:`dataset_from_rows` lets a
test write a table as row tuples and labels.
"""

import csv
import io
import json
import math

import numpy as np

from smotekit.data import Dataset

# The label of one row for dataset_from_rows: its minority flag.
MINORITY, MAJORITY = True, False


def dataset_from_rows(schema, rows, labels, minority_token="minority", majority_token="majority"):
    """A Dataset of row tuples (floats in continuous positions, str tokens in
    nominal ones) and one MINORITY or MAJORITY label per row, built from the
    columns the rows transpose into."""
    rows = tuple(rows)
    columns = [[row[i] for row in rows] for i in range(len(schema.features))]
    return Dataset(schema, columns, list(labels), minority_token, majority_token)


def finalize_curve(points, anchor="origin"):
    """Sorted point list with the same anchoring rules the package applies."""
    pts = sorted(points)
    if anchor == "origin" and pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    if pts[-1] != (100.0, 100.0):
        pts.append((100.0, 100.0))
    return pts


def riemann_auc(points, total_strips=1_000_000, anchor="origin"):
    """Midpoint Riemann sum over the piecewise-linear curve.

    Strips are allotted per segment in proportion to width (every segment of
    nonzero width gets at least one) so narrow steep segments are integrated
    as carefully as wide flat ones.
    """
    pts = finalize_curve(points, anchor)
    widths = [x2 - x1 for (x1, _), (x2, _) in zip(pts, pts[1:])]
    span = sum(widths)
    pieces = []
    for (x1, y1), (x2, y2), width in zip(pts, pts[1:], widths):
        if width == 0:
            continue
        strips = max(1, int(round(total_strips * width / span)))
        step = width / strips
        slope = (y2 - y1) / width
        mids = x1 + (np.arange(strips) + 0.5) * step
        pieces.append(float(np.sum(step * (y1 + slope * (mids - x1)))))
    return math.fsum(pieces) / 10000.0


def hull_membership(points):
    """Map each distinct point to True iff it is a vertex of the upper hull.

    A point is NOT a vertex when some segment between two other points (or a
    single other point sharing its fp) meets or exceeds its tp at its fp
    coordinate. Exact on integer coordinates: all comparisons are integer
    cross products. Anchors (0,0) and (100,100) participate like any point.
    """
    pts = sorted({(float(x), float(y)) for x, y in points} | {(0.0, 0.0), (100.0, 100.0)})
    verdict = {}
    for p in pts:
        dominated = False
        for a in pts:
            if a == p:
                continue
            for b in pts:
                if b == p:
                    continue
                lo, hi = (a, b) if a[0] <= b[0] else (b, a)
                if not (lo[0] <= p[0] <= hi[0]):
                    continue
                if lo[0] == hi[0]:
                    if lo[0] == p[0] and max(lo[1], hi[1]) >= p[1]:
                        dominated = True
                else:
                    lhs = (p[1] - lo[1]) * (hi[0] - lo[0])
                    rhs = (hi[1] - lo[1]) * (p[0] - lo[0])
                    if lhs <= rhs:
                        dominated = True
                if dominated:
                    break
            if dominated:
                break
        verdict[p] = not dominated
    return verdict


def sorted_neighbors(rows, k, distance):
    """Neighbor lists by full sort over (distance, index), self excluded."""
    out = []
    for i, a in enumerate(rows):
        order = sorted(
            (j for j in range(len(rows)) if j != i),
            key=lambda j: (distance(a, rows[j]), j),
        )
        out.append(tuple(order[: min(k, len(rows) - 1)]))
    return tuple(out)


def euclidean(a, b):
    """Euclidean distance between two all-continuous row tuples."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def nc_distance(a, b, kinds, med):
    """Mixed distance: squared continuous gaps plus ``med ** 2`` per differing
    nominal feature, square-rooted; ``kinds`` names each feature's kind."""
    total = 0.0
    for x, y, kind in zip(a, b, kinds):
        if kind == "continuous":
            total += (x - y) ** 2
        elif x != y:
            total += med * med
    return math.sqrt(total)


def vdm_delta(table, feature, v1, v2):
    """Category-pair delta: sum over classes of |C1i/C1 - C2i/C2|."""
    c1 = table.counts[feature][v1]
    c2 = table.counts[feature][v2]
    delta = 0.0
    for i in range(2):
        delta += abs(c1[i] / sum(c1) - c2[i] / sum(c2))
    return delta


def vdm_distance(table, x, y):
    """Sum over features of ``vdm_delta``."""
    return sum(vdm_delta(table, f, x[f], y[f]) for f in range(len(x)))


def metric_oracle(metric):
    """The per-pair oracle ``(a, b) -> float`` of a metric object."""
    name = type(metric).__name__
    if name == "EuclideanMetric":
        return euclidean
    if name == "NcMetric":
        return lambda a, b: nc_distance(a, b, metric.schema.kinds, metric.params.med)
    if name == "VdmMetric":
        return lambda a, b: vdm_distance(metric.table, a, b)
    raise TypeError(f"no oracle for {name}")


def csv_text(header, rows):
    """``header`` and the row tuples as ``csv.writer`` writes them, with each
    float field as its ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def provenance_text(base_index, neighbor_index, gaps, variant):
    """One ``json.dumps(record, sort_keys=True)`` line per synthetic row: gap
    null with no draws, a number with one, else the list of draws."""
    lines = []
    for base, neighbor, draws in zip(base_index, neighbor_index, gaps):
        gap = None if not draws else draws[0] if len(draws) == 1 else list(draws)
        record = {"variant": variant, "neighbor_index": neighbor, "gap": gap, "base_index": base}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)

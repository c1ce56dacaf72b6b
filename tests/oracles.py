"""Independent re-implementations used only to cross-check the package.

Each oracle favors a different algorithmic route than the production code so
that agreement is evidence, not tautology: AUC by midpoint Riemann sums
instead of trapezoids, hull membership by exhaustive pairwise domination
instead of a chain scan, neighbors by a full stable sort instead of lexsort
selection, distances by a loop over one pair of row tuples instead of
vectorized blocks, and text files by ``csv.writer`` and ``json.dumps`` over
one row at a time instead of column chunks. Nominal votes and category
counts go one voter position or one feature at a time, where the package
counts whole blocks in one sort or one ``np.bincount``.
:func:`reference_experiment` runs an experiment cell by cell, each cell and
fold searching its own neighbors and fitting its own model, where
``run_experiment`` runs fold by fold and shares both.
:func:`dataset_from_rows` lets a test write a table as row tuples and
labels.
"""

import csv
import io
import json
import math

import numpy as np

from smotekit.data import Dataset, stratified_folds
from smotekit.errors import DataError
from smotekit.evaluate import auc, build_family_curve, convex_hull
from smotekit.model import ClassifierSpec, confusion_from_scores, score_external, train
from smotekit.resample import apply_plan_detailed, synthesis_source, variant_neighbors
from smotekit.rng import child_seed

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


def vote_by_position(codes, lists, base_votes):
    """``resample._vote`` one voter position at a time: each position's code
    takes the lead when it has more votes than the leader, or as many and a
    lower code; the row's own code wins a tie with the leader."""
    if not codes.shape[1]:
        return codes
    voters = codes[lists]
    if base_votes:
        voters = np.concatenate([codes[:, None, :], voters], axis=1)
    top = np.zeros_like(codes)
    leader = codes
    for p in range(voters.shape[1]):
        code = voters[:, p]
        votes = (voters == code[:, None, :]).sum(axis=1)
        better = (votes > top) | ((votes == top) & (code < leader))
        top = np.where(better, votes, top)
        leader = np.where(better, code, leader)
    own_votes = (voters == codes[:, None, :]).sum(axis=1)
    return np.where(own_votes == top, codes, leader)


def nominal_loglik_by_feature(ds):
    """``TrainedModel.nominal_loglik`` of naive Bayes fit on ``ds``, one
    feature at a time: each class's codes counted by their own
    ``np.bincount``, one slot past the intern table for code -1."""
    n_min, n_maj = ds.n_minority, ds.n_majority
    out = []
    for i, column in zip(ds.schema.nominal_indices, ds.codes.T):
        size = len(ds.intern[i]) + 1
        counts = np.stack(
            [np.bincount(column[mask], minlength=size) for mask in (ds.minority, ~ds.minority)]
        )
        n_seen = np.count_nonzero(counts.sum(axis=0))
        out.append(np.log((counts + 1) / [[n_min + n_seen], [n_maj + n_seen]]))
    return out


def vdm_counts_by_feature(ds):
    """``VdmTable.from_dataset(ds).counts``, one feature and one class at a
    time."""
    counts = []
    for f, table in enumerate(ds.intern):
        n_min = np.bincount(ds.codes[ds.minority, f], minlength=len(table))
        n_maj = np.bincount(ds.codes[~ds.minority, f], minlength=len(table))
        counts.append(
            {value: (a, b) for value, a, b in zip(table, n_min.tolist(), n_maj.tolist()) if a + b}
        )
    return tuple(counts)


def metric_oracle(metric):
    """The per-pair oracle ``(a, b) -> float`` of a metric object."""
    name = type(metric).__name__
    if name == "EuclideanMetric":
        return euclidean
    if name == "NcMetric":
        return lambda a, b: nc_distance(a, b, metric.schema.kinds, metric.med)
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


def _reference_grid(cfg):
    """``(label, variant, cells)`` per curve in family order; a cell is
    ``(tag, plan, spec, threshold)`` with ``plan`` the (over, under) pair the
    training split is resampled by, or None to fit on the split as it is."""
    spec = cfg.classifier
    raw = [("raw", None, spec, spec.threshold)] if cfg.include_raw_point else []
    for family in cfg.families:
        if family in ("smote_under", "replicate"):
            variant = "replicate" if family == "replicate" else cfg.variant
            for over in cfg.over_percents:
                cells = [
                    (f"over={over},under={u}", (over, u), spec, spec.threshold)
                    for u in cfg.under_percents
                ]
                yield f"{family}@{over}", variant, raw + cells
        elif family == "plain_under":
            cells = [(f"under={u}", (0, u), spec, spec.threshold) for u in cfg.under_percents]
            yield family, cfg.variant, raw + cells
        elif family == "priors_sweep":
            yield family, None, [
                (
                    f"prior={m}",
                    None,
                    ClassifierSpec(spec.kind, m, spec.threshold, spec.command),
                    spec.threshold,
                )
                for m in cfg.prior_multipliers
            ]
        else:  # threshold_sweep
            yield family, None, [(f"threshold={t}", None, spec, t) for t in cfg.thresholds]


def _reference_cell(cfg, splits, label, variant, tag, plan, spec, threshold):
    """One cell over every fold: (confusion matrices, training set sizes),
    or the warning of the first fold that skips it."""
    cms, sizes = [], []
    for f, (train_ds, test) in enumerate(splits):
        if plan is not None:
            source = None
            if variant != "replicate" and plan[0] > 0:
                try:  # the search and vote this cell would make alone
                    lists = variant_neighbors(train_ds, cfg.k, variant)
                except DataError as exc:
                    return f"{label} cell {tag}: fold {f}: {exc}"
                source = synthesis_source(variant, train_ds.minority_subset(), lists)
            train_ds = apply_plan_detailed(
                train_ds, *plan, cfg.k, child_seed(cfg.seed, label, tag, f), variant,
                gap_mode=cfg.gap_mode, neighbor_mode=cfg.neighbor_mode,
                under_basis=cfg.under_basis, source=source,
            ).dataset
            if train_ds.n_majority == 0:
                return f"{label} cell {tag}: under-sampling emptied the majority class"
        if spec.kind == "external":
            scores = score_external(spec.command, train_ds, test)
        else:
            scores = train(train_ds, spec).score_rows(test)
        cms.append(confusion_from_scores(scores, test.minority, threshold))
        sizes.append((train_ds.n_minority, train_ds.n_majority))
    return cms, sizes


def reference_experiment(ds, cfg):
    """``run_experiment``'s curves, AUCs, hull, cell sizes and warnings by
    the plainest route: cell by cell, and within a cell fold by fold, each
    with its own neighbor search on the fold's training split, its own
    resampling and its own fresh fit."""
    folds = stratified_folds(ds, cfg.n_folds, child_seed(cfg.seed, "folds"))
    splits = [
        (ds.subset(np.flatnonzero(folds != f)), ds.subset(np.flatnonzero(folds == f)))
        for f in range(cfg.n_folds)
    ]
    curves, cell_sizes, warnings = [], {}, []
    for label, variant, cells in _reference_grid(cfg):
        results = []
        for tag, plan, spec, threshold in cells:
            outcome = _reference_cell(cfg, splits, label, variant, tag, plan, spec, threshold)
            if isinstance(outcome, str):
                warnings.append(outcome)
                continue
            cms, sizes = outcome
            results.append((tag, cms))
            if variant is not None:
                cell_sizes[(label, tag)] = sizes
        if results:
            curves.append(build_family_curve(label, results))
    curves.sort(key=lambda c: c.family)
    return {
        "curves": curves,
        "aucs": {curve.family: auc(curve) for curve in curves},
        "hull": convex_hull(curves) if curves else [],
        "cell_sizes": cell_sizes,
        "warnings": warnings,
    }

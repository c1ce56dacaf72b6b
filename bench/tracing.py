"""Outside-in tracing of one smotekit CLI call, and the per-layer metrics.

The wrappers are installed from this file at the name each caller looks up:
modules bind with ``from ... import``, so ``smotekit.pipeline.train`` is
patched rather than ``smotekit.model.train``, and methods are patched on their
classes. Nothing under ``src/`` changes. Each wrapped call records one span
``(name, start, end, parent, work)`` in memory; ``work`` is a count of what the
call did (rows, cells, ...) or, for neighbor search, a digest of its input.
The spans are written as JSON when the call ends.

Run as a child process in place of ``python -m smotekit.cli``::

    python3 bench/tracing.py SPANS_JSON CLI_ARG...

All ``*_s`` metrics are self time (span minus its child spans) except the
inclusive ``cli.main_s``, ``pipeline.run_experiment_s`` and
``pipeline.emit_report_s``. When every span nests inside the one
``cli.main`` span (:func:`trace_problems` checks this), the self-time metrics
partition that root span and sum to ``cli.main_s`` within
``SELF_TIME_TOLERANCE``.

Importing this module needs only the standard library; :func:`install`
imports smotekit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

# Share of cli.main_s by which the self-time metrics may miss it, and the
# slack allowed on each span's nesting: spans nest strictly in this
# single-threaded program, so only float rounding is left.
SELF_TIME_TOLERANCE = 1e-6

# span name -> (layer metric prefix holding its self time, call counter,
# work counter); a counter of None is not reported.
SPANS = {
    "cli.main": ("cli.self", None, None),
    "pipeline.run_experiment": ("pipeline.self", None, None),
    "pipeline.emit_report": ("pipeline.self", None, None),
    "resample.apply_plan": ("resample.apply_plan_self", "resample.apply_plan_calls", None),
    "resample.synth": ("resample.synth", None, "resample.synth_rows"),
    "resample.under_sample": ("resample.under_sample", None, None),
    "resample.audit": ("resample.audit", None, None),
    "resample.write_provenance": ("resample.write_provenance", None, "resample.provenance_rows"),
    "neighbors.knn": ("neighbors.knn_self", "neighbors.knn_calls", None),
    "distance.pairwise": (
        "distance.pairwise", "distance.pairwise_calls", "distance.pairwise_cells"
    ),
    "distance.vdm_table": ("distance.vdm_table", "distance.vdm_table_calls", None),
    "distance.compute_med": ("distance.compute_med", None, None),
    "model.train": ("model.train", "model.train_calls", "model.train_rows"),
    "model.score": ("model.score", None, "model.rows_scored"),
    "model.confusion": ("model.confusion", "model.confusion_calls", None),
    "data.load_csv": ("data.load_csv", None, "data.load_csv_rows"),
    "data.save_csv": ("data.save_csv", None, "data.save_csv_rows"),
    "data.stratified_folds": ("data.stratified_folds", None, "pipeline.folds"),
    "data.dataset_init": ("data.dataset_init", "data.dataset_init_calls", None),
    "data.subset": ("data.subset", None, None),
    "evaluate.curve": ("evaluate.curve", None, None),
    "evaluate.auc": ("evaluate.auc", None, None),
    "evaluate.hull": ("evaluate.hull", None, "evaluate.hull_points"),
    "evaluate.write": ("evaluate.write", None, None),
}

# span name -> metric of its inclusive time
INCLUSIVE = {
    "cli.main": "cli.main_s",
    "pipeline.run_experiment": "pipeline.run_experiment_s",
    "pipeline.emit_report": "pipeline.emit_report_s",
}

# Every grid cell that is evaluated, the raw cell and sweeps included, trains
# one model per fold, so cells run = model.train calls / folds. A cell that is
# skipped, or served from a cache, trains nothing.
DERIVED = (
    "neighbors.knn_distinct_inputs",
    "neighbors.knn_useful_ratio",
    "pipeline.cells_run",
    "pipeline.cells_skipped",
)

# Work counters used to derive other metrics and not reported themselves.
INTERNAL = ("pipeline.folds",)


def metric_names() -> list[str]:
    """Every per-layer metric a traced call reports, sorted."""
    names = set(INCLUSIVE.values()) | set(DERIVED)
    for self_prefix, calls, work in SPANS.values():
        names.add(self_prefix + "_s")
        names.update(n for n in (calls, work) if n)
    return sorted(names - set(INTERNAL))


class Tracer:
    """Spans of one call, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, work]
        self._open: list[int] = []

    def wrap(self, name: str, fn, work=None, key=None):
        """``fn`` recording a span; ``work(args, result)`` counts its work,
        ``key(args)`` digests its input (computed outside the span)."""
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tag = key(args) if key else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, tag])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if work:
                spans[index][4] = work(args, result)
            return result

        return traced

    def dump(self, path: str, skipped: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "cells_skipped": skipped}, fh)


def _knn_key(args) -> str:
    """Digest of what a neighbor list depends on: rows, k and the metric."""
    rows, k, metric = args
    state = getattr(metric, "params", None) or getattr(metric, "table", None)
    text = repr((rows, k, type(metric).__name__, state))
    return hashlib.sha1(text.encode()).hexdigest()


def install(tracer: Tracer) -> dict:
    """Patch smotekit at every call site the CLI reaches; returns a dict that
    collects the skipped-cell count from ``run_experiment``'s result."""
    from smotekit import cli, data, distance, model, pipeline, resample

    outcome = {"cells_skipped": 0}
    w = tracer.wrap

    def patch(module, attr, name, **kw):
        setattr(module, attr, w(name, getattr(module, attr), **kw))

    def rows_of(args, result):
        return len(result.rows)

    def skipped(args, result):
        outcome["cells_skipped"] += len(result.warnings)
        return None

    patch(cli, "main", "cli.main")
    patch(cli, "run_experiment", "pipeline.run_experiment", work=skipped)
    patch(cli, "emit_report", "pipeline.emit_report")
    patch(cli, "load_csv", "data.load_csv", work=lambda a, r: len(r))
    patch(cli, "save_csv", "data.save_csv", work=lambda a, r: len(a[0]))
    patch(cli, "write_provenance", "resample.write_provenance",
          work=lambda a, r: len(a[1].provenance))
    for module in (cli, pipeline):
        patch(module, "apply_plan_detailed", "resample.apply_plan")
    for attr in ("smote", "smote_nc", "smote_n", "replicate_oversample"):
        patch(resample, attr, "resample.synth", work=rows_of)
    patch(resample, "under_sample", "resample.under_sample")
    patch(resample, "knn_minority", "neighbors.knn", key=_knn_key)
    patch(resample, "compute_med", "distance.compute_med")
    patch(pipeline, "audit_batch", "resample.audit")
    patch(pipeline, "stratified_folds", "data.stratified_folds", work=lambda a, r: a[1])
    patch(pipeline, "train", "model.train", work=lambda a, r: len(a[0]))
    patch(pipeline, "confusion_from_scores", "model.confusion")
    patch(pipeline, "build_family_curve", "evaluate.curve")
    patch(pipeline, "auc", "evaluate.auc")
    patch(pipeline, "convex_hull", "evaluate.hull", work=lambda a, r: len(r))
    for attr in ("write_points_csv", "write_hull_csv", "write_summary_json"):
        patch(pipeline, attr, "evaluate.write")
    for cls in (distance.EuclideanMetric, distance.NcMetric, distance.VdmMetric):
        patch(cls, "pairwise", "distance.pairwise", work=lambda a, r: len(a[1]) ** 2)
    patch(model.TrainedModel, "score_rows", "model.score", work=lambda a, r: len(a[1]))
    patch(data.Dataset, "subset", "data.subset")
    patch(data.Dataset, "__post_init__", "data.dataset_init")
    from_dataset = distance.VdmTable.__dict__["from_dataset"].__func__
    distance.VdmTable.from_dataset = classmethod(w("distance.vdm_table", from_dataset))
    return outcome


def self_times(spans: list) -> list[float]:
    """Self time per span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced call, every name in :func:`metric_names`."""
    spans = trace["spans"]
    metrics = dict.fromkeys(metric_names() + list(INTERNAL), 0)
    knn_inputs = set()
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, work = span
        self_prefix, calls, counted = SPANS[name]
        metrics[self_prefix + "_s"] += own
        if calls:
            metrics[calls] += 1
        if counted and work is not None:
            metrics[counted] += work
        if name == "neighbors.knn":
            knn_inputs.add(work)
        if name in INCLUSIVE:
            metrics[INCLUSIVE[name]] += end - start
    metrics["neighbors.knn_distinct_inputs"] = len(knn_inputs)
    if metrics["neighbors.knn_calls"]:
        metrics["neighbors.knn_useful_ratio"] = (
            len(knn_inputs) / metrics["neighbors.knn_calls"]
        )
    folds = metrics.pop("pipeline.folds")
    if folds:
        metrics["pipeline.cells_run"] = metrics["model.train_calls"] / folds
    metrics["pipeline.cells_skipped"] = trace["cells_skipped"]
    return metrics


def self_time_sum(metrics: dict) -> float:
    """Sum of the self-time metrics; equals ``cli.main_s`` for a sound trace."""
    return sum(metrics[prefix + "_s"] for prefix in {v[0] for v in SPANS.values()})


def trace_problems(trace: dict, wall: float) -> list[str]:
    """What is wrong with one call's spans; empty when they are sound.

    The first span must be the only root and be ``cli.main``; every other
    span must lie inside its parent's interval; the root must fit in ``wall``,
    the wall time of the traced child measured from outside. A span recorded
    outside ``cli.main``, or a wrapper that loses its parent, shows here.
    """
    spans = trace["spans"]
    if not spans or spans[0][0] != "cli.main" or spans[0][3] is not None:
        return ["the first span is not a root cli.main span"]
    slack = SELF_TIME_TOLERANCE * (spans[0][2] - spans[0][1])
    problems = []
    for index, (name, start, end, parent, _) in enumerate(spans[1:], 1):
        if parent is None or not 0 <= parent < index:
            problems.append(f"span {index} ({name}) has no parent before it")
            continue
        _, p_start, p_end, _, _ = spans[parent]
        if start < p_start - slack or end > p_end + slack or end < start:
            problems.append(f"span {index} ({name}) is not inside its parent")
    if spans[0][2] - spans[0][1] > wall:
        problems.append(f"cli.main span is longer than the child's wall time {wall:.3f} s")
    return problems


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    outcome = install(tracer)
    from smotekit import cli

    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, outcome["cells_skipped"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

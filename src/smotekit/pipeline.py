"""Experiment driver: resampling grids, cross-validation, and report files.

One experiment runs a set of curve families over a shared stratified fold
assignment:

* ``smote_under``: one curve per over-sampling percent, sweeping the
  under-sampling percents within each curve (synthesis variant configurable);
* ``plain_under``: one curve sweeping under-sampling alone;
* ``replicate``: like smote_under but over-sampling by replication;
* ``priors_sweep``: naive Bayes with the minority prior scaled by each
  multiplier, no resampling;
* ``threshold_sweep``: one model per fold on the raw split, swept over
  decision thresholds.

The grid of cells is laid out first; then the folds run one at a time. A fold
builds its training and test split once, fits the classifier once on the
unresampled split (the raw point of every curve, every ``priors_sweep`` cell,
whose multiplier moves only the two log priors, and every
``threshold_sweep`` cell score that one fit) and runs every resampling cell
on that split, so memory does not grow with the number of folds. A cell that
any fold skips (under-sampling left no majority rows, or the training minority
is too thin for the variant's neighbor search) is dropped with one warning,
and a curve with no cell left is dropped.

Resampling happens inside each training fold only and is audited per cell so
synthetic provenance can never reference test rows. Every (family, cell,
fold) triple draws from its own named RNG substream, so cells are independent:
evaluation order cannot change any result. Reports are deterministic files
with no timestamps; the manifest captures config and library versions so a
run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, stratified_folds
from .errors import ConfigError, DataError
from .evaluate import (
    RocCurve,
    auc,
    auc_summary,
    build_family_curve,
    convex_hull,
    write_hull_csv,
    write_points_csv,
    write_summary_json,
)
from .model import ClassifierSpec, _is_real, confusion_from_scores, score_external, train
from .record import _Record
from .resample import (
    GAP_MODES,
    NEIGHBOR_MODES,
    PER_ATTRIBUTE,
    UNDER_BASES,
    VARIANTS,
    WITH_REPLACEMENT,
    apply_plan_detailed,
    audit_batch,
    fold_neighbors,
)
from .rng import child_seed

FAMILIES = ("smote_under", "plain_under", "replicate", "priors_sweep", "threshold_sweep")

DEFAULT_OVER = (50, 100, 200, 300, 400, 500)
DEFAULT_UNDER = (
    10, 15, 25, 50, 75, 100, 125, 150, 175, 200,
    300, 400, 500, 600, 700, 800, 1000, 2000,
)
DEFAULT_MULTIPLIERS = (1, 2, 5, 10, 20, 30, 40, 50)
DEFAULT_THRESHOLDS = (
    0.5, 0.45, 0.42, 0.4, 0.35, 0.32, 0.3, 0.27, 0.25,
    0.22, 0.2, 0.17, 0.15, 0.12, 0.1, 0.05, 0.0,
)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class ExperimentConfig(_Record):
    _fields = (
        "families", "over_percents", "under_percents", "k", "n_folds", "seed", "variant",
        "classifier", "prior_multipliers", "thresholds", "gap_mode", "neighbor_mode",
        "under_basis", "include_raw_point",
    )

    def __init__(
        self,
        families: tuple = ("smote_under", "plain_under"),
        over_percents: tuple = DEFAULT_OVER,
        under_percents: tuple = DEFAULT_UNDER,
        k: int = 5,
        n_folds: int = 10,
        seed: int = 0,
        variant: str = "smote",
        classifier: ClassifierSpec = ClassifierSpec(),
        prior_multipliers: tuple = DEFAULT_MULTIPLIERS,
        thresholds: tuple = DEFAULT_THRESHOLDS,
        gap_mode: str = PER_ATTRIBUTE,
        neighbor_mode: str = WITH_REPLACEMENT,
        under_basis: str = "pre",
        include_raw_point: bool = True,
    ):
        self.families = families
        self.over_percents = over_percents
        self.under_percents = under_percents
        self.k = k
        self.n_folds = n_folds
        self.seed = seed
        self.variant = variant
        self.classifier = classifier
        self.prior_multipliers = prior_multipliers
        self.thresholds = thresholds
        self.gap_mode = gap_mode
        self.neighbor_mode = neighbor_mode
        self.under_basis = under_basis
        self.include_raw_point = include_raw_point

    def validate(self) -> None:
        if not self.families:
            raise ConfigError("family list is empty")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ConfigError(f"unknown families {unknown}; known: {list(FAMILIES)}")
        if len(set(self.families)) != len(self.families):
            raise ConfigError("duplicate families")
        needs_over = {"smote_under", "replicate"} & set(self.families)
        if needs_over and not self.over_percents:
            raise ConfigError("over_percents is empty but an over-sampling family is selected")
        needs_under = {"smote_under", "plain_under", "replicate"} & set(self.families)
        if needs_under and not self.under_percents:
            raise ConfigError("under_percents is empty but an under-sampling family is selected")
        if "priors_sweep" in self.families:
            if not self.prior_multipliers:
                raise ConfigError("prior_multipliers is empty but priors_sweep is selected")
            if self.classifier.kind != "naive_bayes":
                raise ConfigError("priors_sweep requires the built-in naive Bayes")
        if "threshold_sweep" in self.families and not self.thresholds:
            raise ConfigError("thresholds is empty but threshold_sweep is selected")
        for name in ("k", "n_folds", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("over_percents", "under_percents"):
            values = getattr(self, name)
            if not all(map(_is_int, values)):
                raise ConfigError(f"{name} must be integers, got {list(values)!r}")
        for name in ("prior_multipliers", "thresholds"):
            values = getattr(self, name)
            if not all(map(_is_real, values)):
                raise ConfigError(f"{name} must be numbers, got {list(values)!r}")
        if not isinstance(self.include_raw_point, bool):
            value = self.include_raw_point
            raise ConfigError(f"include_raw_point must be true or false, got {value!r}")
        for name in ("over_percents", "under_percents", "prior_multipliers", "thresholds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):  # 2 and 2.0 are one value
                raise ConfigError(f"duplicate {name}")
        if any(p <= 0 for p in self.over_percents):
            raise ConfigError("over_percents must be positive")
        if any(p <= 0 for p in self.under_percents):
            raise ConfigError("under_percents must be positive")
        if any(m <= 0 for m in self.prior_multipliers):
            raise ConfigError("prior multipliers must be positive")
        if not all(map(math.isfinite, self.prior_multipliers)):
            values = list(self.prior_multipliers)
            raise ConfigError(f"prior_multipliers must be finite, got {values!r}")
        if any(not (0.0 <= t <= 1.0) for t in self.thresholds):
            raise ConfigError("thresholds must lie in [0, 1]")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be at least 2, got {self.n_folds}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.gap_mode not in GAP_MODES:
            raise ConfigError(f"unknown gap mode {self.gap_mode!r}")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ConfigError(f"unknown neighbor mode {self.neighbor_mode!r}")
        if self.under_basis not in UNDER_BASES:
            known = " or ".join(map(repr, UNDER_BASES))
            raise ConfigError(f"under_basis must be {known}, got {self.under_basis!r}")

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self._fields}
        spec = self.classifier
        out["classifier"] = {name: getattr(spec, name) for name in ClassifierSpec._fields}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        spec = kwargs.pop("classifier", None)
        if spec is not None:
            kwargs["classifier"] = ClassifierSpec(**spec)
        return cls(**kwargs)


class ExperimentResult(_Record):
    _fields = (
        "curves", "aucs", "hull", "hull_counts", "family_hull_counts", "dominant_family",
        "statement", "warnings", "cell_sizes", "config",
    )

    def __init__(
        self,
        curves: list,
        aucs: dict,
        hull: list,
        hull_counts: dict,
        family_hull_counts: dict,
        dominant_family: str,
        statement: str,
        warnings: list,
        cell_sizes: dict,
        config: dict,
    ):
        self.curves = curves
        self.aucs = aucs
        self.hull = hull
        self.hull_counts = hull_counts  # per curve family, anchors under "anchor"
        self.family_hull_counts = family_hull_counts  # per base family, anchors excluded
        self.dominant_family = dominant_family
        self.statement = statement
        self.warnings = warnings
        self.cell_sizes = cell_sizes  # (curve family, tag) -> per-fold (n_minority, n_majority)
        self.config = config


def _confusions(cells, train_ds: Dataset, test: Dataset) -> dict:
    """Confusion matrix per ``(spec, threshold)`` of the non-empty ``cells``.

    The specs may differ only in prior multiplier: all of them score from one
    fit or scorer run on ``train_ds``, tallied at all of their thresholds.
    """
    thresholds: dict = {}  # spec -> thresholds its scores are tallied at
    for s, t in cells:
        thresholds.setdefault(s, []).append(t)
    specs = list(thresholds)
    if specs[0].kind == "external":
        swept = [score_external(specs[0].command, train_ds, test)]
    else:
        swept = train(train_ds, specs[0]).score_rows(test, [s.prior_multiplier for s in specs])
    cms = {}
    for s, scores in zip(specs, swept):
        tallies = confusion_from_scores(scores, test.minority, thresholds[s])
        cms.update(((s, t), cm) for t, cm in zip(thresholds[s], tallies))
    return cms


def run_experiment(ds: Dataset, cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured family over a shared fold assignment.

    The grid is laid out first, one ``(label, variant, cells)`` entry per
    curve; then the folds run one at a time, so one training split is alive
    at a time. Warnings and curves follow grid order. A cell that any fold
    skips is dropped with a warning, and a curve left with no points is
    dropped (its warnings stay); see the module docstring for the rules.
    """
    cfg.validate()
    folds = stratified_folds(ds, cfg.n_folds, child_seed(cfg.seed, "folds"))
    spec = cfg.classifier
    # a cell is (tag, plan, spec, threshold): plan is the (over, under) pair
    # the training split is resampled by, or None for spec fit on the raw split
    raw = [("raw", None, spec, spec.threshold)] if cfg.include_raw_point else []
    grid = []  # variant is None for the sweeps that never resample
    for family in cfg.families:
        if family in ("smote_under", "replicate"):
            variant = "replicate" if family == "replicate" else cfg.variant
            for over in cfg.over_percents:
                cells = [
                    (f"over={over},under={under}", (over, under), spec, spec.threshold)
                    for under in cfg.under_percents
                ]
                grid.append((f"{family}@{over}", variant, raw + cells))
        elif family == "plain_under":
            # over-sampling at 0 percent leaves the variant inert
            cells = [(f"under={u}", (0, u), spec, spec.threshold) for u in cfg.under_percents]
            grid.append(("plain_under", cfg.variant, raw + cells))
        elif family == "priors_sweep":
            cells = [
                (
                    f"prior={m}",
                    None,
                    ClassifierSpec(spec.kind, m, spec.threshold, spec.command),
                    spec.threshold,
                )
                for m in cfg.prior_multipliers
            ]
            grid.append(("priors_sweep", None, cells))
        else:  # threshold_sweep
            cells = [(f"threshold={t}", None, spec, t) for t in cfg.thresholds]
            grid.append(("threshold_sweep", None, cells))
    raw_cells = dict.fromkeys((s, t) for *_, cs in grid for _, plan, s, t in cs if plan is None)
    # only smote_under cells synthesize with cfg.variant; the others read the
    # source's minority slice alone
    sources = [None] * cfg.n_folds
    if "smote_under" in cfg.families:
        sources = fold_neighbors(ds, folds, cfg.k, cfg.variant)

    runs: dict = {}  # (label, tag) -> per fold, (confusion matrix, training set size)
    skipped: dict = {}  # (label, tag) -> why the first fold to skip it did
    for f in range(cfg.n_folds):
        train_ds = ds.subset(np.flatnonzero(folds != f))
        test = ds.subset(np.flatnonzero(folds == f))
        raw_cms = _confusions(raw_cells, train_ds, test) if raw_cells else {}
        for label, variant, cells in grid:
            for tag, plan, cell_spec, t in cells:
                key = (label, tag)
                if key in skipped:
                    continue
                if plan is None:
                    size = (train_ds.n_minority, train_ds.n_majority)
                    runs.setdefault(key, []).append((raw_cms[(cell_spec, t)], size))
                    continue
                detail = resampled = None  # one resampled set alive at a time
                try:
                    detail = apply_plan_detailed(
                        train_ds,
                        *plan,
                        cfg.k,
                        child_seed(cfg.seed, label, tag, f),
                        variant,
                        gap_mode=cfg.gap_mode,
                        neighbor_mode=cfg.neighbor_mode,
                        under_basis=cfg.under_basis,
                        source=sources[f],
                    )
                except DataError as exc:  # the training minority is too thin to search
                    skipped[key] = f"{label} cell {tag}: fold {f}: {exc}"
                    continue
                audit_batch(detail.batch, train_ds.n_minority)
                resampled = detail.dataset
                if resampled.n_majority == 0:
                    skipped[key] = f"{label} cell {tag}: under-sampling emptied the majority class"
                    continue
                cm = _confusions([(cell_spec, t)], resampled, test)[(cell_spec, t)]
                runs.setdefault(key, []).append((cm, (resampled.n_minority, resampled.n_majority)))

    warnings_log: list[str] = []
    cell_sizes: dict = {}
    curves: list[RocCurve] = []
    for label, variant, cells in grid:
        results = []
        for tag, *_ in cells:
            key = (label, tag)
            if key in skipped:
                warnings_log.append(skipped[key])
                continue
            results.append((tag, [cm for cm, _ in runs[key]]))
            if variant is not None:
                cell_sizes[key] = [size for _, size in runs[key]]
        if results:
            curves.append(build_family_curve(label, results))

    curves.sort(key=lambda c: c.family)
    aucs = {curve.family: auc(curve) for curve in curves}
    hull = convex_hull(curves) if curves else []  # emit_report rejects no curves

    hull_counts: dict[str, int] = {}
    family_counts: dict[str, int] = {}
    for vertex in hull:
        hull_counts[vertex.family] = hull_counts.get(vertex.family, 0) + 1
        base = vertex.family.split("@", 1)[0]
        if base != "anchor":
            family_counts[base] = family_counts.get(base, 0) + 1
    for family in cfg.families:
        family_counts.setdefault(family, 0)

    total = sum(family_counts.values())
    best = max(family_counts.values()) if family_counts else 0
    leaders = sorted(f for f, c in family_counts.items() if c == best)
    if len(leaders) == 1:
        dominant = leaders[0]
        statement = (
            f"{dominant} contributes the most hull vertices "
            f"({best} of {total})"
        )
    else:
        dominant = ""
        statement = (
            f"hull vertex tie between {', '.join(leaders)} ({best} each of {total})"
        )

    return ExperimentResult(
        curves=curves,
        aucs=aucs,
        hull=hull,
        hull_counts=hull_counts,
        family_hull_counts=family_counts,
        dominant_family=dominant,
        statement=statement,
        warnings=warnings_log,
        cell_sizes=cell_sizes,
        config=cfg.to_dict(),
    )


def emit_report(
    result: ExperimentResult, out_dir: str | Path, dataset_info: dict = None
) -> dict:
    """Write the report files and return their paths.

    Files: ``roc_points.csv`` (family, tag, fp_rate, tp_rate, on_hull),
    ``hull.csv``, ``aucs.json`` (per-family AUC as fraction and x10^4
    integer, hull vertices and counts, the dominance statement, warnings),
    and ``manifest.json`` (config, dataset info, library versions). All files
    are deterministic: sorted content, no timestamps.
    """
    if not result.curves:
        raise ConfigError("nothing to report: no curves were produced")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "roc_points": out / "roc_points.csv",
        "hull": out / "hull.csv",
        "aucs": out / "aucs.json",
        "manifest": out / "manifest.json",
    }
    write_points_csv(paths["roc_points"], result.curves, result.hull)
    write_hull_csv(paths["hull"], result.hull)
    summary = auc_summary(result.aucs, result.hull)
    summary.update(
        {
            "hull_vertex_counts": result.hull_counts,
            "hull_family_counts": result.family_hull_counts,
            "hull_dominant_family": result.dominant_family,
            "statement": result.statement,
            "warnings": result.warnings,
        }
    )
    write_summary_json(paths["aucs"], summary)
    write_summary_json(
        paths["manifest"],
        {
            "config": result.config,
            "dataset": dataset_info,
            "versions": {
                "smotekit": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        },
    )
    return paths


def load_manifest(path: str | Path) -> tuple:
    """Read back a manifest: (ExperimentConfig, dataset_info dict or None).

    A file that is not JSON or not a manifest, or whose config does not
    validate, raises ConfigError naming the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "config" not in raw:
        raise ConfigError(f"{path} does not look like a run manifest")
    try:
        cfg = ExperimentConfig.from_dict(raw["config"])
        cfg.validate()
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad config: {exc}") from exc
    return cfg, raw.get("dataset")

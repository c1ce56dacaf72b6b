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

Resampling happens inside each training fold only and is audited per cell so
synthetic provenance can never reference test rows. Every (family, cell,
fold) triple draws from its own named RNG substream, so cells are independent:
evaluation order cannot change any result. Reports are deterministic files
with no timestamps; the manifest captures config and library versions so a
run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, stratified_folds
from .errors import ConfigError
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
from .model import ClassifierSpec, ExternalClassifier, confusion_from_scores, train
from .resample import (
    PER_ATTRIBUTE,
    VARIANTS,
    WITH_REPLACEMENT,
    apply_plan_detailed,
    audit_batch,
)
from .rng import child_seed

log = logging.getLogger(__name__)

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


@dataclass
class ExperimentConfig:
    families: tuple = ("smote_under", "plain_under")
    over_percents: tuple = DEFAULT_OVER
    under_percents: tuple = DEFAULT_UNDER
    k: int = 5
    n_folds: int = 10
    seed: int = 0
    variant: str = "smote"
    classifier: ClassifierSpec = field(default_factory=ClassifierSpec)
    prior_multipliers: tuple = DEFAULT_MULTIPLIERS
    thresholds: tuple = DEFAULT_THRESHOLDS
    gap_mode: str = PER_ATTRIBUTE
    neighbor_mode: str = WITH_REPLACEMENT
    under_basis: str = "pre"
    include_raw_point: bool = True

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
        if any(p <= 0 for p in self.over_percents):
            raise ConfigError("over_percents must be positive")
        if any(p <= 0 for p in self.under_percents):
            raise ConfigError("under_percents must be positive")
        if any(m <= 0 for m in self.prior_multipliers):
            raise ConfigError("prior multipliers must be positive")
        if any(not (0.0 <= t <= 1.0) for t in self.thresholds):
            raise ConfigError("thresholds must lie in [0, 1]")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be at least 2, got {self.n_folds}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.under_basis not in ("pre", "post"):
            raise ConfigError(f"under_basis must be 'pre' or 'post', got {self.under_basis!r}")

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        raw["classifier"] = dataclasses.asdict(self.classifier)
        for key, value in raw.items():
            if isinstance(value, tuple):
                raw[key] = list(value)
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        data = dict(raw)
        spec = data.pop("classifier", None)
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name == "classifier":
                continue
            if f.name in data:
                value = data.pop(f.name)
                kwargs[f.name] = tuple(value) if isinstance(value, list) else value
        if data:
            raise ConfigError(f"unknown config keys {sorted(data)}")
        if spec is not None:
            kwargs["classifier"] = ClassifierSpec(**spec)
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    curves: list
    aucs: dict
    hull: list
    hull_counts: dict  # per curve family, anchors under "anchor"
    family_hull_counts: dict  # per base family, anchors excluded
    dominant_family: str
    statement: str
    warnings: list
    cell_sizes: dict  # (curve family, tag) -> per-fold (n_minority, n_majority)
    config: dict


def _base_family(curve_family: str) -> str:
    return curve_family.split("@", 1)[0]


def _make_scorer(spec: ClassifierSpec):
    """Return scorer(train_ds, test) -> minority scores per row of the test set."""
    if spec.kind == "external":
        external = ExternalClassifier(spec.command)
        return external.score

    def nb_score(train_ds: Dataset, test: Dataset) -> np.ndarray:
        model = train(train_ds, spec)
        return model.score_rows(test.rows)

    return nb_score


def run_experiment(ds: Dataset, cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured family over a shared fold assignment.

    Grid cells whose under-sampling would leave no majority rows are skipped
    with a warning instead of failing the run.
    """
    cfg.validate()
    folds = stratified_folds(ds, cfg.n_folds, child_seed(cfg.seed, "folds"))
    fold_data = []
    for f in range(cfg.n_folds):
        test = ds.subset(folds.test_indices(f))
        fold_data.append((ds.subset(folds.train_indices(f)), test, test.labels))

    scorer = _make_scorer(cfg.classifier)
    warnings_log: list[str] = []
    cell_sizes: dict = {}

    def fold_cms(score, threshold: float) -> list:
        return [
            confusion_from_scores(score(train_ds, test), test_labels, threshold)
            for train_ds, test, test_labels in fold_data
        ]

    raw_cms = None

    def sweep(label: str, variant: str, cells) -> RocCurve:
        """One curve: the raw point, then each ``(tag, over, under)`` cell."""
        nonlocal raw_cms
        results = []
        if cfg.include_raw_point:
            if raw_cms is None:
                raw_cms = fold_cms(scorer, cfg.classifier.threshold)
            results.append(("raw", raw_cms))
            cell_sizes[(label, "raw")] = [
                (fd[0].n_minority, fd[0].n_majority) for fd in fold_data
            ]
        for tag, over, under in cells:
            cms = []
            sizes = []
            for f, (train_ds, test, test_labels) in enumerate(fold_data):
                detail = apply_plan_detailed(
                    train_ds,
                    over,
                    under,
                    cfg.k,
                    child_seed(cfg.seed, label, tag, f),
                    variant,
                    gap_mode=cfg.gap_mode,
                    neighbor_mode=cfg.neighbor_mode,
                    under_basis=cfg.under_basis,
                )
                audit_batch(detail.batch, train_ds.n_minority)
                resampled = detail.dataset
                if resampled.n_majority == 0:
                    skip = f"{label} cell {tag}: under-sampling emptied the majority class"
                    warnings_log.append(skip)
                    log.warning("%s", skip)
                    break
                scores = scorer(resampled, test)
                cms.append(
                    confusion_from_scores(scores, test_labels, cfg.classifier.threshold)
                )
                sizes.append((resampled.n_minority, resampled.n_majority))
            else:  # no fold skipped the cell
                cell_sizes[(label, tag)] = sizes
                results.append((tag, cms))
        return build_family_curve(label, results)

    curves: list[RocCurve] = []
    for family in cfg.families:
        if family in ("smote_under", "replicate"):
            variant = "replicate" if family == "replicate" else cfg.variant
            for over in cfg.over_percents:
                cells = [
                    (f"over={over},under={under}", over, under)
                    for under in cfg.under_percents
                ]
                curves.append(sweep(f"{family}@{over}", variant, cells))
        elif family == "plain_under":
            # over-sampling at 0 percent leaves the variant inert
            cells = [(f"under={under}", 0, under) for under in cfg.under_percents]
            curves.append(sweep("plain_under", cfg.variant, cells))
        elif family == "priors_sweep":
            results = []
            for multiplier in cfg.prior_multipliers:
                spec = dataclasses.replace(cfg.classifier, prior_multiplier=multiplier)
                cms = fold_cms(_make_scorer(spec), spec.threshold)
                results.append((f"prior={multiplier}", cms))
            curves.append(build_family_curve("priors_sweep", results))
        else:  # threshold_sweep
            fold_scores = [
                (scorer(train_ds, test), test_labels)
                for train_ds, test, test_labels in fold_data
            ]
            results = [
                (
                    f"threshold={t}",
                    [
                        confusion_from_scores(scores, labels, t)
                        for scores, labels in fold_scores
                    ],
                )
                for t in cfg.thresholds
            ]
            curves.append(build_family_curve("threshold_sweep", results))

    curves.sort(key=lambda c: c.family)
    aucs = {curve.family: auc(curve) for curve in curves}
    hull = convex_hull(curves)

    hull_counts: dict[str, int] = {}
    family_counts: dict[str, int] = {}
    for vertex in hull:
        hull_counts[vertex.family] = hull_counts.get(vertex.family, 0) + 1
        base = _base_family(vertex.family)
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
    """Read back a manifest: (ExperimentConfig, dataset_info dict or None)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if "config" not in raw:
        raise ConfigError(f"{path} does not look like a run manifest")
    return ExperimentConfig.from_dict(raw["config"]), raw.get("dataset")

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MAJORITY, MINORITY, dataset_from_rows
from smotekit import distance, pipeline
from smotekit.data import FeatureSchema
from smotekit.errors import ConfigError
from smotekit.model import ClassifierSpec
from smotekit.pipeline import (
    ExperimentConfig,
    emit_report,
    load_manifest,
    run_experiment,
)

SCHEMA = FeatureSchema((("x", "continuous"), ("y", "continuous")), "cls")


def gaussian_dataset(n_min=20, n_maj=60, seed=71, shift=1.5):
    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    for _ in range(n_min):
        rows.append(tuple(float(v) for v in rng.normal(loc=shift, size=2)))
        labels.append(MINORITY)
    for _ in range(n_maj):
        rows.append(tuple(float(v) for v in rng.normal(loc=0.0, size=2)))
        labels.append(MAJORITY)
    return dataset_from_rows(SCHEMA, tuple(rows), tuple(labels), "pos", "neg")


def small_config(**overrides):
    base = dict(
        families=("smote_under", "plain_under"),
        over_percents=(100,),
        under_percents=(100, 200),
        k=3,
        n_folds=4,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="empty"):
        small_config(families=()).validate()
    with pytest.raises(ConfigError, match="unknown families"):
        small_config(families=("smote_under", "mystery")).validate()
    with pytest.raises(ConfigError, match="duplicate"):
        small_config(families=("plain_under", "plain_under")).validate()
    with pytest.raises(ConfigError, match="over_percents"):
        small_config(over_percents=()).validate()
    with pytest.raises(ConfigError, match="positive"):
        small_config(under_percents=(100, -5)).validate()
    with pytest.raises(ConfigError, match="n_folds"):
        small_config(n_folds=1).validate()
    with pytest.raises(ConfigError, match="naive Bayes"):
        small_config(
            families=("priors_sweep",),
            classifier=ClassifierSpec(kind="external", command="true"),
        ).validate()
    # families that never synthesize must still reject bad synthesis modes
    with pytest.raises(ConfigError, match="unknown gap mode 'bogus'"):
        small_config(families=("plain_under",), gap_mode="bogus").validate()
    with pytest.raises(ConfigError, match="unknown neighbor mode 'bogus'"):
        small_config(families=("replicate",), neighbor_mode="bogus").validate()


def test_config_round_trips_through_dict():
    cfg = small_config(classifier=ClassifierSpec(prior_multiplier=2.0, threshold=0.4))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_from_dict_rejects_unknown_keys():
    raw = small_config().to_dict()
    raw["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(raw)


def test_run_experiment_families_and_curves():
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config())
    families = [c.family for c in result.curves]
    assert families == ["plain_under", "smote_under@100"]
    assert set(result.aucs) == set(families)
    for value in result.aucs.values():
        assert 0.0 <= value <= 1.0
    # raw point plus one point per under percent, minus any coordinate dedupe
    for curve in result.curves:
        assert 1 <= len(curve.points) <= 3
        tags = {p.tag for p in curve.points}
        assert "raw" in tags or len(tags) == 3


def test_run_experiment_statement_names_leader_or_tie():
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config())
    assert (
        "contributes the most hull vertices" in result.statement
        or "hull vertex tie" in result.statement
    )
    total = sum(result.family_hull_counts.values())
    measured = [v for v in result.hull if v.family != "anchor"]
    assert total == len(measured)
    assert set(result.family_hull_counts) == {"smote_under", "plain_under"}


def test_run_experiment_cell_sizes_follow_percentages():
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config())
    for (family, tag), sizes in result.cell_sizes.items():
        if tag == "under=100":
            for n_min, n_maj in sizes:
                assert n_maj == n_min
        if tag == "over=100,under=100":
            for n_min, n_maj in sizes:
                # pre-smote basis: majority matches the original minority count
                assert n_min == 2 * n_maj


def test_run_experiment_skips_emptying_cells():
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config(under_percents=(100, 100000)))
    assert any("emptied the majority" in w for w in result.warnings)
    plain = next(c for c in result.curves if c.family == "plain_under")
    assert all("100000" not in p.tag for p in plain.points)


def test_run_experiment_deterministic():
    ds = gaussian_dataset()
    a = run_experiment(ds, small_config())
    b = run_experiment(ds, small_config())
    assert a.curves == b.curves
    assert a.aucs == b.aucs
    assert a.hull == b.hull
    assert a.statement == b.statement
    c = run_experiment(ds, small_config(seed=6))
    assert a.curves != c.curves


def test_run_experiment_without_raw_point():
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config(include_raw_point=False))
    for curve in result.curves:
        assert all(p.tag != "raw" for p in curve.points)


def test_priors_and_threshold_sweep_families():
    ds = gaussian_dataset()
    cfg = small_config(
        families=("priors_sweep", "threshold_sweep"),
        prior_multipliers=(1, 5, 10),
        thresholds=(0.5, 0.25, 0.0),
    )
    result = run_experiment(ds, cfg)
    assert [c.family for c in result.curves] == ["priors_sweep", "threshold_sweep"]
    sweep = next(c for c in result.curves if c.family == "threshold_sweep")
    # threshold 0 predicts everything minority: the (100,100) corner is measured
    top = max(sweep.points, key=lambda p: (p.fp_rate, p.tp_rate))
    assert top.fp_rate == 100.0
    assert top.tp_rate == 100.0


def test_unresampled_folds_fit_each_classifier_setting_once(monkeypatch):
    fits = []
    real_train = pipeline.train

    def counting_train(train_ds, spec):
        fits.append(spec)
        return real_train(train_ds, spec)

    monkeypatch.setattr(pipeline, "train", counting_train)
    cfg = small_config(
        families=("plain_under", "priors_sweep", "threshold_sweep"),
        under_percents=(100,),
        prior_multipliers=(1, 2),
        thresholds=(0.5, 0.3),
    )
    result = run_experiment(gaussian_dataset(), cfg)
    # per fold: the raw split once at prior 1, once at prior 2, one resampled cell
    assert len(fits) == 3 * cfg.n_folds
    points = {
        (c.family, p.tag): (p.fp_rate, p.tp_rate) for c in result.curves for p in c.points
    }
    raw = points[("plain_under", "raw")]
    assert points[("priors_sweep", "prior=1")] == raw
    assert points[("threshold_sweep", "threshold=0.5")] == raw


def test_external_scorer_runs_once_per_fold_on_the_raw_split(monkeypatch):
    calls = []

    class CountingScorer:
        def __init__(self, command):
            self.command = command

        def score(self, train_ds, test):
            calls.append(len(train_ds))
            return np.where(test.cont[:, 0] > 0.75, 0.9, 0.1)

    monkeypatch.setattr(pipeline, "ExternalClassifier", CountingScorer)
    cfg = small_config(
        families=("plain_under", "threshold_sweep"),
        under_percents=(100,),
        thresholds=(0.5, 0.3),
        classifier=ClassifierSpec(kind="external", command="stub"),
    )
    run_experiment(gaussian_dataset(), cfg)
    # per fold: the raw split once, the one resampled cell once
    assert len(calls) == 2 * cfg.n_folds


def test_smote_experiment_searches_neighbors_once(monkeypatch):
    calls = []
    real_pairwise = distance.EuclideanMetric.pairwise

    def counting_pairwise(self, ds, rows=slice(None)):
        calls.append(len(ds))
        return real_pairwise(self, ds, rows)

    monkeypatch.setattr(distance.EuclideanMetric, "pairwise", counting_pairwise)
    ds = gaussian_dataset(n_min=40, n_maj=120)
    cfg = small_config(over_percents=(100, 300), under_percents=(100, 200), n_folds=5)
    shared = run_experiment(ds, cfg)
    # 4 cells x 5 folds read one pass over the whole minority, one block
    assert calls == [40]

    calls.clear()
    monkeypatch.setattr(pipeline, "knn_per_fold", lambda *args: [None] * cfg.n_folds)
    per_cell = run_experiment(ds, cfg)
    assert calls == [32] * 20  # each (cell, fold) searches its own minority
    assert shared.aucs == per_cell.aucs
    assert shared.curves == per_cell.curves


def test_replicate_family_runs():
    ds = gaussian_dataset()
    cfg = small_config(families=("replicate",), over_percents=(200,))
    result = run_experiment(ds, cfg)
    assert [c.family for c in result.curves] == ["replicate@200"]


def test_emit_report_files(tmp_path):
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config())
    paths = emit_report(result, tmp_path / "report", {"path": "toy.csv", "rows": len(ds)})
    for key in ("roc_points", "hull", "aucs", "manifest"):
        assert paths[key].is_file()

    aucs = json.loads(paths["aucs"].read_text(encoding="utf-8"))
    assert aucs["auc_anchor"] == "origin"
    assert set(aucs["aucs"]) == {"plain_under", "smote_under@100"}
    for entry in aucs["aucs"].values():
        assert entry["auc_e4"] == int(round(entry["auc"] * 10000))
    assert aucs["statement"] == result.statement
    assert isinstance(aucs["hull_vertices"], list)

    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    assert manifest["dataset"]["rows"] == 80
    assert "timestamp" not in manifest
    assert set(manifest["versions"]) == {"numpy", "python", "smotekit"}

    header = paths["roc_points"].read_text(encoding="utf-8").splitlines()[0]
    assert header == "family,tag,fp_rate,tp_rate,on_hull"


def test_emit_report_byte_identical_reruns(tmp_path):
    ds = gaussian_dataset()
    cfg = small_config()
    first = emit_report(run_experiment(ds, cfg), tmp_path / "a", {"path": "x"})
    second = emit_report(run_experiment(ds, cfg), tmp_path / "b", {"path": "x"})
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


def test_load_manifest_round_trip(tmp_path):
    ds = gaussian_dataset()
    cfg = small_config(families=("plain_under",))
    paths = emit_report(run_experiment(ds, cfg), tmp_path, {"path": "toy.csv"})
    loaded_cfg, info = load_manifest(paths["manifest"])
    assert loaded_cfg == cfg
    assert info == {"path": "toy.csv"}


def test_load_manifest_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": 1}', encoding="utf-8")
    with pytest.raises(ConfigError, match="manifest"):
        load_manifest(path)


def test_emit_report_requires_curves(tmp_path):
    ds = gaussian_dataset()
    result = run_experiment(ds, small_config())
    result.curves.clear()
    with pytest.raises(ConfigError, match="no curves"):
        emit_report(result, tmp_path / "never")
    assert not (tmp_path / "never").exists()


@settings(max_examples=12, deadline=None)
@given(
    shared=st.lists(
        st.sampled_from(["smote_under", "plain_under", "threshold_sweep"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
    extra=st.sampled_from(["replicate", "priors_sweep"]),
    position=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_adding_a_family_leaves_existing_families_unchanged(shared, extra, position, seed):
    ds = gaussian_dataset(n_min=12, n_maj=36)
    families = list(shared)
    families.insert(min(position, len(families)), extra)
    options = dict(n_folds=3, seed=seed, thresholds=(0.5, 0.2), prior_multipliers=(1, 4))
    alone = run_experiment(ds, small_config(families=tuple(shared), **options))
    joined = run_experiment(ds, small_config(families=tuple(families), **options))
    joined_curves = {curve.family: curve for curve in joined.curves}
    for curve in alone.curves:
        assert joined_curves[curve.family].points == curve.points
        assert joined.aucs[curve.family] == alone.aucs[curve.family]
    for key, sizes in alone.cell_sizes.items():
        assert joined.cell_sizes[key] == sizes

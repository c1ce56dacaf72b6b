import hashlib
import json
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import MAJORITY, MINORITY, dataset_from_rows, reference_experiment
from smotekit import distance, pipeline, resample
from smotekit.cli import main
from smotekit.data import Dataset, FeatureSchema, save_csv
from smotekit.errors import ConfigError
from smotekit.model import ClassifierSpec
from smotekit.pipeline import (
    FAMILIES,
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


def test_config_validation_errors(tmp_path, capsys):
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
    with pytest.raises(ConfigError, match="^under_percents is empty but an under-sampling"):
        small_config(families=("plain_under",), under_percents=()).validate()
    with pytest.raises(ConfigError, match="^prior_multipliers is empty but priors_sweep"):
        small_config(families=("priors_sweep",), prior_multipliers=()).validate()
    with pytest.raises(ConfigError, match="^thresholds is empty but threshold_sweep"):
        small_config(families=("threshold_sweep",), thresholds=()).validate()
    with pytest.raises(ConfigError, match="^over_percents must be positive$"):
        small_config(over_percents=(100, 0)).validate()
    with pytest.raises(ConfigError, match="^prior multipliers must be positive$"):
        small_config(prior_multipliers=(1, -2)).validate()
    with pytest.raises(ConfigError, match=r"^thresholds must lie in \[0, 1\]$"):
        small_config(thresholds=(0.5, 1.5)).validate()
    with pytest.raises(ConfigError, match="^k must be at least 1, got 0$"):
        small_config(k=0).validate()
    with pytest.raises(ConfigError, match="^unknown variant 'smote_x'$"):
        small_config(variant="smote_x").validate()
    with pytest.raises(ConfigError, match="^under_basis must be 'pre' or 'post', got 'mid'$"):
        small_config(under_basis="mid").validate()
    # families that never synthesize must still reject bad synthesis modes
    with pytest.raises(ConfigError, match="unknown gap mode 'bogus'"):
        small_config(families=("plain_under",), gap_mode="bogus").validate()
    with pytest.raises(ConfigError, match="unknown neighbor mode 'bogus'"):
        small_config(families=("replicate",), neighbor_mode="bogus").validate()
    # a repeated grid value would run its cells twice and report its curve twice
    with pytest.raises(ConfigError, match="^duplicate over_percents$"):
        small_config(over_percents=(200, 200)).validate()
    with pytest.raises(ConfigError, match="^duplicate under_percents$"):
        small_config(under_percents=(50, 100, 50)).validate()
    with pytest.raises(ConfigError, match="^duplicate prior_multipliers$"):
        small_config(families=("priors_sweep",), prior_multipliers=(2, 2.0)).validate()
    with pytest.raises(ConfigError, match="^duplicate thresholds$"):
        small_config(families=("threshold_sweep",), thresholds=(0.5, 0.3, 0.5)).validate()
    # settings read from a manifest are typed only by its JSON
    with pytest.raises(ConfigError, match="^k must be an integer, got 2.5$"):
        small_config(k=2.5).validate()
    with pytest.raises(ConfigError, match="^n_folds must be an integer, got 3.0$"):
        small_config(n_folds=3.0).validate()
    with pytest.raises(ConfigError, match="^seed must be an integer, got '5'$"):
        small_config(seed="5").validate()
    with pytest.raises(ConfigError, match=r"^over_percents must be integers, got \[150.5\]$"):
        small_config(over_percents=(150.5,)).validate()
    with pytest.raises(ConfigError, match=r"^under_percents must be integers, got \[True\]$"):
        small_config(under_percents=(True,)).validate()
    with pytest.raises(ConfigError, match="^include_raw_point must be true or false, got 'no'$"):
        small_config(include_raw_point="no").validate()
    with pytest.raises(ConfigError, match="^external classifier needs a command string, got 5$"):
        ClassifierSpec(kind="external", command=5)
    # a multiplier must be a finite positive number, a threshold a number
    for multipliers in [(1, math.nan), (math.inf,)]:
        with pytest.raises(ConfigError, match=r"^prior_multipliers must be finite, got \["):
            small_config(families=("priors_sweep",), prior_multipliers=multipliers).validate()
    with pytest.raises(ConfigError, match=r"^prior_multipliers must be numbers, got \[True\]$"):
        small_config(prior_multipliers=(True,)).validate()
    with pytest.raises(ConfigError, match=r"^thresholds must be numbers, got \[True\]$"):
        small_config(thresholds=(True,)).validate()
    with pytest.raises(ConfigError, match=r"^thresholds must be numbers, got \[0.5, False\]$"):
        small_config(thresholds=(0.5, False)).validate()
    for multiplier in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=f"^prior_multiplier must be finite, got {multiplier}$"):
            ClassifierSpec(prior_multiplier=multiplier)
    with pytest.raises(ConfigError, match="^prior_multiplier must be a number, got True$"):
        ClassifierSpec(prior_multiplier=True)
    with pytest.raises(ConfigError, match="^threshold must be a number, got True$"):
        ClassifierSpec(threshold=True)
    data = tmp_path / "toy.csv"
    save_csv(gaussian_dataset(), data)
    schema = tmp_path / "toy.schema.json"
    schema.write_text(json.dumps({"x": "continuous", "y": "continuous", "cls": "class"}))
    data_args = ["--data", str(data), "--schema", str(schema), "--minority", "pos"]
    out = tmp_path / "out"
    assert main(["experiment", *data_args, "--over", "200,200", "--out", str(out)]) == 2
    assert main(["experiment", *data_args, "--prior-multiplier", "nan", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "configuration error: prior_multiplier must be finite, got nan"
    assert not out.exists()


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


def test_curve_with_every_cell_skipped_is_dropped(tmp_path):
    ds = gaussian_dataset()
    cfg = small_config(
        families=("plain_under", "threshold_sweep"),
        under_percents=(100000,),
        thresholds=(0.5, 0.2),
        include_raw_point=False,
    )
    result = run_experiment(ds, cfg)
    assert [c.family for c in result.curves] == ["threshold_sweep"]
    assert set(result.aucs) == {"threshold_sweep"}
    assert result.warnings == [
        "plain_under cell under=100000: under-sampling emptied the majority class"
    ]
    cfg.families = ("plain_under",)
    alone = run_experiment(ds, cfg)
    assert alone.curves == []
    with pytest.raises(ConfigError, match="nothing to report"):
        emit_report(alone, tmp_path / "never")


def test_run_experiment_memory_does_not_grow_with_folds():
    # the folds run one at a time: only one training split is alive
    schema = FeatureSchema(tuple((f"x{i}", "continuous") for i in range(8)), "cls")
    values = np.random.default_rng(3).normal(size=(20_200, 8))
    values[:200] += 1.0
    ds = Dataset(schema, list(values.T), np.arange(20_200) < 200, "pos", "neg")
    peaks = {}
    for n_folds in (2, 10):
        tracemalloc.start()
        try:
            run_experiment(ds, small_config(n_folds=n_folds))
            peaks[n_folds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10] <= 1.25 * peaks[2], peaks


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
    # per fold: the raw split once for both priors, one resampled cell
    assert len(fits) == 2 * cfg.n_folds
    points = {
        (c.family, p.tag): (p.fp_rate, p.tp_rate) for c in result.curves for p in c.points
    }
    raw = points[("plain_under", "raw")]
    assert points[("priors_sweep", "prior=1")] == raw
    assert points[("threshold_sweep", "threshold=0.5")] == raw


def test_external_scorer_runs_once_per_fold_on_the_raw_split(monkeypatch):
    calls = []

    def counting_scorer(command, train_ds, test):
        calls.append(len(train_ds))
        return np.where(test.cont[:, 0] > 0.75, 0.9, 0.1)

    monkeypatch.setattr(pipeline, "score_external", counting_scorer)
    cfg = small_config(
        families=("plain_under", "threshold_sweep"),
        under_percents=(100,),
        thresholds=(0.5, 0.3),
        classifier=ClassifierSpec(kind="external", command="stub"),
    )
    run_experiment(gaussian_dataset(), cfg)
    # per fold: the raw split once, the one resampled cell once
    assert len(calls) == 2 * cfg.n_folds


def _search_per_cell(ds, folds, k, variant):
    """``pipeline._fold_sources`` with no source for any fold, so that every
    synthesizing cell searches and votes on its own."""
    return resample._fold_sources(ds, folds, k, None)


@pytest.mark.parametrize("variant", ["smote", "smote_n"])
def test_each_fold_source_is_built_after_the_fold_before_it_ran(monkeypatch, variant):
    events, built = [], []  # built: a weak reference to each source's minority
    real_source, real_plan = resample._synthesis_source, pipeline.apply_plan_detailed

    def recording_source(variant, minority, neighbors):
        events.append(("source", len(minority), sum(ref() is not None for ref in built)))
        built.append(weakref.ref(minority))
        return real_source(variant, minority, neighbors)

    def recording_plan(train_ds, *args, **kwargs):
        events.append(("cell", kwargs["source"] is not None))
        return real_plan(train_ds, *args, **kwargs)

    monkeypatch.setattr(resample, "_synthesis_source", recording_source)
    monkeypatch.setattr(pipeline, "apply_plan_detailed", recording_plan)
    ds = gaussian_dataset() if variant == "smote" else categorical_dataset(NOMINAL)
    cfg = small_config(over_percents=(100, 300), under_percents=(100, 200), variant=variant)
    run_experiment(ds, cfg)
    # per fold, its source, built when no earlier fold's source is alive,
    # then 4 smote_under cells that read it and 2 plain_under cells, over a
    # 15-row training minority
    fold = [("source", 15, 0)] + [("cell", True)] * 6
    assert events == fold * cfg.n_folds


def test_smote_experiment_searches_neighbors_once(monkeypatch):
    calls = []
    real_pairwise = distance.EuclideanMetric.pairwise

    def counting_pairwise(self, ds, rows=slice(None), out=None):
        calls.append(len(ds))
        return real_pairwise(self, ds, rows, out)

    monkeypatch.setattr(distance.EuclideanMetric, "pairwise", counting_pairwise)
    ds = gaussian_dataset(n_min=40, n_maj=120)
    cfg = small_config(over_percents=(100, 300), under_percents=(100, 200), n_folds=5)
    shared = run_experiment(ds, cfg)
    # 4 cells x 5 folds read one pass over the whole minority, one block
    assert calls == [40]

    calls.clear()
    monkeypatch.setattr(pipeline, "_fold_sources", _search_per_cell)
    per_cell = run_experiment(ds, cfg)
    assert calls == [32] * 20  # each (cell, fold) searches its own minority
    assert shared.aucs == per_cell.aucs
    assert shared.curves == per_cell.curves


MIXED = FeatureSchema((("x", "continuous"), ("g", "nominal")), "cls")
NOMINAL = FeatureSchema((("g", "nominal"), ("h", "nominal")), "cls")


def categorical_dataset(schema, n_min=20, n_maj=60, seed=73):
    """Continuous features as in :func:`gaussian_dataset`; nominal ones drawn
    from a, b, c with the minority leaning to c."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for label, n, lean in ((MINORITY, n_min, (0.2, 0.3, 0.5)), (MAJORITY, n_maj, (0.5, 0.3, 0.2))):
        for _ in range(n):
            rows.append(tuple(
                float(rng.normal(loc=1.5 if label else 0.0)) if kind == "continuous"
                else str(rng.choice(["a", "b", "c"], p=lean))
                for kind in schema.kinds
            ))
            labels.append(label)
    return dataset_from_rows(schema, tuple(rows), tuple(labels), "pos", "neg")


@pytest.mark.parametrize(
    "variant, schema", [("smote_nc", MIXED), ("smote_n", NOMINAL), ("smote", SCHEMA)]
)
def test_fold_fitted_variants_search_once_per_cell_and_fold(monkeypatch, variant, schema):
    # Med and the VDM counts are fitted to each training fold, so no list
    # serves two folds; smote_n searches each fold once, smote_nc each cell.
    # smote's distances ignore the other rows: one search over the whole
    # minority, (k + 10) * F / (F - 1) wide (rounded up), serves every fold
    searches = []
    real_knn = resample.knn_minority

    def counting_knn(minority, k, metric):
        searches.append((len(minority), k))
        return real_knn(minority, k, metric)

    monkeypatch.setattr(resample, "knn_minority", counting_knn)
    cfg = small_config(over_percents=(100, 300), variant=variant)
    result = run_experiment(categorical_dataset(schema), cfg)
    # 4 folds, or 2 over x 2 under cells x 4 folds, each over a 15-row
    # training minority; or one search over all 20 minority rows
    assert searches == {
        "smote": [(20, -(-(3 + 10) * 4 // 3))],
        "smote_n": [(15, 3)] * 4,
        "smote_nc": [(15, 3)] * 16,
    }[variant]

    def law(over, under):  # every training fold holds 15 minority, 45 majority
        return [(15 * (1 + over // 100), min(round(100 * 15 / under), 45))] * 4

    expected = {("plain_under", f"under={u}"): law(0, u) for u in (100, 200)}
    for over in (100, 300):
        expected[(f"smote_under@{over}", "raw")] = [(15, 45)] * 4
        for u in (100, 200):
            expected[(f"smote_under@{over}", f"over={over},under={u}")] = law(over, u)
    expected[("plain_under", "raw")] = [(15, 45)] * 4
    assert result.cell_sizes == expected


@pytest.mark.parametrize(
    "variant, schema, votes",
    [("smote", SCHEMA, [15] * 4), ("smote_n", NOMINAL, [15] * 4), ("smote_nc", MIXED, [15] * 16)],
)
def test_votes_once_per_fold_or_per_synthesizing_cell(monkeypatch, variant, schema, votes):
    # a fold's votes depend on its minority and lists alone, so smote and
    # smote_n vote once per fold; smote_nc searches per cell, so it votes
    # once per (synthesizing cell, fold); plain_under and replicate never vote
    calls = []
    real_vote = resample._vote

    def counting_vote(codes, lists, base_votes):
        calls.append(len(codes))
        return real_vote(codes, lists, base_votes)

    monkeypatch.setattr(resample, "_vote", counting_vote)
    ds = gaussian_dataset() if variant == "smote" else categorical_dataset(schema)
    cfg = small_config(
        families=("smote_under", "plain_under", "replicate"), over_percents=(100, 300), variant=variant
    )
    run_experiment(ds, cfg)
    # 4 folds, or 2 over x 2 under cells x 4 folds, each over a 15-row training minority
    assert calls == votes


def _assert_per_fold_matches_per_cell(ds, cfg):
    """A run that shares one source per fold gives the report of a run
    whose every cell searches and votes on its own; returns the warnings."""
    per_fold = run_experiment(ds, cfg)
    with mock.patch.object(pipeline, "_fold_sources", _search_per_cell):
        per_cell = run_experiment(ds, cfg)
    assert per_fold.aucs == per_cell.aucs
    assert per_fold.curves == per_cell.curves
    assert per_fold.cell_sizes == per_cell.cell_sizes
    assert per_fold.warnings == per_cell.warnings
    return per_fold.warnings


@pytest.mark.parametrize(
    "n_min, n_folds, seed", [(20, 4, 5), (3, 2, 1)], ids=["regular", "thin-fold"]
)
@pytest.mark.parametrize("variant", ["smote", "smote_n"])
def test_per_fold_sources_match_a_search_per_cell(variant, n_min, n_folds, seed):
    if variant == "smote":
        ds = gaussian_dataset(n_min=n_min, n_maj=30)
    else:
        ds = categorical_dataset(NOMINAL, n_min=n_min, n_maj=30)
    cfg = small_config(over_percents=(100, 300), variant=variant, n_folds=n_folds, seed=seed)
    warnings = _assert_per_fold_matches_per_cell(ds, cfg)
    # 3 minority rows over 2 folds: fold 0 synthesizes from its source, and
    # fold 1, with a training minority of 1, skips every smote_under cell
    thin = [w for w in warnings if "training minority has 1 row" in w]
    assert len(thin) == (4 if n_min == 3 else 0)
    assert all(": fold 1: " in w for w in thin)


def _tied_dataset(variant, n_min, n_maj, seed):
    """Two features over two values each (0.0 and 1.0 for smote, a and b for
    smote_n): many duplicate rows and many tied distances."""
    schema, values = (SCHEMA, (0.0, 1.0)) if variant == "smote" else (NOMINAL, ("a", "b"))
    picks = np.random.default_rng(seed).integers(0, 2, size=(n_min + n_maj, 2)).tolist()
    rows = tuple(tuple(values[v] for v in row) for row in picks)
    return dataset_from_rows(schema, rows, (MINORITY,) * n_min + (MAJORITY,) * n_maj, "pos", "neg")


@settings(max_examples=25, deadline=None)
@given(
    variant=st.sampled_from(["smote", "smote_n"]),
    n_folds=st.integers(2, 4),
    extra=st.integers(0, 8),
    n_maj=st.integers(8, 30),
    seed=st.integers(0, 2**16),
)
# 3 minority rows over 2 folds leave one fold a single training minority row
@example(variant="smote", n_folds=2, extra=1, n_maj=12, seed=0)
@example(variant="smote_n", n_folds=2, extra=1, n_maj=12, seed=0)
def test_per_fold_sources_match_a_search_per_cell_on_tied_data(variant, n_folds, extra, n_maj, seed):
    ds = _tied_dataset(variant, n_folds + extra, n_maj, seed)
    cfg = small_config(over_percents=(100, 300), variant=variant, n_folds=n_folds, seed=seed)
    warnings = _assert_per_fold_matches_per_cell(ds, cfg)
    if (n_folds, extra) == (2, 1):
        assert sum("training minority has 1 row" in w for w in warnings) == 4


def test_report_bytes_and_cell_sizes_are_pinned(tmp_path):
    # All five families, smote_nc, and a skipped cell in five curves. These
    # digests may change only together with a CHANGES.md entry that records
    # an intended change of output.
    cfg = small_config(
        families=("smote_under", "plain_under", "replicate", "priors_sweep", "threshold_sweep"),
        over_percents=(100, 300),
        under_percents=(50, 100, 100000),
        variant="smote_nc",
        prior_multipliers=(1, 4),
        thresholds=(0.5, 0.2),
    )
    result = run_experiment(categorical_dataset(MIXED), cfg)
    assert len(result.warnings) == 5
    paths = emit_report(result, tmp_path)
    digests = {
        name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
        for name in ("roc_points", "hull", "aucs")
    }
    sizes = repr(sorted(result.cell_sizes.items())).encode()
    digests["cell_sizes"] = hashlib.sha256(sizes).hexdigest()
    assert digests == {
        "roc_points": "6361c59d83f7c8f49361bf9bb979b235f1469ea0fbb5eeed4128403503b44ddd",
        "hull": "65778127fcd3cc8884a316447044af8ce957d7ff79163b85fd125889c2ce63a0",
        "aucs": "9ba7b585068b75f444d38e8a993b925bef494a4cf562a3e217416d989de88518",
        "cell_sizes": "e954718568674d70db065bf8e1c2799486829a667c8e8df19fbd57b282b986a0",
    }


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


def test_load_manifest_skips_a_byte_order_mark(tmp_path):
    ds = gaussian_dataset()
    cfg = small_config(families=("plain_under",))
    paths = emit_report(run_experiment(ds, cfg), tmp_path, {"path": "toy.csv"})
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + paths["manifest"].read_bytes())
    assert load_manifest(marked) == load_manifest(paths["manifest"])


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


# the schema shape of each synthesis variant, as feature kinds
VARIANT_KINDS = {
    "smote": ("continuous", "continuous"),
    "smote_nc": ("continuous", "nominal", "continuous"),
    "smote_n": ("nominal", "nominal"),
}


@st.composite
def _small_experiments(draw):
    """A small dataset of the drawn variant's schema shape, values on a
    one-decimal grid and rows repeated from a short pool, so distances tie
    and rows coincide, and a config over all five families in a drawn
    order; two minority rows in two folds leave one per training split."""
    variant = draw(st.sampled_from(sorted(VARIANT_KINDS)))
    kinds = VARIANT_KINDS[variant]
    schema = FeatureSchema(tuple((f"f{i}", kind) for i, kind in enumerate(kinds)), "cls")
    value = {
        "continuous": st.integers(-10, 10).map(lambda v: v / 10),
        "nominal": st.sampled_from("abc"),
    }
    pool = draw(st.lists(st.tuples(*(value[kind] for kind in kinds)), min_size=1, max_size=8))
    n_min = draw(st.integers(2, 6))
    n_maj = draw(st.integers(n_min, 12))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n_min + n_maj, max_size=n_min + n_maj))
    ds = dataset_from_rows(schema, rows, [MINORITY] * n_min + [MAJORITY] * n_maj, "pos", "neg")

    def some(values):
        return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True).map(tuple)

    cfg = ExperimentConfig(
        families=tuple(draw(st.permutations(FAMILIES))),
        over_percents=draw(some((50, 100, 200))),
        under_percents=draw(some((50, 100, 300, 2000))),
        k=draw(st.integers(1, 4)),
        n_folds=draw(st.integers(2, n_min)),
        seed=draw(st.integers(0, 2**32 - 1)),
        variant=variant,
        prior_multipliers=draw(some((1, 3, 10))),
        thresholds=draw(some((0.0, 0.3, 0.5, 0.9))),
        gap_mode=draw(st.sampled_from(resample.GAP_MODES)),
        neighbor_mode=draw(st.sampled_from(resample.NEIGHBOR_MODES)),
        under_basis=draw(st.sampled_from(resample.UNDER_BASES)),
        include_raw_point=draw(st.booleans()),
    )
    return ds, cfg


@settings(max_examples=40, deadline=None)
@given(case=_small_experiments())
def test_run_experiment_equals_the_per_cell_reference(case):
    """Sharing a fold's split, neighbor lists and fits across cells changes
    no curve, AUC, hull vertex, cell size or warning."""
    ds, cfg = case
    result = run_experiment(ds, cfg)
    expected = reference_experiment(ds, cfg)
    assert result.warnings == expected["warnings"]
    assert result.cell_sizes == expected["cell_sizes"]
    assert result.curves == expected["curves"]
    assert result.aucs == expected["aucs"]
    assert result.hull == expected["hull"]

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import MAJORITY as MAJ
from oracles import MINORITY as MIN
from oracles import dataset_from_rows, nominal_loglik_by_feature
import smotekit
from smotekit.data import FeatureSchema
from smotekit.errors import ConfigError, DataError
from smotekit.evaluate import ConfusionMatrix
from smotekit.model import (
    ClassifierSpec,
    TrainedModel,
    confusion_from_scores,
    score_external,
    train,
)
from smotekit.pipeline import DEFAULT_MULTIPLIERS

CONT1 = FeatureSchema((("x", "continuous"),), "cls")
NOM1 = FeatureSchema((("c", "nominal"),), "cls")


def dataset(schema, rows, labels):
    return dataset_from_rows(schema, tuple(rows), tuple(labels), "pos", "neg")


def score(model, row):
    """Posterior minority probability of one row, through ``score_rows``."""
    return float(model.score_rows(dataset(model.schema, [row], [MAJ]))[0])


def blobs_1d():
    rows = [(0.0,), (2.0,), (4.0,), (6.0,)]
    labels = [MIN, MIN, MAJ, MAJ]
    return dataset(CONT1, rows, labels)


def test_spec_validation():
    with pytest.raises(ConfigError, match="kind"):
        ClassifierSpec(kind="oracle")
    with pytest.raises(ConfigError, match="positive"):
        ClassifierSpec(prior_multiplier=0)
    with pytest.raises(ConfigError, match="threshold"):
        ClassifierSpec(threshold=1.5)
    with pytest.raises(ConfigError, match="command"):
        ClassifierSpec(kind="external")
    with pytest.warns(UserWarning, match="sweep range"):
        ClassifierSpec(prior_multiplier=75)


def test_sweep_range_warning_names_the_callers_line():
    with pytest.warns(UserWarning, match="sweep range") as record:
        ClassifierSpec(prior_multiplier=75)
    assert record[0].filename == __file__


def test_midpoint_between_identical_blobs_scores_half():
    model = train(blobs_1d(), ClassifierSpec())
    assert score(model, (3.0,)) == 0.5


def test_minority_mean_scores_near_one():
    model = train(blobs_1d(), ClassifierSpec())
    got = score(model, (1.0,))
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-8.0)), abs=1e-12)
    assert got > 0.99


def test_prior_scaling_balances_skewed_classes():
    # identical rows in both classes: likelihoods cancel and the score IS the
    # scaled minority prior
    rows = [(1.0,)] * 110
    labels = [MIN] * 10 + [MAJ] * 100
    ds = dataset(CONT1, rows, labels)
    flat = train(ds, ClassifierSpec(prior_multiplier=1))
    assert score(flat, (1.0,)) == pytest.approx(10.0 / 110.0, abs=1e-12)
    scaled = train(ds, ClassifierSpec(prior_multiplier=10))
    assert score(scaled, (1.0,)) == pytest.approx(0.5, abs=1e-12)


def test_prior_monotonicity():
    rng = np.random.default_rng(61)
    rows = [tuple(map(float, rng.normal(size=2))) for _ in range(40)]
    labels = [MIN if i < 15 else MAJ for i in range(40)]
    schema = FeatureSchema((("x", "continuous"), ("y", "continuous")), "cls")
    ds = dataset(schema, rows, labels)
    probe = [tuple(map(float, rng.normal(size=2))) for _ in range(20)]
    probe = dataset(schema, probe, [MAJ] * len(probe))
    previous = None
    for multiplier in (1, 2, 5, 10, 20, 50):
        model = train(ds, ClassifierSpec(prior_multiplier=multiplier))
        scores = model.score_rows(probe)
        if previous is not None:
            assert np.all(scores >= previous - 1e-12)
        previous = scores


def test_nominal_laplace_smoothing_hand_values():
    rows = [("A",), ("A",), ("B",), ("B",), ("B",)]
    labels = [MIN, MIN, MIN, MAJ, MAJ]
    model = train(dataset(NOM1, rows, labels), ClassifierSpec())
    # P(A|min)=3/5, P(A|maj)=1/4, priors 0.6/0.4
    assert score(model, ("A",)) == pytest.approx(18.0 / 23.0, abs=1e-12)
    # unseen category falls back to 1/(n_c + V): 1/5 vs 1/4
    assert score(model, ("C",)) == pytest.approx(6.0 / 11.0, abs=1e-12)
    # a table with its own intern order is scored by token, not by code
    probe = model.score_rows(dataset(NOM1, [("C",), ("B",), ("A",)], [MAJ] * 3))
    assert probe[[0, 2]].tolist() == pytest.approx([6.0 / 11.0, 18.0 / 23.0], abs=1e-12)


def test_laplace_vocabulary_is_the_training_split():
    # a training fold shares its parent's intern table, which here also
    # knows "C"; the smoothing counts only categories the fold holds
    rows = [("A",), ("A",), ("B",), ("B",), ("B",), ("C",)]
    full = dataset(NOM1, rows, [MIN, MIN, MIN, MAJ, MAJ, MAJ])
    model = train(full.subset(range(5)), ClassifierSpec())
    assert score(model, ("A",)) == pytest.approx(18.0 / 23.0, abs=1e-12)
    assert score(model, ("C",)) == pytest.approx(6.0 / 11.0, abs=1e-12)


def test_constant_feature_does_not_blow_up():
    rows = [(5.0, 1.0), (5.0, 2.0), (5.0, 9.0), (5.0, 10.0)]
    labels = [MIN, MIN, MAJ, MAJ]
    schema = FeatureSchema((("dead", "continuous"), ("live", "continuous")), "cls")
    model = train(dataset(schema, rows, labels), ClassifierSpec())
    got = score(model, (5.0, 1.5))
    assert 0.5 < got <= 1.0
    assert math.isfinite(got)


@pytest.mark.parametrize("value", [1.0, 1000.0])
def test_a_training_constant_feature_contributes_nothing(value):
    # "dead" is 0.0 over the whole training split and ``value`` in every
    # test row: the scores are those of the model fit without it, bit for
    # bit. Two live features keep both fits' column means on numpy's
    # column-by-column sums; a single column is summed pairwise instead,
    # which can move the last bit of a mean.
    rng = np.random.default_rng(15)
    live = rng.normal(size=(200, 2))
    minority = rng.random(200) < 0.3
    live[minority] += 1.5
    labels = [MIN if m else MAJ for m in minority]
    probe = rng.normal(size=(6, 2)).tolist()
    with_dead = FeatureSchema(
        (("a", "continuous"), ("dead", "continuous"), ("b", "continuous")), "cls"
    )
    without = FeatureSchema((("a", "continuous"), ("b", "continuous")), "cls")
    model = train(dataset(with_dead, [(a, 0.0, b) for a, b in live.tolist()], labels), ClassifierSpec())
    alone = train(dataset(without, live.tolist(), labels), ClassifierSpec())
    got = model.score_rows(dataset(with_dead, [(a, value, b) for a, b in probe], [MAJ] * 6))
    want = alone.score_rows(dataset(without, probe, [MAJ] * 6))
    assert got.tobytes() == want.tobytes()
    assert len(set(want.tolist())) == 6


def test_a_variance_that_overflows_is_a_data_error():
    # a spread of 2e200 squares past the float range
    schema = FeatureSchema((("x", "continuous"), ("y", "continuous")), "cls")
    rows = [(1.0, 1e200), (2.0, -1e200), (3.0, 0.0), (4.0, 5.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning on the way
        with pytest.raises(DataError, match="^continuous feature 'y' spreads too far"):
            train(dataset(schema, rows, [MIN, MIN, MAJ, MAJ]), ClassifierSpec())


def test_train_rejects_single_class():
    ds = dataset(CONT1, [(0.0,), (1.0,)], [MIN, MIN])
    with pytest.raises(ValueError, match="class"):
        train(ds, ClassifierSpec())


def test_train_rejects_external_spec():
    with pytest.raises(ConfigError, match="external"):
        train(blobs_1d(), ClassifierSpec(kind="external", command="true"))


def test_predict_extreme_thresholds():
    # threshold 0 labels every row minority, 1 every row scoring below 1 majority
    model = train(blobs_1d(), ClassifierSpec())
    probe = dataset(CONT1, [(-1.0,), (3.0,), (7.0,)], [MIN, MAJ, MAJ])
    scores = model.score_rows(probe)
    assert confusion_from_scores(scores, probe.minority, 0.0) == ConfusionMatrix(
        tp=1, fp=2, tn=0, fn=0
    )
    assert confusion_from_scores(scores, probe.minority, 1.0) == ConfusionMatrix(
        tp=0, fp=0, tn=2, fn=1
    )


def test_predict_threshold_is_inclusive():
    model = train(blobs_1d(), ClassifierSpec())
    assert score(model, (3.0,)) == 0.5
    cm = confusion_from_scores([score(model, (3.0,))], [True], 0.5)
    assert cm == ConfusionMatrix(tp=1, fp=0, tn=0, fn=0)


def test_label_swap_mirrors_scores():
    rows = [(0.0,), (2.0,), (3.0,), (4.0,), (6.0,), (8.0,)]
    labels = [MIN, MIN, MIN, MAJ, MAJ, MAJ]
    flipped = [MAJ if l is MIN else MIN for l in labels]
    a = train(dataset(CONT1, rows, labels), ClassifierSpec())
    b = train(dataset(CONT1, rows, flipped), ClassifierSpec())
    for x in np.linspace(-2, 10, 25):
        assert score(a, (float(x),)) + score(b, (float(x),)) == pytest.approx(
            1.0, abs=1e-9
        )


def test_confusion_from_scores():
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    actual = np.array([True, False, True, False])
    cm = confusion_from_scores(scores, actual, 0.5)
    assert cm == ConfusionMatrix(tp=2, fp=0, tn=2, fn=0)
    cm = confusion_from_scores(scores, actual, 0.05)
    assert cm == ConfusionMatrix(tp=2, fp=2, tn=0, fn=0)


def test_threshold_sweep_monotone_and_consistent():
    rng = np.random.default_rng(62)
    rows = [tuple(map(float, rng.normal(size=1))) for _ in range(120)]
    labels = [MIN if i < 40 else MAJ for i in range(120)]
    ds = dataset(CONT1, [(r[0] - 2.0,) if l is MIN else r for r, l in zip(rows, labels)], labels)
    model = train(ds, ClassifierSpec())
    probe = [tuple(map(float, rng.normal(size=1))) for _ in range(200)]
    actual = [MIN if rng.random() < 0.3 else MAJ for _ in range(200)]
    probe = dataset(CONT1, probe, actual)
    thresholds = [0.5, 0.45, 0.4, 0.3, 0.2, 0.1, 0.0]
    scores = model.score_rows(probe)
    prev_tp = prev_fp = -1
    for t in thresholds:
        cm = confusion_from_scores(scores, probe.minority, t)
        tallied = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for s, label in zip(scores.tolist(), actual):
            key = ("t" if (s >= t) == (label is MIN) else "f") + ("p" if s >= t else "n")
            tallied[key] += 1
        assert cm == ConfusionMatrix(**tallied)
        assert cm.tp >= prev_tp and cm.fp >= prev_fp
        prev_tp, prev_fp = cm.tp, cm.fp


def _random_mixed(rng, n, tokens="ABCD"):
    """Rows of two continuous and two nominal features; every third row minority."""
    rows = [
        (float(rng.normal()), float(rng.normal(2.0)), str(rng.choice(list(tokens))),
         str(rng.choice(list(tokens))))
        for _ in range(n)
    ]
    labels = [MIN if i % 3 == 0 else MAJ for i in range(n)]
    schema = FeatureSchema(
        (("x", "continuous"), ("y", "continuous"), ("c", "nominal"), ("d", "nominal")), "cls"
    )
    return dataset(schema, rows, labels)


def test_prior_sweep_scores_equal_separate_fits_bit_for_bit():
    ds = _random_mixed(np.random.default_rng(63), 90)
    train_ds, test = ds.subset(range(60)), ds.subset(range(60, 90))
    spec = ClassifierSpec(prior_multiplier=3)
    model = train(train_ds, spec)
    swept = model.score_rows(test, DEFAULT_MULTIPLIERS)
    assert swept.shape == (len(DEFAULT_MULTIPLIERS), len(test))
    for m, scores in zip(DEFAULT_MULTIPLIERS, swept):
        alone = train(train_ds, ClassifierSpec(spec.kind, m, spec.threshold, spec.command)).score_rows(test)
        assert np.array_equal(scores, alone), m
    assert np.array_equal(model.score_rows(test), model.score_rows(test, [3])[0])


def test_shared_intern_tables_score_like_remapped_ones():
    # the test split shares the training intern tables and skips the remap;
    # the same rows loaded on their own (another token order, so other
    # codes) go through it; "D" appears only in the test rows
    ds = _random_mixed(np.random.default_rng(64), 80, tokens="ABC")
    extra = dataset(ds.schema, [(0.5, 2.5, "D", "A"), (0.1, 1.0, "B", "D")], [MAJ, MIN])
    rows = ds.rows + extra.rows
    labels = [MIN if m else MAJ for m in np.concatenate([ds.minority, extra.minority])]
    full = dataset(ds.schema, rows, labels)
    train_ds, shared = full.subset(range(60)), full.subset(range(60, 82))
    own = dataset(ds.schema, list(reversed(shared.rows)), list(reversed(labels[60:])))
    model = train(train_ds, ClassifierSpec())
    assert all(shared.intern[i] is model.intern[i] for i in ds.schema.nominal_indices)
    assert all(own.intern[i] != model.intern[i] for i in ds.schema.nominal_indices)
    scores = model.score_rows(shared)
    assert np.array_equal(scores, model.score_rows(own)[::-1])
    # a category no table holds scores like one the training split lacks
    unseen = model.score_rows(dataset(ds.schema, [(0.5, 2.5, "Z", "A")], [MAJ]))
    assert scores[20] == unseen[0]


@st.composite
def _nominal_splits(draw):
    """(training split, test set). The split is a row subset of a table whose
    nominal features hold 1, 2, 3 or 30 categories, so it may use few of the
    intern tables it shares; the test set has intern tables of its own and
    may hold "Z", a token the training tables lack."""
    n_cont = draw(st.integers(0, 1))
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 30]), min_size=1, max_size=3))
    features = [("x", "continuous")] * n_cont + [(f"c{i}", "nominal") for i in range(len(sizes))]
    schema = FeatureSchema(tuple(features), "cls")

    def rows(n, extra=()):
        cells = [st.integers(-2, 2).map(float)] * n_cont + [
            st.sampled_from([f"v{c}" for c in range(size)] + list(extra)) for size in sizes
        ]
        return draw(st.lists(st.tuples(*cells), min_size=n, max_size=n))

    n = draw(st.integers(2, 24))
    full = dataset(schema, rows(n), draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    keep = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    train_ds = full.subset(sorted(keep))
    assume(train_ds.n_minority and train_ds.n_majority)
    test_rows = rows(draw(st.integers(1, 6)), extra=("Z",))
    return train_ds, dataset(schema, test_rows, [MAJ] * len(test_rows))


@settings(max_examples=200, deadline=None)
@given(split=_nominal_splits())
# "b" is absent from the minority; the test set's "Z" from training
@example(split=(
    dataset(NOM1, [("a",), ("a",), ("b",), ("a",)], [MIN, MIN, MAJ, MAJ]),
    dataset(NOM1, [("b",), ("Z",), ("a",)], [MAJ, MAJ, MAJ]),
))
def test_nominal_loglik_equals_the_per_feature_oracle(split):
    train_ds, test = split
    model = train(train_ds, ClassifierSpec())
    want = nominal_loglik_by_feature(train_ds)
    assert len(model.nominal_loglik) == len(want)
    for got, ref in zip(model.nominal_loglik, want):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    # the test set's codes are remapped; "Z" scores with the column code -1 picks
    fields = [getattr(model, name) for name in TrainedModel._fields[:-1]]
    oracle = TrainedModel(*fields, nominal_loglik=want)
    assert model.score_rows(test).tobytes() == oracle.score_rows(test).tobytes()


def test_multi_threshold_tallies_equal_single_ones_on_exact_ties():
    # every threshold equals some score, so the >= edge is hit on each one
    scores = np.array([0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 0.1, 0.5])
    actual = np.array([False, True, False, True, True, False, True, True, False, False])
    thresholds = [0.5, 0.25, 0.1, 0.0, 1.0, 0.75, 0.5]
    tallies = confusion_from_scores(scores, actual, thresholds)
    assert tallies == [confusion_from_scores(scores, actual, t) for t in thresholds]
    assert tallies[0] == ConfusionMatrix(tp=3, fp=2, tn=3, fn=2)
    assert confusion_from_scores(scores, actual, []) == []


def test_importing_the_cli_leaves_subprocess_unloaded():
    # the external scorer imports subprocess and shlex when it runs
    env = {**os.environ, "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1])}
    code = "import sys, smotekit.cli; print(sorted({'subprocess', 'shlex'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


MIXED = FeatureSchema((("x", "continuous"), ("c", "nominal")), "cls")


def _mixed_dataset():
    rows = [(0.0, "A"), (1.0, "A"), (5.0, "B"), (6.0, "B"), (7.0, "A")]
    labels = [MIN, MIN, MAJ, MAJ, MAJ]
    return dataset(MIXED, rows, labels)


def _test_set(rows):
    """Rows to score; their labels never reach the external scorer."""
    return dataset(MIXED, rows, [MAJ] * len(rows))


STUB_OK = """\
import csv, sys
train_path, test_path, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
for path in (train_path, test_path):
    with open(path) as fh:
        assert "np.float64(" not in fh.read(), path
with open(train_path, newline="") as fh:
    rows = list(csv.reader(fh))
header = rows[0]
assert header == ["x", "c", "cls"], header
tokens = {r[-1] for r in rows[1:]}
assert tokens == {"pos", "neg"}, tokens
with open(test_path, newline="") as fh:
    test = list(csv.reader(fh))
assert test[0] == ["x", "c"], test[0]
with open(out_path, "w") as fh:
    for row in test[1:]:
        fh.write("1.0\\n" if float(row[0]) < 3 else "0.0\\n")
"""


def _write_stub(tmp_path, body, name="stub.py"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return f"{sys.executable} {path}"


def test_external_classifier_contract(tmp_path):
    command = _write_stub(tmp_path, STUB_OK)
    got = score_external(command, _mixed_dataset(), _test_set([(2.0, "A"), (5.5, "B")]))
    assert got.tolist() == [1.0, 0.0]


def test_external_classifier_nonzero_exit(tmp_path):
    command = _write_stub(tmp_path, "import sys; sys.exit(7)", "dies.py")
    with pytest.raises(DataError, match="exited 7"):
        score_external(command, _mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_short_output(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('0.5\\n')\n"
    command = _write_stub(tmp_path, body, "short.py")
    with pytest.raises(DataError, match="scores for"):
        score_external(command, _mixed_dataset(), _test_set([(2.0, "A"), (3.0, "B")]))


def test_external_classifier_out_of_range(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('1.5\\n')\n"
    command = _write_stub(tmp_path, body, "range.py")
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        score_external(command, _mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_non_numeric(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('maybe\\n')\n"
    command = _write_stub(tmp_path, body, "text.py")
    with pytest.raises(DataError, match="non-numeric"):
        score_external(command, _mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_missing_file(tmp_path):
    command = _write_stub(tmp_path, "pass", "noop.py")
    with pytest.raises(DataError, match="no score file"):
        score_external(command, _mixed_dataset(), _test_set([(2.0, "A")]))

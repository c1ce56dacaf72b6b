import math
import sys

import numpy as np
import pytest

from oracles import MAJORITY as MAJ
from oracles import MINORITY as MIN
from oracles import dataset_from_rows
from smotekit.data import FeatureSchema
from smotekit.errors import ConfigError, DataError
from smotekit.evaluate import ConfusionMatrix
from smotekit.model import (
    ClassifierSpec,
    ExternalClassifier,
    confusion_from_scores,
    train,
)

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
    ext = ExternalClassifier(_write_stub(tmp_path, STUB_OK))
    got = ext.score(_mixed_dataset(), _test_set([(2.0, "A"), (5.5, "B")]))
    assert got.tolist() == [1.0, 0.0]


def test_external_classifier_nonzero_exit(tmp_path):
    ext = ExternalClassifier(
        _write_stub(tmp_path, "import sys; sys.exit(7)", "dies.py")
    )
    with pytest.raises(DataError, match="exited 7"):
        ext.score(_mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_short_output(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('0.5\\n')\n"
    ext = ExternalClassifier(_write_stub(tmp_path, body, "short.py"))
    with pytest.raises(DataError, match="scores for"):
        ext.score(_mixed_dataset(), _test_set([(2.0, "A"), (3.0, "B")]))


def test_external_classifier_out_of_range(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('1.5\\n')\n"
    ext = ExternalClassifier(_write_stub(tmp_path, body, "range.py"))
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        ext.score(_mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_non_numeric(tmp_path):
    body = "import sys\nopen(sys.argv[3], 'w').write('maybe\\n')\n"
    ext = ExternalClassifier(_write_stub(tmp_path, body, "text.py"))
    with pytest.raises(DataError, match="non-numeric"):
        ext.score(_mixed_dataset(), _test_set([(2.0, "A")]))


def test_external_classifier_missing_file(tmp_path):
    ext = ExternalClassifier(_write_stub(tmp_path, "pass", "noop.py"))
    with pytest.raises(DataError, match="no score file"):
        ext.score(_mixed_dataset(), _test_set([(2.0, "A")]))

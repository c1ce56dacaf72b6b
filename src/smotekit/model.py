"""Classifiers that emit a minority-class score per row.

The built-in classifier is naive Bayes: Gaussian likelihoods for continuous
features (variances floored at 1e-9 times the squared feature range so a
degenerate feature cannot zero out a likelihood) and Laplace-smoothed
frequencies for nominal features (pseudo-count 1; categories unseen in
training fall back to the smoothed uniform mass). The minority prior can be
scaled by a multiplier and renormalized, which sweeps the operating point the
same way moving the decision threshold does.

External classifiers plug in through a file contract, see
:class:`ExternalClassifier`.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ClassLabel, Dataset, Row, encode_rows, save_csv
from .errors import ConfigError, DataError
from .evaluate import ConfusionMatrix

_VARIANCE_FLOOR_SCALE = 1e-9
_DEGENERATE_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus the knobs that move its operating point.

    ``prior_multiplier`` values in [1, 50] are the usual sweep range; values
    outside it warn but run. ``command`` names the executable for
    ``kind="external"`` and is ignored otherwise.
    """

    kind: str = "naive_bayes"
    prior_multiplier: float = 1.0
    threshold: float = 0.5
    command: str = None

    def __post_init__(self):
        if self.kind not in ("naive_bayes", "external"):
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        if self.prior_multiplier <= 0:
            raise ConfigError(
                f"prior_multiplier must be positive, got {self.prior_multiplier}"
            )
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not (1.0 <= self.prior_multiplier <= 50.0):
            warnings.warn(
                f"prior_multiplier {self.prior_multiplier} is outside the "
                "usual [1, 50] sweep range",
                stacklevel=2,
            )
        if self.kind == "external" and not self.command:
            raise ConfigError("external classifier needs a command")


@dataclass
class TrainedModel:
    """Fitted naive Bayes parameters; class order is (minority, majority)."""

    schema: object
    intern: tuple  # the training set's intern tables
    log_priors: tuple
    means: np.ndarray  # shape (2, n_continuous)
    variances: np.ndarray  # shape (2, n_continuous), floored positive
    # per nominal feature, shape (2, n_codes + 1): log P(value | class) by
    # intern code; the last column, which code -1 picks, is the fallback for
    # a token outside the intern table
    nominal_loglik: list

    def score_rows(self, rows: Sequence[Row]) -> np.ndarray:
        """Posterior minority probability per row, vectorized."""
        x, codes = encode_rows(self.schema, rows, self.intern)
        log_min = np.full(len(rows), self.log_priors[0])
        log_maj = np.full(len(rows), self.log_priors[1])
        if x.shape[1]:
            for c, acc in enumerate((log_min, log_maj)):
                diff = x - self.means[c]
                acc += (
                    -0.5 * (np.log(2.0 * np.pi * self.variances[c])
                            + diff * diff / self.variances[c])
                ).sum(axis=1)
        for table, column in zip(self.nominal_loglik, codes.T):
            log_min += table[0, column]
            log_maj += table[1, column]
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(log_maj - log_min))


def train(ds: Dataset, spec: ClassifierSpec) -> TrainedModel:
    """Fit naive Bayes on a training split.

    The minority prior is the empirical fraction scaled by
    ``spec.prior_multiplier`` and renormalized against the majority count.
    Continuous variances use the n denominator and are floored; nominal
    likelihoods are Laplace-smoothed over the categories seen in training.

    Raises:
        ValueError: single-class training set.
        ConfigError: spec does not describe the built-in classifier.
    """
    if spec.kind != "naive_bayes":
        raise ConfigError(
            "train() fits the built-in naive Bayes; run external classifiers "
            "through ExternalClassifier"
        )
    n_min = ds.n_minority
    n_maj = ds.n_majority
    if n_min == 0 or n_maj == 0:
        raise ValueError("training set must contain both classes")
    scaled = spec.prior_multiplier * n_min
    priors = (scaled / (scaled + n_maj), n_maj / (scaled + n_maj))
    masks = (ds.minority, ~ds.minority)

    cont = ds.cont
    means = np.zeros((2, cont.shape[1]))
    variances = np.ones((2, cont.shape[1]))
    if cont.shape[1]:
        spread = cont.max(axis=0) - cont.min(axis=0)
        floor = np.where(
            spread > 0.0, _VARIANCE_FLOOR_SCALE * spread * spread, _DEGENERATE_FLOOR
        )
        for c, mask in enumerate(masks):
            x = cont[mask]
            means[c] = x.mean(axis=0)
            variances[c] = np.maximum(x.var(axis=0), floor)

    nominal_loglik = []
    for i, column in zip(ds.schema.nominal_indices, ds.codes.T):
        # one slot past the intern table counts 0, like a category unseen in
        # training: both score log(1 / (class count + categories seen))
        size = len(ds.intern[i]) + 1
        counts = np.stack([np.bincount(column[mask], minlength=size) for mask in masks])
        n_seen = np.count_nonzero(counts.sum(axis=0))
        nominal_loglik.append(np.log((counts + 1) / [[n_min + n_seen], [n_maj + n_seen]]))

    return TrainedModel(
        schema=ds.schema,
        intern=ds.intern,
        log_priors=(float(np.log(priors[0])), float(np.log(priors[1]))),
        means=means,
        variances=variances,
        nominal_loglik=nominal_loglik,
    )


def score(model: TrainedModel, row: Row) -> float:
    """Posterior minority probability for one row."""
    return float(model.score_rows([row])[0])


def predict(model: TrainedModel, row: Row, threshold: float) -> ClassLabel:
    """Minority iff the score reaches the threshold; 0 labels everything
    minority, 1 labels everything with score < 1 majority."""
    return (
        ClassLabel.MINORITY
        if score(model, row) >= threshold
        else ClassLabel.MAJORITY
    )


def confusion_from_scores(
    scores: np.ndarray, actual: Sequence[ClassLabel], threshold: float
) -> ConfusionMatrix:
    """Confusion matrix from precomputed scores at one threshold."""
    scores = np.asarray(scores, dtype=float)
    if len(scores) != len(actual):
        raise ValueError(f"{len(scores)} scores against {len(actual)} labels")
    actual_min = np.array(
        [ClassLabel(a) is ClassLabel.MINORITY for a in actual], dtype=bool
    )
    predicted_min = scores >= threshold
    return ConfusionMatrix(
        tp=int(np.sum(predicted_min & actual_min)),
        fp=int(np.sum(predicted_min & ~actual_min)),
        tn=int(np.sum(~predicted_min & ~actual_min)),
        fn=int(np.sum(~predicted_min & actual_min)),
    )


def threshold_sweep(
    model: TrainedModel,
    rows: Sequence[Row],
    actual: Sequence[ClassLabel],
    thresholds: Sequence[float],
) -> list:
    """Score once, then tally a confusion matrix per threshold."""
    scores = model.score_rows(rows)
    return [(t, confusion_from_scores(scores, actual, t)) for t in thresholds]


@dataclass
class ExternalClassifier:
    """Adapter for a user-supplied scoring command.

    File contract, all paths passed as arguments:

    ``<command> <train_csv> <test_csv> <scores_out>``

    * ``train_csv``: header row, feature columns in schema order, class
      column last holding the original class tokens.
    * ``test_csv``: header row, the same feature columns, no class column.
    * ``scores_out``: the command must write one line per test row, in test
      row order, each a float in [0, 1] scoring the minority class.

    The command must exit 0 on success; any other exit code, a malformed or
    wrongly sized score file, or scores outside [0, 1] raise DataError.
    """

    command: str

    def score(self, train_ds: Dataset, test: Dataset) -> np.ndarray:
        with tempfile.TemporaryDirectory(prefix="smotekit-ext-") as tmp:
            tmp_path = Path(tmp)
            train_csv = tmp_path / "train.csv"
            test_csv = tmp_path / "test.csv"
            scores_out = tmp_path / "scores.txt"
            save_csv(train_ds, train_csv)
            save_csv(test, test_csv, class_column=False)
            argv = shlex.split(self.command) + [
                str(train_csv),
                str(test_csv),
                str(scores_out),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                raise DataError(
                    f"external classifier exited {proc.returncode}: "
                    f"{proc.stderr.strip()[-500:]}"
                )
            try:
                lines = scores_out.read_text(encoding="utf-8").splitlines()
            except FileNotFoundError:
                raise DataError(
                    "external classifier wrote no score file"
                ) from None
        if len(lines) != len(test):
            raise DataError(
                f"external classifier wrote {len(lines)} scores for "
                f"{len(test)} test rows"
            )
        try:
            values = np.array([float(line) for line in lines])
        except ValueError:
            raise DataError("external classifier wrote a non-numeric score") from None
        if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
            raise DataError("external classifier scores must lie in [0, 1]")
        return values

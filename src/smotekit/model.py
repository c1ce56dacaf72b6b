"""Classifiers that emit a minority-class score per row.

The built-in classifier is naive Bayes: Gaussian likelihoods for continuous
features (variances floored at 1e-9 times the squared feature range over
the training split; a feature constant over that split is left out, as it
tells the classes nothing) and Laplace-smoothed frequencies for nominal
features (pseudo-count 1; categories unseen in training fall back to the
smoothed uniform mass). The minority prior can be scaled by a multiplier and
renormalized, which sweeps the operating point the same way moving the
decision threshold does.

External classifiers plug in through a file contract, see
:func:`score_external`.
"""

from __future__ import annotations

import math
import numbers
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .data import Dataset, category_counts, save_csv
from .errors import ConfigError, DataError
from .evaluate import ConfusionMatrix
from .record import _FrozenRecord, _Record

_VARIANCE_FLOOR_SCALE = 1e-9
_SCORER_TIMEOUT_S = 600  # seconds one external scorer run may take

CLASSIFIER_KINDS = ("naive_bayes", "external")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ClassifierSpec(_FrozenRecord):
    """Classifier kind plus the knobs that move its operating point.

    ``prior_multiplier`` values in [1, 50] are the usual sweep range; values
    outside it warn but run. ``command`` names the executable for
    ``kind="external"`` and is ignored otherwise.
    """

    _fields = ("kind", "prior_multiplier", "threshold", "command")

    def __init__(
        self,
        kind: str = "naive_bayes",
        prior_multiplier: float = 1.0,
        threshold: float = 0.5,
        command: str = None,
    ):
        if kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"unknown classifier kind {kind!r}")
        for name, value in (("prior_multiplier", prior_multiplier), ("threshold", threshold)):
            if not _is_real(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if prior_multiplier <= 0:
            raise ConfigError(f"prior_multiplier must be positive, got {prior_multiplier}")
        if not math.isfinite(prior_multiplier):
            raise ConfigError(f"prior_multiplier must be finite, got {prior_multiplier}")
        if not (0.0 <= threshold <= 1.0):
            raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
        if not (1.0 <= prior_multiplier <= 50.0):
            warnings.warn(
                f"prior_multiplier {prior_multiplier} is outside the usual [1, 50] sweep range",
                stacklevel=2,  # the caller's line
            )
        if kind == "external" and not (isinstance(command, str) and command):
            raise ConfigError(f"external classifier needs a command string, got {command!r}")
        vars(self).update(
            kind=kind, prior_multiplier=prior_multiplier, threshold=threshold, command=command
        )


def _log_priors(multiplier: float, n_min: int, n_maj: int) -> tuple:
    """Log (minority, majority) priors: the minority count scaled by
    ``multiplier`` and renormalized against the majority count."""
    scaled = multiplier * n_min
    priors = (scaled / (scaled + n_maj), n_maj / (scaled + n_maj))
    return float(np.log(priors[0])), float(np.log(priors[1]))


class TrainedModel(_Record):
    """Fitted naive Bayes parameters; class order is (minority, majority)."""

    _fields = (
        "schema", "intern", "class_counts", "log_priors", "means", "variances", "nominal_loglik"
    )

    def __init__(
        self,
        schema: object,
        intern: tuple,
        class_counts: tuple,
        log_priors: tuple,
        means: np.ndarray,
        variances: np.ndarray,
        nominal_loglik: list,
    ):
        self.schema = schema
        self.intern = intern  # the training set's intern tables
        self.class_counts = class_counts  # (minority, majority) training rows
        self.log_priors = log_priors  # at the fitted prior multiplier
        self.means = means  # shape (2, n_continuous)
        # shape (2, n_continuous), floored positive; 0 in both rows for a
        # feature constant over the training split, which scores leave out
        self.variances = variances
        # per nominal feature, shape (2, n_codes + 1): log P(value | class) by
        # intern code; the last column, which code -1 picks, is the fallback
        # for a token outside the intern table
        self.nominal_loglik = nominal_loglik

    def score_rows(self, test: Dataset, multipliers=None) -> np.ndarray:
        """Posterior minority probability of every row of ``test``, vectorized.

        ``test`` has the training schema; its nominal codes are mapped into
        the training intern tables, one lookup per category, and a token the
        training tables lack scores with the fallback column. A ``test`` that
        shares the training intern tables, as every split of one dataset
        does, needs no mapping.

        With ``multipliers=None`` the scores are 1-D, at the fitted prior.
        Otherwise there is one row of scores per multiplier, each as if the
        model had been trained with that ``prior_multiplier``: the likelihood
        terms are computed once, and every row adds them to its own log
        priors in the same order, so it equals a separate fit bit for bit.
        """
        if multipliers is None:
            priors = [self.log_priors]
        else:
            priors = [_log_priors(m, *self.class_counts) for m in multipliers]
        # per class, the continuous sum and then one term per nominal feature
        terms = [[], []]
        x, means, variances = test.cont, self.means, self.variances
        used = variances.all(axis=0)
        if not used.all():  # a feature of variance 0 is left out; a copy only then
            x, means, variances = x[:, used], means[:, used], variances[:, used]
        if x.shape[1]:
            for c, acc in enumerate(terms):
                diff = x - means[c]
                acc.append(
                    (-0.5 * (np.log(2.0 * np.pi * variances[c])
                             + diff * diff / variances[c])).sum(axis=1)
                )
        for table, i, column in zip(
            self.nominal_loglik, self.schema.nominal_indices, test.codes.T
        ):
            known = self.intern[i]
            if test.intern[i] is not known:
                lookup = np.array([known.get(token, -1) for token in test.intern[i]], dtype=int)
                column = lookup[column]
            for c, acc in enumerate(terms):
                acc.append(table[c, column])
        # shape (2, multipliers, rows): each class's log posterior from its prior
        priors = np.array(priors, dtype=float).reshape(-1, 2).T
        log_post = np.repeat(priors[:, :, None], len(test), axis=2)
        for c, acc in enumerate(terms):
            for term in acc:
                log_post[c] += term
        with np.errstate(over="ignore"):
            scores = 1.0 / (1.0 + np.exp(log_post[1] - log_post[0]))
        return scores[0] if multipliers is None else scores


def train(ds: Dataset, spec: ClassifierSpec) -> TrainedModel:
    """Fit naive Bayes on a training split.

    The minority prior is the empirical fraction scaled by
    ``spec.prior_multiplier`` and renormalized against the majority count.
    Continuous variances use the n denominator and are floored at 1e-9
    times the squared range of the feature over ``ds``; a feature of range 0
    gets variance 0 in both classes, which leaves it out of the scores.
    Nominal likelihoods are Laplace-smoothed over the categories seen in
    training.

    Raises:
        ValueError: single-class training set.
        ConfigError: spec does not describe the built-in classifier.
        DataError: a continuous feature whose variance overflows.
    """
    if spec.kind != "naive_bayes":
        raise ConfigError(
            "train() fits the built-in naive Bayes; run external classifiers "
            "through score_external"
        )
    n_min = ds.n_minority
    n_maj = ds.n_majority
    if n_min == 0 or n_maj == 0:
        raise ValueError("training set must contain both classes")
    masks = (ds.minority, ~ds.minority)

    cont = ds.cont
    means = np.zeros((2, cont.shape[1]))
    variances = np.ones((2, cont.shape[1]))
    if cont.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            spread = cont.max(axis=0) - cont.min(axis=0)
            floor = _VARIANCE_FLOOR_SCALE * spread * spread
            for c, mask in enumerate(masks):
                x = cont[mask]
                means[c] = x.mean(axis=0)
                variances[c] = np.maximum(x.var(axis=0), floor)
        overflow = ~np.isfinite(variances).all(axis=0)
        if overflow.any():
            name = ds.schema.names[ds.schema.continuous_indices[overflow.argmax()]]
            raise DataError(
                f"continuous feature {name!r} spreads too far: its naive Bayes variance overflows"
            )
        variances[:, spread == 0.0] = 0.0

    nominal_loglik = []
    if ds.schema.nominal_indices:
        # the slot past each intern table counts 0, like a category unseen in
        # training: both score log(1 / (class count + categories seen))
        counts, starts = category_counts(ds)
        ends = np.append(starts[1:], counts.shape[1])
        n_seen = np.add.reduceat(counts.any(axis=0), starts)  # categories seen, per feature
        class_n = np.array([[n_min], [n_maj]])
        loglik = np.log((counts + 1) / (class_n + np.repeat(n_seen, ends - starts)))
        nominal_loglik = [loglik[:, a:b] for a, b in zip(starts.tolist(), ends.tolist())]

    return TrainedModel(
        schema=ds.schema,
        intern=ds.intern,
        class_counts=(n_min, n_maj),
        log_priors=_log_priors(spec.prior_multiplier, n_min, n_maj),
        means=means,
        variances=variances,
        nominal_loglik=nominal_loglik,
    )


def confusion_from_scores(scores: np.ndarray, actual_min: np.ndarray, thresholds):
    """Confusion matrices from precomputed scores, all thresholds in one pass.

    ``actual_min`` is the boolean mask of the rows truly in the minority; a
    row is predicted minority when its score is ``>=`` the threshold. One
    threshold gives one :class:`ConfusionMatrix`, a sequence of thresholds a
    list with one matrix per threshold, in order.
    """
    scores = np.asarray(scores, dtype=float)
    actual_min = np.asarray(actual_min, dtype=bool)
    if len(scores) != len(actual_min):
        raise ValueError(f"{len(scores)} scores against {len(actual_min)} labels")
    cuts = np.asarray(thresholds, dtype=float)
    predicted_min = scores >= cuts.reshape(-1, 1)
    tps = np.count_nonzero(predicted_min & actual_min, axis=1)
    fps = np.count_nonzero(predicted_min, axis=1) - tps
    n_min = int(np.count_nonzero(actual_min))
    n_maj = len(scores) - n_min
    matrices = [
        ConfusionMatrix(tp=tp, fp=fp, tn=n_maj - fp, fn=n_min - tp)
        for tp, fp in zip(tps.tolist(), fps.tolist())
    ]
    return matrices if cuts.ndim else matrices[0]


def score_external(command: str, train_ds: Dataset, test: Dataset) -> np.ndarray:
    """Minority scores of ``test`` from a user-supplied scoring command fit
    on ``train_ds``.

    File contract, all paths passed as arguments:

    ``<command> <train_csv> <test_csv> <scores_out>``

    * ``train_csv``: header row, feature columns in schema order, class
      column last holding the original class tokens.
    * ``test_csv``: header row, the same feature columns, no class column.
    * ``scores_out``: the command must write one line per test row, in test
      row order, each a float in [0, 1] scoring the minority class.

    The command must exit 0 on success; any other exit code, a run past
    ``_SCORER_TIMEOUT_S`` seconds (the command is killed), a malformed or
    wrongly sized score file, or scores outside [0, 1] raise DataError.
    """
    import shlex
    import subprocess

    with tempfile.TemporaryDirectory(prefix="smotekit-ext-") as tmp:
        tmp_path = Path(tmp)
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        scores_out = tmp_path / "scores.txt"
        save_csv(train_ds, train_csv)
        save_csv(test, test_csv, class_column=False)
        argv = shlex.split(command) + [str(train_csv), str(test_csv), str(scores_out)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=_SCORER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise DataError(f"external classifier {command!r} ran past {exc.timeout} s") from None
        if proc.returncode != 0:
            raise DataError(
                f"external classifier exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        try:
            lines = scores_out.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            raise DataError("external classifier wrote no score file") from None
    if len(lines) != len(test):
        raise DataError(f"external classifier wrote {len(lines)} scores for {len(test)} test rows")
    try:
        values = np.array([float(line) for line in lines])
    except ValueError:
        raise DataError("external classifier wrote a non-numeric score") from None
    if np.any(~np.isfinite(values)) or np.any(values < 0) or np.any(values > 1):
        raise DataError("external classifier scores must lie in [0, 1]")
    return values

"""Synthetic minority over-sampling and majority under-sampling.

The over-sampling amount ``n_percent`` is interpreted in integral multiples of
100: each minority row spawns ``floor(n_percent / 100)`` synthetic rows along
segments toward its k nearest minority neighbors. Amounts under 100 instead
select ``floor(n_percent/100 * T)`` distinct bases at random and give each one
synthetic row. ``k`` enters only the neighbor search, which computes the
neighbor lists once; synthesis reads the lists and the votes that
:func:`_synthesis_source` computes from them once. Three synthesis flavors
cover the schema shapes, all called as ``(minority, params, neighbors, rng=None)``:

* ``smote``: all-continuous; interpolate every coordinate.
* ``smote_nc``: mixed; interpolate continuous coordinates, set each nominal
  coordinate by majority vote over the base's k nearest neighbors (base
  excluded from the vote).
* ``smote_n``: all-nominal; every coordinate comes from a majority vote over
  the base plus its k nearest neighbors.

Vote ties prefer the base's own value when it is among the leaders, otherwise
the leader whose category was interned first. Every synthetic row carries
provenance (base index, neighbor index, gap draws) so audits can verify the
segment geometry after the fact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import distance
from .data import Dataset, _write_lines
from .distance import (
    EuclideanMetric,
    NcMetric,
    VdmMetric,
    VdmTable,
    compute_med,
)
from .errors import DataError
from .neighbors import knn_minority
from .record import _FrozenRecord, _Record
from .rng import child_seed, generator

PER_ATTRIBUTE = "per-attribute"
SHARED = "shared"
WITH_REPLACEMENT = "with-replacement"
DISTINCT = "distinct"

GAP_MODES = (PER_ATTRIBUTE, SHARED)
NEIGHBOR_MODES = (WITH_REPLACEMENT, DISTINCT)

VARIANTS = ("smote", "smote_nc", "smote_n", "replicate")
UNDER_BASES = ("pre", "post")

# The one schema shape each synthesis variant takes.
_SHAPES = {"smote": "all-continuous", "smote_nc": "mixed", "smote_n": "all-nominal"}


class SmoteParams(_FrozenRecord):
    """Over-sampling amount, then keyword-only seed and sampling modes.

    ``gap_mode`` selects how many uniform draws shape one synthetic row:
    ``per-attribute`` (default) draws a fresh gap for every interpolated
    coordinate; ``shared`` draws a single gap per row, placing the row on the
    straight segment between base and neighbor. ``neighbor_mode`` controls
    repeat neighbor picks for one base: ``with-replacement`` (default) draws
    independently; ``distinct`` deals the neighbor list out in shuffled
    rounds so picks repeat only once the list is exhausted.
    """

    _fields = ("n_percent", "seed", "gap_mode", "neighbor_mode")

    def __init__(
        self,
        n_percent: int,
        *,
        seed: int = 0,
        gap_mode: str = PER_ATTRIBUTE,
        neighbor_mode: str = WITH_REPLACEMENT,
    ):
        if n_percent < 0:
            raise ValueError(f"n_percent must be non-negative, got {n_percent}")
        if gap_mode not in GAP_MODES:
            raise ValueError(f"unknown gap mode {gap_mode!r}")
        if neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"unknown neighbor mode {neighbor_mode!r}")
        vars(self).update(
            n_percent=n_percent, seed=seed, gap_mode=gap_mode, neighbor_mode=neighbor_mode
        )


class Provenance(_FrozenRecord):
    """Origin of every synthetic row of one batch, as three columns.

    ``base_index`` and ``neighbor_index`` have shape ``(n,)``; ``gaps`` has
    shape ``(n, g)`` and holds the uniform draws that built each row: g is 1
    in shared mode and for replication (all zero), the number of
    interpolated coordinates in per-attribute mode, and 0 for pure-vote
    synthesis. Vote-based and replicated rows record
    ``neighbor_index == base_index`` since no single source neighbor exists.
    A provenance equals only itself.
    """

    _fields = ("base_index", "neighbor_index", "gaps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, base_index: np.ndarray, neighbor_index: np.ndarray, gaps: np.ndarray):
        vars(self).update(base_index=base_index, neighbor_index=neighbor_index, gaps=gaps)

    def __len__(self) -> int:
        return len(self.base_index)


class SyntheticBatch(_Record):
    """Synthetic rows, as a minority Dataset, plus their provenance columns."""

    _fields = ("data", "provenance")

    def __init__(self, data: Dataset, provenance: Provenance):
        self.data = data
        self.provenance = provenance

    @property
    def rows(self) -> list:
        return list(self.data.rows)

    def __len__(self) -> int:
        return len(self.data)


def _synthetic_count(n_percent: int, t: int) -> int:
    """The rows every variant makes from ``t`` minority rows at ``n_percent``:
    ``floor(N * T / 100)`` under 100, ``floor(N / 100) * T`` otherwise."""
    return n_percent * t // 100 if n_percent < 100 else n_percent // 100 * t


def _plan_bases(n_percent: int, t: int, rng: np.random.Generator):
    """Rewrite the over-sampling amount into (base indices, rows per base)."""
    if n_percent == 0:
        return np.empty(0, dtype=int), 0
    if n_percent < 100:
        return rng.permutation(t)[:_synthetic_count(n_percent, t)], 1
    return np.arange(t), n_percent // 100


def _pick_neighbors(width: int, n_bases: int, per_base: int, mode: str, rng) -> np.ndarray:
    """Positions into the neighbor lists for ``per_base`` rows of each of
    ``n_bases`` bases, flat and grouped by base.

    ``distinct`` deals each base's list out in rounds, each round a fresh
    permutation (a stable argsort of uniform keys), so picks repeat only once
    the list is exhausted.
    """
    if mode == WITH_REPLACEMENT:
        return rng.integers(0, width, size=n_bases * per_base)
    rounds = -(-per_base // width)
    dealt = np.argsort(rng.random((n_bases, rounds, width)), axis=2, kind="stable")
    return dealt.reshape(n_bases, rounds * width)[:, :per_base].reshape(-1)


def _vote(codes: np.ndarray, lists: np.ndarray, base_votes: bool) -> np.ndarray:
    """Voted nominal codes of every source row, one column per nominal feature.

    Each column takes the code most frequent among the row's neighbors (the
    row itself joins the vote only when ``base_votes``). Ties prefer the
    row's own code, else the lowest code, i.e. the first-interned category.

    One sort puts every row and feature's voters in code order, voter
    position first, so each code's votes form one run; the first longest
    run holds the lowest most frequent code. Memory is a few arrays of the
    voters' size whatever the category count.
    """
    if base_votes:
        lists = np.concatenate([np.arange(len(codes))[:, None], lists], axis=1)
    if not codes.shape[1] or not lists.shape[1]:
        return codes
    ranked = np.sort(codes[lists.T], axis=0)  # (voters, rows, features)
    # run[p]: the voters before p in ranked[p]'s run. Position by position,
    # since np.maximum.accumulate along the voter axis is slower.
    run = np.zeros_like(ranked)
    for p in range(1, len(ranked)):
        np.multiply(ranked[p] == ranked[p - 1], run[p - 1] + 1, out=run[p])
    first = run.argmax(axis=0)[None]  # where the first longest run ends
    leader = np.take_along_axis(ranked, first, axis=0)[0]
    top = run.max(axis=0) + 1
    own_votes = np.count_nonzero(ranked == codes, axis=0)
    return np.where(own_votes == top, codes, leader)


def _check_shape(schema, variant: str) -> None:
    """Reject a schema of another shape than the one ``variant`` takes."""
    shape = (
        "all-continuous" if schema.all_continuous
        else "all-nominal" if schema.all_nominal
        else "mixed"
    )
    if shape != _SHAPES[variant]:
        raise ValueError(f"{variant} takes {_SHAPES[variant]} features, got {shape} features")


def _synthesis_source(variant: str, minority: Dataset, neighbors) -> tuple:
    """What synthesis of ``variant`` reads from a minority and its neighbor
    lists: ``(minority, lists, votes)``, built once and shared by every call
    that synthesizes from these rows.

    ``minority`` must be a minority-only slice of T >= 2 rows in the schema
    shape ``variant`` takes. This is the one check of given ``neighbors``: a
    ValueError unless they form a ``(T, w)`` integer array (not bool, not
    float; an empty list reads as float and passes on to the width check),
    ``w >= 1`` to interpolate, every index in ``[0, T)``. ``lists`` is that
    array as ``np.intp`` (an intp array is not copied). ``votes`` holds every
    row's voted nominal codes (see :func:`_vote`); the row joins its own vote
    only when no continuous coordinate is interpolated, as in smote_n.
    """
    _check_shape(minority.schema, variant)
    if not minority.minority.all():
        raise ValueError(f"{variant} expects a minority-only dataset slice")
    t = len(minority)
    if t < 2:
        raise ValueError(f"need at least 2 minority rows, got {t}")
    lists = np.asarray(neighbors)  # ragged rows raise
    if lists.size and lists.dtype.kind not in "iu":
        raise ValueError(f"neighbor lists must hold integers, got {lists.dtype}")
    lists = lists.astype(np.intp, copy=False)
    d = minority.cont.shape[1]
    w_min = int(d > 0)  # interpolation needs a neighbor in every row
    if lists.ndim != 2 or len(lists) != t or lists.shape[1] < w_min:
        raise ValueError(f"neighbor lists have shape {lists.shape}, expected ({t}, w) with w >= {w_min}")
    outside = (lists < 0) | (lists >= t)
    if outside.any():
        raise ValueError(f"neighbor index {lists[outside][0]} outside [0, {t})")
    return minority, lists, _vote(minority.codes, lists, base_votes=not d)


def _synthesize(source: tuple, params, rng, out: tuple = None) -> SyntheticBatch:
    """The synthesis behind smote, smote_nc and smote_n, from a ``source``
    that :func:`_synthesis_source` built; nothing is checked or voted again.

    ``rng`` None draws from the seeded substream ``(params.seed, "smote")``.
    Every synthetic row of a base carries the base's votes. After the base
    choice, one call draws every neighbor pick, then every gap; the rows are
    then interpolated and clipped to their base/neighbor boxes straight into
    the output block, in chunks whose base, neighbor and lower-bound
    temporaries hold ``distance._DIFF_BUDGET`` floats together. With no
    continuous columns nothing more is drawn and each row records its base
    as its neighbor, with no gaps.

    ``out``, writable ``(cont, codes, minority)`` blocks of the batch's
    size (the last all True), takes the rows in place of fresh blocks, and
    the batch views them read-only: :func:`apply_plan_detailed` passes its
    set's synthetic row range.
    """
    minority, lists, votes = source
    if rng is None:
        rng = generator(params.seed, "smote")
    bases, per_base = _plan_bases(params.n_percent, len(minority), rng)
    origin = np.repeat(bases, per_base)
    n = len(origin)
    cont = minority.cont
    d = cont.shape[1]
    new = np.empty((n, d)) if out is None else out[0]
    if d:
        partner = lists[
            origin, _pick_neighbors(lists.shape[1], len(bases), per_base, params.neighbor_mode, rng)
        ]
        gaps = rng.random((n, 1) if params.gap_mode == SHARED else (n, d))
        step = max(1, distance._DIFF_BUDGET // (3 * d))  # base, nb and the lower bound: one budget
        for start in range(0, n, step):
            part = slice(start, start + step)
            base, nb, rows = cont[origin[part]], cont[partner[part]], new[part]
            # base + gaps * (nb - base) and its box clip, in place (nb becomes the top)
            np.subtract(nb, base, out=rows)
            rows *= gaps[part]
            rows += base
            np.clip(rows, np.minimum(base, nb), np.maximum(base, nb, out=nb), out=rows)
    else:
        partner, gaps = origin, np.empty((n, 0))
    if out is None:  # the votes' block after the interpolation temporaries are gone
        out = new, np.empty((n, votes.shape[1]), votes.dtype), np.ones(n, dtype=bool)
    np.take(votes, origin, axis=0, out=out[1], mode="clip")  # "clip" writes straight into out
    return SyntheticBatch(minority.with_blocks(*out), Provenance(origin, partner, gaps))


def smote(
    minority: Dataset,
    params: SmoteParams,
    neighbors: np.ndarray,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """Generate synthetic minority rows by segment interpolation.

    Args:
        minority: all-continuous minority-only Dataset (T >= 2).
        params: amount, modes, and seed; ``n_percent == 0`` yields an empty
            batch.
        neighbors: the neighbor lists of these rows, a ``(T, w)`` integer
            array-like, ``w >= 1``, such as
            :func:`~smotekit.neighbors.knn_minority` gives.
        rng: override generator, mainly for tests; defaults to the seeded
            substream ``(params.seed, "smote")``.

    Returns:
        A batch of exactly ``floor(N'/100) * T'`` rows (after the under-100
        rewrite), grouped by base row. Each row's coordinates are clipped to
        the base/neighbor bounding box, which only matters when float
        rounding at gap values near 1 would overshoot by an ulp.
    """
    return _synthesize(_synthesis_source("smote", minority, neighbors), params, rng)


def smote_nc(
    minority: Dataset,
    params: SmoteParams,
    neighbors: np.ndarray,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """Mixed-schema synthesis: interpolate continuous, vote nominal.

    ``minority`` must hold minority rows only; its intern tables drive vote
    tie-breaking; ``neighbors`` is as for :func:`smote`. The median penalty
    enters only the distances behind ``neighbors``: votes and interpolation
    need none. Nominal values come from the k nearest neighbors of the base,
    base excluded, so every synthetic row of one base shares its voted
    nominal part.
    """
    return _synthesize(_synthesis_source("smote_nc", minority, neighbors), params, rng)


def smote_n(
    minority: Dataset,
    params: SmoteParams,
    neighbors: np.ndarray,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """All-nominal synthesis: each coordinate is a majority vote over the base
    plus its k nearest neighbors (the base itself joins this vote, unlike
    smote_nc). ``minority`` is an all-nominal minority-only Dataset; its
    intern tables drive vote tie-breaking. ``neighbors`` is as for
    :func:`smote`, but ``w`` may be 0. Generation is deterministic given
    the neighbor lists; random draws occur only in the under-100 base
    selection.
    """
    return _synthesize(_synthesis_source("smote_n", minority, neighbors), params, rng)


def replicate_oversample(
    minority: Dataset,
    n_percent: int,
    seed: int = 0,
) -> SyntheticBatch:
    """Over-sample by exact replication, the baseline synthetic interpolation
    is measured against: as many rows of the minority-only Dataset
    ``minority`` as SMOTE makes, floor(N/100) * T drawn with replacement, or
    for N < 100 the floor(N * T / 100) distinct rows SMOTE would take as bases."""
    picks = _replicate_picks(n_percent, len(minority), seed)
    return SyntheticBatch(minority.subset(picks), Provenance(picks, picks, np.zeros((len(picks), 1))))


def _replicate_picks(n_percent: int, t: int, seed: int) -> np.ndarray:
    """The rows :func:`replicate_oversample` copies out of ``t`` minority rows."""
    if n_percent < 0:
        raise ValueError(f"n_percent must be non-negative, got {n_percent}")
    if t < 1:
        raise ValueError("need at least 1 minority row")
    rng = generator(seed, "replicate")
    if n_percent < 100:
        return _plan_bases(n_percent, t, rng)[0]
    return rng.integers(0, t, size=_synthetic_count(n_percent, t))


def under_sample(
    majority_indices: Sequence[int],
    minority_count: int,
    percent: int,
    seed: int = 0,
) -> np.ndarray:
    """Choose the majority rows to keep so the minority class becomes roughly
    ``percent`` percent of the majority class.

    The retained count is ``round(100 * minority_count / percent)`` (Python's
    ties-to-even rounding), capped at the available majority count: 100 keeps
    as many majority rows as there are minority rows, a larger percent keeps
    fewer, and a smaller one keeps more, so a small enough percent is capped
    into a no-op. With 20 minority and 100 majority rows, 10 keeps all 100,
    200 keeps 10 and 1000 keeps 2. Returns the retained indices as an
    ascending np.intp array.
    """
    if percent <= 0:
        raise ValueError(f"percent must be positive, got {percent}")
    if minority_count < 1:
        raise ValueError(f"minority_count must be positive, got {minority_count}")
    available = len(majority_indices)
    target = round(100 * minority_count / percent)
    retained = min(target, available)
    majority = np.asarray(majority_indices, dtype=np.intp)
    if retained == available:
        return np.sort(majority)
    chosen = generator(seed, "under-sample").choice(available, size=retained, replace=False)
    return np.sort(majority[chosen])


class PlanResult(_Record):
    """apply_plan_detailed output with the intermediate pieces kept for audits."""

    _fields = ("dataset", "batch", "retained_majority")

    def __init__(self, dataset: Dataset, batch: SyntheticBatch, retained_majority: np.ndarray):
        self.dataset = dataset
        self.batch = batch
        self.retained_majority = retained_majority


def _metric(train: Dataset, minority: Dataset, variant: str):
    """The distance of a synthesis variant, fitted to ``train`` and its
    minority rows ``minority``: Euclidean for smote, the median-penalized
    distance with the minority's ``Med`` for smote_nc, VDM over ``train``'s
    category counts for smote_n.

    Raises ``DataError`` when the minority's values spread too far for the
    metric: for smote, when the squared spread (each continuous feature's
    range squared, summed left to right as the distances are) is not finite,
    which bounds every squared distance between minority rows; for smote_nc,
    when ``Med``'s square is not (see :func:`compute_med`).
    """
    if variant == "smote":
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            span = minority.cont.max(axis=0) - minority.cont.min(axis=0)
            spread = np.add.accumulate(span * span)[-1]
        if not np.isfinite(spread):
            raise DataError(
                "the minority's continuous values spread too far: their squared "
                "spread overflows the float range"
            )
        return EuclideanMetric(train.schema)
    if variant == "smote_nc":
        return NcMetric(train.schema, compute_med(minority))
    return VdmMetric(VdmTable.from_dataset(train))


def synthesis_source(train: Dataset, k: int, variant: str) -> tuple:
    """The ``source`` of every :func:`apply_plan_detailed` call of ``variant``
    (smote, smote_nc or smote_n) on ``train``, built once: ``train``'s
    minority slice, its :func:`knn_minority` lists under the variant's
    metric fitted to ``train``, and the rows' nominal votes.

    Raises ValueError for another variant, a schema the variant cannot take
    or ``k < 1``; ``DataError`` for a minority of fewer than 2 rows, or one
    whose values spread too far for the metric (see :func:`_metric`).
    """
    if variant not in _SHAPES:
        raise ValueError(f"synthesis_source takes smote, smote_nc or smote_n, got {variant!r}")
    _check_shape(train.schema, variant)
    minority = train.minority_subset()
    if len(minority) < 2:
        raise DataError(
            f"training minority has {len(minority)} row(s); {variant} needs at "
            "least 2 minority rows for neighbor search"
        )
    return _synthesis_source(variant, minority, knn_minority(minority, k, _metric(train, minority, variant)))


# The variants whose cells share one source per fold: smote, whose distance
# between two rows does not depend on the other rows, filters each fold's
# lists from one search of the whole minority; smote_n's metric is fitted to
# the training split, which is searched when its fold runs. smote_nc, fitted
# as smote_n is, joins when bench/test_bench.py's smote_nc self-test, which
# counts one search per (cell, fold), is re-pinned to one per fold.
_FOLD_FITTED = ("smote", "smote_n")

# Training candidates beyond k that smote's one search over the whole
# minority leaves a row of a fold on average, so that a row rarely falls
# short of k and its fold has to be searched on its own.
_MARGIN = 10


def _fold_sources(ds: Dataset, folds: np.ndarray, k: int, variant: str | None):
    """Yield ``(f, training split, source)`` for each fold ``f`` in turn,
    each built only when the caller asks for that fold. ``folds[i]`` is the
    fold of row ``i`` of ``ds``, as :func:`~smotekit.data.stratified_folds`
    assigns them; the split is ``ds`` without fold ``f``'s rows, and the
    source is the split's :func:`synthesis_source`, shared by every cell of
    ``variant`` on that fold.

    smote searches the whole minority once, before the first yield, ``(k +
    _MARGIN) * F / (F - 1)`` wide (rounded up), which leaves a row of a fold
    about ``k + _MARGIN`` training candidates, and :func:`_fold_lists`
    filters each fold's lists from it, unless its values spread too far for
    :func:`_metric`. A fold the filter cannot serve, and every fold of
    smote_n, calls :func:`synthesis_source` on its split. The source is None
    for a variant outside ``_FOLD_FITTED`` (None itself: no cell
    synthesizes) and where :func:`synthesis_source` raises ``DataError``,
    which :func:`apply_plan_detailed` then raises on each call. A schema the
    variant cannot take raises ValueError at the first fold.
    """
    n_folds = int(folds.max()) + 1
    found = None
    if variant == "smote":
        _check_shape(ds.schema, variant)
        minority = ds.minority_subset()
        fold_of = folds[ds.minority_indices()]
        width = -(-(k + _MARGIN) * n_folds // (n_folds - 1))  # ceiling division
        try:
            found = knn_minority(minority, width, _metric(ds, minority, variant))
        except DataError:  # a spread too wide: each fold's minority is judged on its own
            pass
    for f in range(n_folds):
        split = ds.subset(np.flatnonzero(folds != f))
        lists = None if found is None else _fold_lists(found, fold_of != f, k)
        source = None
        if lists is not None:
            source = _synthesis_source(variant, split.minority_subset(), lists)
        elif variant in _FOLD_FITTED:
            try:
                source = synthesis_source(split, k, variant)
            except DataError:
                pass
        yield f, split, source


def _fold_lists(found: np.ndarray, in_train: np.ndarray, k: int):
    """The lists of the training rows ``in_train`` of a minority, in their
    local indices, filtered from ``found``, the whole minority's lists.

    Each training row keeps its candidates that are training rows too, in
    list order; training rows keep their global order, so these are the
    first entries of the list a search of the training rows alone gives,
    ties included. None when fewer than 2 rows train or when a row keeps
    fewer than ``min(k, T_f - 1)`` of them.
    """
    train = np.flatnonzero(in_train)
    if len(train) < 2:
        return None
    w = min(k, len(train) - 1)
    cand = found[train]
    keep = in_train[cand]
    rank = np.cumsum(keep, axis=1)
    if (rank[:, -1] < w).any():
        return None
    local = np.cumsum(in_train) - 1  # local index of every training row
    lists = local[cand[keep & (rank <= w)]].reshape(-1, w)
    lists.flags.writeable = False
    return lists


def apply_plan_detailed(
    train: Dataset,
    over_percent: int,
    under_percent,
    k: int,
    seed: int,
    variant: str = "smote",
    gap_mode: str = PER_ATTRIBUTE,
    neighbor_mode: str = WITH_REPLACEMENT,
    under_basis: str = "pre",
    source: tuple = None,
) -> PlanResult:
    """Compose over- and under-sampling on a training split.

    Args:
        train: the training split only; resampling must never see test rows.
        over_percent: synthetic amount; 0 disables over-sampling.
        under_percent: minority share target; 0 or None disables
            under-sampling.
        k: neighbor count for the synthesis variants; at least 1 for all.
        seed: root seed; over- and under-sampling run on independent
            substreams so toggling one never perturbs the other.
        variant: one of smote, smote_nc, smote_n, replicate.
        under_basis: "pre" (default) sizes the retained majority from the
            original minority count so sweeps share majority counts across
            over-sampling levels; "post" sizes it from the augmented count.
        source: what synthesis of ``variant`` reads, the
            :func:`synthesis_source` of ``train``, to share one search and
            one vote across calls; None (default) searches and votes here.
            When given, its minority slice also stands in for
            ``train.minority_subset()``, whatever the variant.

    Returns:
        A PlanResult: the new dataset (the input is untouched) with rows in
        the order originals, synthetics, retained majority; the synthetic
        batch; and the retained majority indices. The set is sized first,
        since the synthetic count follows from ``over_percent`` and T and
        the retained majority comes from its own substream, and every row
        is written once into its blocks. The batch's blocks are read-only
        views of the synthetic rows' range, so a batch keeps the set alive.

    Raises:
        DataError: a synthesis variant with ``over_percent > 0`` on a
            training minority of fewer than 2 rows.
        ValueError: a ``source`` of another row count than ``train``'s
            minority, or a synthesis variant at ``over_percent > 0`` on a
            schema it does not take, whether or not a source is given.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if under_basis not in UNDER_BASES:
        raise ValueError(f"under_basis must be {' or '.join(map(repr, UNDER_BASES))}, got {under_basis!r}")
    if over_percent < 0:
        raise ValueError(f"over_percent must be non-negative, got {over_percent}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    synthesizes = over_percent > 0 and variant != "replicate"
    if synthesizes:
        _check_shape(train.schema, variant)
        if source is None:
            source = synthesis_source(train, k, variant)
        params = SmoteParams(
            over_percent, seed=child_seed(seed, "over"), gap_mode=gap_mode, neighbor_mode=neighbor_mode
        )
    minority = train.minority_subset() if source is None else source[0]
    if len(minority) != train.n_minority:
        raise ValueError(f"source has {len(minority)} minority rows, train has {train.n_minority}")
    t = len(minority)
    n = _synthetic_count(over_percent, t)
    if over_percent == 0:
        picks = np.empty(0, dtype=np.intp)
    elif variant == "replicate":
        picks = _replicate_picks(over_percent, t, child_seed(seed, "over"))
    retained = train.majority_indices()
    if under_percent not in (None, 0):
        basis = t + n if under_basis == "post" else t
        retained = under_sample(retained, basis, under_percent, child_seed(seed, "under"))

    size = t + n + len(retained)
    blocks = (
        np.empty((size, train.cont.shape[1])),
        np.empty((size, train.codes.shape[1]), train.codes.dtype),
        np.repeat([True, False], [t + n, len(retained)]),
    )
    for block, mine, whole in zip(blocks, (minority.cont, minority.codes), (train.cont, train.codes)):
        block[:t] = mine
        np.take(whole, retained, axis=0, out=block[t + n:], mode="clip")  # "clip" writes in place
    middle = tuple(block[t : t + n] for block in blocks)
    if synthesizes:
        batch = _synthesize(source, params, None, out=middle)
    else:
        for block, mine in zip(middle, (minority.cont, minority.codes)):
            np.take(mine, picks, axis=0, out=block, mode="clip")
        gaps = np.zeros((n, 1)) if over_percent else np.empty((0, 0))
        batch = SyntheticBatch(minority.with_blocks(*middle), Provenance(picks, picks, gaps))
    return PlanResult(dataset=train.with_blocks(*blocks), batch=batch, retained_majority=retained)


def audit_batch(batch: SyntheticBatch, n_minority: int) -> None:
    """Fail fast if provenance escapes the training minority pool.

    Checks one provenance entry per row in every column, every base and
    neighbor index against the pool size, and gap draws within [0, 1).
    """
    prov = batch.provenance
    sizes = {len(prov.base_index), len(prov.neighbor_index), len(prov.gaps)}
    if sizes != {len(batch)}:
        raise DataError(
            f"{len(batch)} synthetic rows but provenance columns of "
            f"{sorted(sizes)} entries"
        )
    for name, index in (("base", prov.base_index), ("neighbor", prov.neighbor_index)):
        outside = (index < 0) | (index >= n_minority)
        if outside.any():
            raise DataError(
                f"synthetic {name} index {index[outside][0]} outside the "
                f"{n_minority}-row training minority pool"
            )
    outside = ~((prov.gaps >= 0.0) & (prov.gaps < 1.0))
    if outside.any():
        raise DataError(f"gap {prov.gaps[outside][0]} outside [0, 1)")


def write_provenance(path: str | Path, batch: SyntheticBatch, variant: str) -> None:
    """Write one JSON line per synthetic row: base, neighbor, gap, variant.

    ``gap`` is null for vote-only rows, a number when the row has one draw,
    and a list of the per-attribute draws otherwise. Keys are sorted; the
    lines go through the text writer every smotekit file shares, in the
    bytes ``json.dumps(..., sort_keys=True)`` gives for the same record.
    """
    prov = batch.provenance
    tail = f', "variant": {json.dumps(variant)}}}\n'

    def chunk_text(part: slice) -> str:
        gaps = prov.gaps[part]
        if gaps.shape[1] == 0:
            gap_text = ["null"] * len(gaps)
        elif gaps.shape[1] == 1:
            gap_text = map(repr, gaps[:, 0].tolist())
        else:
            gap_text = map(str, gaps.tolist())
        return "".join(
            f'{{"base_index": {base}, "gap": {gap}, "neighbor_index": {neighbor}{tail}'
            for base, neighbor, gap in zip(
                prov.base_index[part].tolist(), prov.neighbor_index[part].tolist(), gap_text
            )
        )

    _write_lines(path, None, len(prov), chunk_text)

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
from .data import Dataset, write_lines
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


def _plan_bases(n_percent: int, t: int, rng: np.random.Generator):
    """Rewrite the over-sampling amount into (base indices, rows per base)."""
    if n_percent == 0:
        return np.empty(0, dtype=int), 0
    if n_percent < 100:
        t_selected = n_percent * t // 100
        return rng.permutation(t)[:t_selected], 1
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


def _synthesize(source: tuple, params, rng) -> SyntheticBatch:
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
    """
    minority, lists, votes = source
    if rng is None:
        rng = generator(params.seed, "smote")
    bases, per_base = _plan_bases(params.n_percent, len(minority), rng)
    origin = np.repeat(bases, per_base)
    n = len(origin)
    cont = minority.cont
    d = cont.shape[1]
    if d:
        partner = lists[
            origin, _pick_neighbors(lists.shape[1], len(bases), per_base, params.neighbor_mode, rng)
        ]
        gaps = rng.random((n, 1) if params.gap_mode == SHARED else (n, d))
        new = np.empty((n, d))
        step = max(1, distance._DIFF_BUDGET // (3 * d))  # base, nb and the lower bound: one budget
        for start in range(0, n, step):
            part = slice(start, start + step)
            base, nb, out = cont[origin[part]], cont[partner[part]], new[part]
            # base + gaps * (nb - base) and its box clip, in place (nb becomes the top)
            np.subtract(nb, base, out=out)
            out *= gaps[part]
            out += base
            np.clip(out, np.minimum(base, nb), np.maximum(base, nb, out=nb), out=out)
    else:
        partner, gaps, new = origin, np.empty((n, 0)), cont[origin]
    data = minority.with_blocks(new, votes[origin], np.ones(n, dtype=bool))
    return SyntheticBatch(data, Provenance(origin, partner, gaps))


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
    if n_percent < 0:
        raise ValueError(f"n_percent must be non-negative, got {n_percent}")
    t = len(minority)
    if t < 1:
        raise ValueError("need at least 1 minority row")
    rng = generator(seed, "replicate")
    if n_percent < 100:
        picks = _plan_bases(n_percent, t, rng)[0]
    else:
        picks = rng.integers(0, t, size=(n_percent // 100) * t)
    return SyntheticBatch(minority.subset(picks), Provenance(picks, picks, np.zeros((len(picks), 1))))


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


def _source(train: Dataset, minority: Dataset, k: int, variant: str, lists=None) -> tuple:
    """The one builder of what synthesis of ``variant`` reads: the
    :func:`_synthesis_source` of the minority-only slice ``minority`` and
    ``lists``, its neighbor lists. ``lists`` None searches them with
    :func:`knn_minority` under the variant's metric, fitted to ``train``,
    the training split ``minority`` comes from; given lists, only
    ``train``'s schema is read.

    Raises ValueError for a schema the variant cannot take and, when it
    searches, for ``k < 1``; ``DataError`` for a minority of fewer than 2
    rows, too thin to search.
    """
    _check_shape(train.schema, variant)
    if len(minority) < 2:
        raise DataError(
            f"training minority has {len(minority)} row(s); {variant} needs at "
            "least 2 minority rows for neighbor search"
        )
    if lists is None:
        lists = knn_minority(minority, k, _metric(train, minority, variant))
    return _synthesis_source(variant, minority, lists)


# The variants whose cells share one source per fold. smote's distance
# between two rows does not depend on the other rows, so one search over the
# whole minority serves every fold; smote_n's metric is fitted to each
# training fold, which is searched on its own. smote_nc joins when
# bench/test_bench.py's smote_nc self-test, which counts one search per
# (cell, fold), is re-pinned to one per fold: its metric is fitted to each
# training fold, as smote_n's is, so the loop below serves it unchanged.
_FOLD_FITTED = ("smote", "smote_n")

# Training candidates beyond k that smote's one search over the whole
# minority leaves a row of a fold on average, so that a row rarely falls
# short of k and its fold has to be searched on its own.
_MARGIN = 10


def _fold_sources(ds: Dataset, folds: np.ndarray, k: int, variant: str) -> list:
    """The :func:`_source` of every fold's training minority, built once
    and shared by every cell of ``variant``. ``folds[i]`` is the fold of row
    ``i`` of ``ds``, as :func:`~smotekit.data.stratified_folds` assigns
    them, so every fold holds a minority row.

    smote searches the whole minority once, ``(k + _MARGIN) * F / (F - 1)``
    wide (rounded up), which leaves a row of a fold about ``k + _MARGIN``
    training candidates, and :func:`_fold_lists` filters every fold's lists
    from it. A fold the filter cannot serve, and every fold of smote_n, is
    searched with :func:`knn_minority` under a metric fitted to it. None
    stands for a variant outside ``_FOLD_FITTED``, for a fold whose training
    minority is too thin to search, and for every fold of a smote minority
    whose values spread too far for :func:`_metric`: there
    :func:`apply_plan_detailed` searches on each call and raises the
    ``DataError`` itself. A schema the variant cannot take raises ValueError.
    """
    n_folds = int(folds.max()) + 1
    if variant not in _FOLD_FITTED:
        return [None] * n_folds
    minority = ds.minority_subset()
    fold_of = folds[ds.minority_indices()]
    found = None
    if variant == "smote":
        _check_shape(ds.schema, variant)
        try:
            metric = _metric(ds, minority, variant)
        except DataError:  # a spread too wide: each fold's minority is judged on its own
            return [None] * n_folds
        width = -(-(k + _MARGIN) * n_folds // (n_folds - 1))  # ceiling division
        found = knn_minority(minority, width, metric)
    sources = []
    for f in range(n_folds):
        in_train = fold_of != f
        lists = None if found is None else _fold_lists(found, in_train, k)
        train = ds if lists is not None else ds.subset(np.flatnonzero(folds != f))
        try:
            sources.append(_source(train, minority.subset(np.flatnonzero(in_train)), k, variant, lists))
        except DataError:
            sources.append(None)
    return sources


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
        source: what synthesis of ``variant`` reads, the :func:`_source`
            of ``train``'s minority rows, to share one search and one vote
            across calls; None (default) searches and votes here. When
            given, its minority slice also stands in for
            ``train.minority_subset()``, whatever the variant.

    Returns:
        A PlanResult: the new dataset (the input is untouched) with rows in
        the order originals, synthetics, retained majority; the synthetic
        batch; and the retained majority indices.

    Raises:
        DataError: a synthesis variant with ``over_percent > 0`` on a
            training minority of fewer than 2 rows.
        ValueError: a ``source`` of another row count than ``train``'s
            minority.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if under_basis not in UNDER_BASES:
        raise ValueError(f"under_basis must be {' or '.join(map(repr, UNDER_BASES))}, got {under_basis!r}")
    if over_percent < 0:
        raise ValueError(f"over_percent must be non-negative, got {over_percent}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if source is None:
        minority = train.minority_subset()
    else:
        minority = source[0]
        if len(minority) != train.n_minority:
            raise ValueError(f"source has {len(minority)} minority rows, train has {train.n_minority}")
    majority_idx = train.majority_indices()

    if over_percent == 0:
        empty = np.empty(0, dtype=np.intp)
        batch = SyntheticBatch(minority.subset(empty), Provenance(empty, empty, np.empty((0, 0))))
    elif variant == "replicate":
        batch = replicate_oversample(
            minority, over_percent, seed=child_seed(seed, "over")
        )
    else:
        if source is None:
            source = _source(train, minority, k, variant)
        params = SmoteParams(
            n_percent=over_percent,
            seed=child_seed(seed, "over"),
            gap_mode=gap_mode,
            neighbor_mode=neighbor_mode,
        )
        batch = _synthesize(source, params, None)

    if under_percent in (None, 0):
        retained = majority_idx
    else:
        basis = len(minority)
        if under_basis == "post":
            basis += len(batch)
        retained = under_sample(majority_idx, basis, under_percent, child_seed(seed, "under"))

    parts = (minority, batch.data, train.subset(retained))
    dataset = train.with_blocks(
        np.concatenate([part.cont for part in parts]),
        np.concatenate([part.codes for part in parts]),
        np.concatenate([part.minority for part in parts]),
    )
    return PlanResult(dataset=dataset, batch=batch, retained_majority=retained)


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
    lines go through the shared :func:`~smotekit.data.write_lines`, in the
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

    write_lines(path, None, len(prov), chunk_text)

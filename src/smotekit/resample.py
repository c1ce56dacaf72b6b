"""Synthetic minority over-sampling and majority under-sampling.

The over-sampling amount ``n_percent`` is interpreted in integral multiples of
100: each minority row spawns ``floor(n_percent / 100)`` synthetic rows along
segments toward its k nearest minority neighbors. Amounts under 100 instead
select ``floor(n_percent/100 * T)`` distinct bases at random and give each one
synthetic row. Three synthesis flavors cover the schema shapes:

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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset
from .distance import (
    EuclideanMetric,
    NcMetric,
    VdmMetric,
    VdmTable,
    NcDistanceParams,
    compute_med,
)
from .errors import DataError
from .neighbors import NeighborList, knn_minority
from .rng import child_seed, generator

PER_ATTRIBUTE = "per-attribute"
SHARED = "shared"
WITH_REPLACEMENT = "with-replacement"
DISTINCT = "distinct"

VARIANTS = ("smote", "smote_nc", "smote_n", "replicate")


@dataclass(frozen=True)
class SmoteParams:
    """Over-sampling amount, neighbor count, seed, and sampling modes.

    ``gap_mode`` selects how many uniform draws shape one synthetic row:
    ``per-attribute`` (default) draws a fresh gap for every interpolated
    coordinate; ``shared`` draws a single gap per row, placing the row on the
    straight segment between base and neighbor. ``neighbor_mode`` controls
    repeat neighbor picks for one base: ``with-replacement`` (default) draws
    independently; ``distinct`` deals the neighbor list out in shuffled
    rounds so picks repeat only once the list is exhausted.
    """

    n_percent: int
    k: int = 5
    seed: int = 0
    gap_mode: str = PER_ATTRIBUTE
    neighbor_mode: str = WITH_REPLACEMENT

    def __post_init__(self):
        if self.n_percent < 0:
            raise ValueError(f"n_percent must be non-negative, got {self.n_percent}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.gap_mode not in (PER_ATTRIBUTE, SHARED):
            raise ValueError(f"unknown gap mode {self.gap_mode!r}")
        if self.neighbor_mode not in (WITH_REPLACEMENT, DISTINCT):
            raise ValueError(f"unknown neighbor mode {self.neighbor_mode!r}")


@dataclass(frozen=True)
class Provenance:
    """Origin of one synthetic row.

    ``gaps`` holds the uniform draws that built the row: one value in shared
    mode, one per interpolated coordinate in per-attribute mode, empty for
    pure-vote synthesis. Vote-based and replicated rows record
    ``neighbor_index == base_index`` since no single source neighbor exists.
    """

    base_index: int
    neighbor_index: int
    gaps: tuple

    @property
    def gap(self):
        """The single draw when one exists, else None."""
        return self.gaps[0] if len(self.gaps) == 1 else None


@dataclass
class SyntheticBatch:
    """Synthetic rows, as a minority Dataset, plus one provenance record per row."""

    data: Dataset
    provenance: list

    @property
    def rows(self) -> list:
        return list(self.data.rows)

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class UnderSamplePlan:
    """Target minority share (percent) and seed for majority under-sampling."""

    percent: int
    seed: int = 0

    def __post_init__(self):
        if self.percent <= 0:
            raise ValueError(f"percent must be positive, got {self.percent}")


def _plan_bases(n_percent: int, t: int, rng: np.random.Generator):
    """Rewrite the over-sampling amount into (base indices, rows per base)."""
    if n_percent == 0:
        return np.empty(0, dtype=int), 0
    if n_percent < 100:
        t_selected = n_percent * t // 100
        return rng.permutation(t)[:t_selected], 1
    return np.arange(t), n_percent // 100


def _pick_neighbors(n_candidates: int, count: int, mode: str, rng) -> list[int]:
    """Positions into a neighbor list for ``count`` synthetic rows of one base."""
    if mode == WITH_REPLACEMENT:
        return [int(p) for p in np.atleast_1d(rng.integers(0, n_candidates, size=count))]
    picks: list[int] = []
    while len(picks) < count:
        round_perm = rng.permutation(n_candidates)
        picks.extend(int(p) for p in round_perm[: count - len(picks)])
    return picks


def _vote(codes: np.ndarray, lists, base_votes: bool) -> np.ndarray:
    """Voted nominal codes of every source row, one column per nominal feature.

    Each column takes the code most frequent among the row's neighbors (the
    row itself joins the vote only when ``base_votes``). Ties prefer the
    row's own code, else the lowest code, i.e. the first-interned category.
    """
    voted = codes.copy()
    if not codes.shape[1]:
        return voted
    by_width: dict[int, list[int]] = {}
    for row, nlist in enumerate(lists):
        by_width.setdefault(len(nlist), []).append(row)
    for width, members in by_width.items():
        own = codes[members]
        picked = np.array([lists[i] for i in members], dtype=np.intp)
        voters = codes[picked.reshape(len(members), width)]
        if base_votes:
            voters = np.concatenate([own[:, None, :], voters], axis=1)
        top = np.zeros_like(own)
        leader = own
        for p in range(voters.shape[1]):
            code = voters[:, p]
            votes = (voters == code[:, None, :]).sum(axis=1)
            better = (votes > top) | ((votes == top) & (code < leader))
            top = np.where(better, votes, top)
            leader = np.where(better, code, leader)
        own_votes = (voters == own[:, None, :]).sum(axis=1)
        voted[members] = np.where(own_votes == top, own, leader)
    return voted


def _check_source(minority: Dataset, neighbors: NeighborList, variant: str) -> None:
    if not minority.minority.all():
        raise ValueError(f"{variant} expects a minority-only dataset slice")
    t = len(minority)
    if t < 2:
        raise ValueError(f"need at least 2 minority rows, got {t}")
    if len(neighbors.lists) != t:
        raise ValueError(
            f"neighbor list covers {len(neighbors.lists)} rows, expected {t}"
        )


def _synthesize(source: Dataset, params, neighbors, rng, base_votes) -> SyntheticBatch:
    """The synthesis loop shared by smote, smote_nc and smote_n.

    Every synthetic row of a base carries the base's voted nominal codes
    (see :func:`_vote`). With no continuous columns nothing more is drawn and
    every row records ``Provenance(b, b, ())``; otherwise, base by base,
    neighbor picks and then gaps are drawn and the continuous block is
    interpolated and clipped to the base/neighbor box.
    """
    cont = source.cont
    voted = _vote(source.codes, neighbors.lists, base_votes)
    bases, per_base = _plan_bases(params.n_percent, len(source), rng)
    blocks: list[np.ndarray] = []
    provenance: list[Provenance] = []
    for b in bases.tolist():
        if not cont.shape[1]:
            provenance.extend(Provenance(b, b, ()) for _ in range(per_base))
            continue
        nlist = neighbors.lists[b]
        picks = _pick_neighbors(len(nlist), per_base, params.neighbor_mode, rng)
        neighbor_idx = [int(nlist[p]) for p in picks]
        if params.gap_mode == SHARED:
            draws = np.atleast_1d(rng.random(per_base))
            gaps = draws[:, None]
            recorded = [(g,) for g in draws.tolist()]
        else:
            gaps = np.atleast_2d(rng.random((per_base, cont.shape[1])))
            recorded = [tuple(g) for g in gaps.tolist()]
        base = cont[b]
        nb = cont[neighbor_idx]
        new = base + gaps * (nb - base)
        blocks.append(np.clip(new, np.minimum(base, nb), np.maximum(base, nb)))
        provenance.extend(
            Provenance(b, j, gap) for j, gap in zip(neighbor_idx, recorded)
        )
    origin = np.array([record.base_index for record in provenance], dtype=np.intp)
    data = source.with_blocks(
        np.concatenate(blocks) if blocks else cont[origin],
        voted[origin],
        np.ones(len(origin), dtype=bool),
    )
    return SyntheticBatch(data, provenance)


def smote(
    minority: Dataset,
    params: SmoteParams,
    neighbors: NeighborList,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """Generate synthetic minority rows by segment interpolation.

    Args:
        minority: all-continuous minority-only Dataset (T >= 2).
        params: amount, modes, and seed; ``n_percent == 0`` yields an empty
            batch.
        neighbors: precomputed minority-only neighbor lists for these rows.
        rng: override generator, mainly for tests; defaults to the seeded
            substream ``(params.seed, "smote")``.

    Returns:
        A batch of exactly ``floor(N'/100) * T'`` rows (after the under-100
        rewrite), grouped by base row. Each row's coordinates are clipped to
        the base/neighbor bounding box, which only matters when float
        rounding at gap values near 1 would overshoot by an ulp.
    """
    if not minority.schema.all_continuous:
        raise ValueError("smote requires all-continuous rows; use smote_nc or smote_n")
    _check_source(minority, neighbors, "smote")
    if rng is None:
        rng = generator(params.seed, "smote")
    return _synthesize(minority, params, neighbors, rng, base_votes=False)


def smote_nc(
    ds_minority: Dataset,
    params: SmoteParams,
    nc: NcDistanceParams,
    neighbors: NeighborList,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """Mixed-schema synthesis: interpolate continuous, vote nominal.

    ``ds_minority`` must hold minority rows only; its intern tables drive vote
    tie-breaking. ``nc`` carries the median penalty the neighbor lists were
    computed under (validated, not re-used here: votes and interpolation need
    no distances). Nominal values come from the k nearest neighbors of the
    base, base excluded, so every synthetic row of one base shares its voted
    nominal part.
    """
    if ds_minority.schema.all_nominal:
        raise ValueError("all-nominal schema: use smote_n")
    if nc.med < 0:  # NcDistanceParams already rejects this; keep the contract visible
        raise ValueError("negative median penalty")
    _check_source(ds_minority, neighbors, "smote_nc")
    if rng is None:
        rng = generator(params.seed, "smote")
    return _synthesize(ds_minority, params, neighbors, rng, base_votes=False)


def smote_n(
    minority: Dataset,
    params: SmoteParams,
    table: VdmTable,
    neighbors: NeighborList,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """All-nominal synthesis: each coordinate is a majority vote over the base
    plus its k nearest neighbors (the base itself joins this vote, unlike
    smote_nc). ``minority`` is an all-nominal minority-only Dataset; its
    intern tables drive vote tie-breaking. Generation is deterministic given
    the neighbor lists; random draws occur only in the under-100 base
    selection.
    """
    if not minority.schema.all_nominal:
        raise ValueError("smote_n requires all-nominal rows; use smote or smote_nc")
    n_features = len(minority.schema.features)
    if n_features != table.n_features:
        raise ValueError(
            f"rows have {n_features} features but the VDM table has "
            f"{table.n_features}"
        )
    _check_source(minority, neighbors, "smote_n")
    if rng is None:
        rng = generator(params.seed, "smote")
    return _synthesize(minority, params, neighbors, rng, base_votes=True)


def replicate_oversample(
    minority: Dataset,
    n_percent: int,
    seed: int = 0,
    rng: np.random.Generator = None,
) -> SyntheticBatch:
    """Over-sample by exact replication: floor(N/100) * T rows of the
    minority-only Dataset ``minority``, drawn uniformly with replacement. The
    baseline over-sampler synthetic interpolation is measured against."""
    if n_percent < 0:
        raise ValueError(f"n_percent must be non-negative, got {n_percent}")
    t = len(minority)
    if t < 1:
        raise ValueError("need at least 1 minority row")
    if rng is None:
        rng = generator(seed, "replicate")
    count = (n_percent // 100) * t
    picks = np.atleast_1d(rng.integers(0, t, size=count)) if count else np.empty(0, dtype=int)
    provenance = [Provenance(p, p, (0.0,)) for p in picks.tolist()]
    return SyntheticBatch(minority.subset(picks), provenance)


def under_sample(
    majority_indices: Sequence[int],
    minority_count: int,
    plan: UnderSamplePlan,
    rng: np.random.Generator = None,
) -> list[int]:
    """Choose the majority rows to keep so the minority class becomes roughly
    ``plan.percent`` percent of the majority class.

    The retained count is ``round(100 * minority_count / percent)`` (Python's
    ties-to-even rounding), capped at the available majority count; percents
    at or below 100 therefore shrink the majority, larger ones may be capped
    into a no-op. Returns retained original indices in ascending order.
    """
    if minority_count < 1:
        raise ValueError(f"minority_count must be positive, got {minority_count}")
    if rng is None:
        rng = generator(plan.seed, "under-sample")
    available = len(majority_indices)
    target = round(100 * minority_count / plan.percent)
    retained = min(target, available)
    if retained == available:
        return sorted(int(i) for i in majority_indices)
    chosen = rng.choice(available, size=retained, replace=False)
    return sorted(int(majority_indices[int(c)]) for c in chosen)


@dataclass
class PlanResult:
    """apply_plan_detailed output with the intermediate pieces kept for audits."""

    dataset: Dataset
    batch: SyntheticBatch
    retained_majority: list


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
) -> PlanResult:
    """Compose over- and under-sampling on a training split.

    Args:
        train: the training split only; resampling must never see test rows.
        over_percent: synthetic amount; 0 disables over-sampling.
        under_percent: minority share target; 0 or None disables
            under-sampling.
        k: neighbor count for the synthesis variants.
        seed: root seed; over- and under-sampling run on independent
            substreams so toggling one never perturbs the other.
        variant: one of smote, smote_nc, smote_n, replicate.
        under_basis: "pre" (default) sizes the retained majority from the
            original minority count so sweeps share majority counts across
            over-sampling levels; "post" sizes it from the augmented count.

    Returns:
        A PlanResult: the new dataset (the input is untouched) with rows in
        the order originals, synthetics, retained majority; the synthetic
        batch; and the retained majority indices.

    Raises:
        DataError: a synthesis variant with ``over_percent > 0`` on a
            training minority of fewer than 2 rows.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if under_basis not in ("pre", "post"):
        raise ValueError(f"under_basis must be 'pre' or 'post', got {under_basis!r}")
    if over_percent < 0:
        raise ValueError(f"over_percent must be non-negative, got {over_percent}")
    minority = train.minority_subset()
    majority_idx = train.majority_indices()

    if over_percent == 0:
        batch = SyntheticBatch(minority.subset([]), [])
    elif variant == "replicate":
        batch = replicate_oversample(
            minority, over_percent, seed=child_seed(seed, "over")
        )
    else:
        schema = train.schema
        if variant == "smote" and not schema.all_continuous:
            raise ValueError("variant 'smote' requires an all-continuous schema")
        if variant == "smote_nc" and (schema.all_nominal or schema.all_continuous):
            raise ValueError("variant 'smote_nc' requires a mixed schema")
        if variant == "smote_n" and not schema.all_nominal:
            raise ValueError("variant 'smote_n' requires an all-nominal schema")
        if len(minority) < 2:
            raise DataError(
                f"training minority has {len(minority)} row(s); {variant} needs at "
                "least 2 minority rows for neighbor search"
            )
        params = SmoteParams(
            n_percent=over_percent,
            k=k,
            seed=child_seed(seed, "over"),
            gap_mode=gap_mode,
            neighbor_mode=neighbor_mode,
        )
        if variant == "smote":
            nbrs = knn_minority(minority, k, EuclideanMetric(schema))
            batch = smote(minority, params, nbrs)
        elif variant == "smote_nc":
            nc = compute_med(minority)
            nbrs = knn_minority(minority, k, NcMetric(schema, nc))
            batch = smote_nc(minority, params, nc, nbrs)
        else:
            table = VdmTable.from_dataset(train)
            nbrs = knn_minority(minority, k, VdmMetric(table))
            batch = smote_n(minority, params, table, nbrs)

    if under_percent in (None, 0):
        retained = majority_idx
    else:
        basis = len(minority)
        if under_basis == "post":
            basis += len(batch)
        plan = UnderSamplePlan(percent=under_percent, seed=child_seed(seed, "under"))
        retained = under_sample(majority_idx, basis, plan)

    parts = (minority, batch.data, train.subset(retained))
    dataset = train.with_blocks(
        np.concatenate([part.cont for part in parts]),
        np.concatenate([part.codes for part in parts]),
        np.concatenate([part.minority for part in parts]),
    )
    return PlanResult(dataset=dataset, batch=batch, retained_majority=retained)


def audit_batch(batch: SyntheticBatch, n_minority: int) -> None:
    """Fail fast if provenance escapes the training minority pool.

    Checks every base and neighbor index against the pool size, one
    provenance record per row, and gap draws within [0, 1).
    """
    if len(batch) != len(batch.provenance):
        raise DataError(
            f"{len(batch)} synthetic rows but {len(batch.provenance)} "
            "provenance records"
        )
    for record in batch.provenance:
        if not (0 <= record.base_index < n_minority):
            raise DataError(
                f"synthetic base index {record.base_index} outside the "
                f"{n_minority}-row training minority pool"
            )
        if not (0 <= record.neighbor_index < n_minority):
            raise DataError(
                f"synthetic neighbor index {record.neighbor_index} outside the "
                f"{n_minority}-row training minority pool"
            )
        for gap in record.gaps:
            if not (0.0 <= gap < 1.0):
                raise DataError(f"gap {gap} outside [0, 1)")


def write_provenance(path: str | Path, batch: SyntheticBatch, variant: str) -> None:
    """Write one JSON line per synthetic row: base, neighbor, gap(s), variant."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in batch.provenance:
            if not record.gaps:
                gap = None
            elif len(record.gaps) == 1:
                gap = record.gaps[0]
            else:
                gap = list(record.gaps)
            fh.write(
                json.dumps(
                    {
                        "base_index": record.base_index,
                        "neighbor_index": record.neighbor_index,
                        "gap": gap,
                        "variant": variant,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

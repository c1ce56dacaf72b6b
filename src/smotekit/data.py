"""Datasets with mixed continuous/nominal features, CSV I/O, and stratified folds.

A dataset is a table of feature vectors plus a binary class label per row,
held in read-only column blocks that every layer reads. Continuous entries are
finite floats; nominal entries are category tokens interned in
first-appearance order and stored as their codes, which makes majority-vote
tie-breaking deterministic downstream. Feature tuples are built from the
blocks only at the boundaries: CSV files and callers that ask for rows. The
minority class must not outnumber the majority class at load time (later
resampling may flip that freely).
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .rng import generator

CONTINUOUS = "continuous"
NOMINAL = "nominal"

# A feature vector: floats in continuous positions, str tokens in nominal ones.
Row = tuple


class ClassLabel(str, Enum):
    MINORITY = "minority"
    MAJORITY = "majority"


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations plus the name of the class column."""

    features: tuple[tuple[str, str], ...]
    class_column: str

    def __post_init__(self):
        if not self.features:
            raise DataError("schema declares no features")
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names in schema")
        for name, kind in self.features:
            if not name:
                raise DataError("empty feature name in schema")
            if kind not in (CONTINUOUS, NOMINAL):
                raise DataError(f"unknown feature kind {kind!r} for column {name!r}")
        if not self.class_column:
            raise DataError("empty class column name")
        if self.class_column in names:
            raise DataError("class column duplicates a feature name")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.features)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for _, kind in self.features)

    @property
    def continuous_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, kind) in enumerate(self.features) if kind == CONTINUOUS)

    @property
    def nominal_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, kind) in enumerate(self.features) if kind == NOMINAL)

    @property
    def all_continuous(self) -> bool:
        return not self.nominal_indices

    @property
    def all_nominal(self) -> bool:
        return not self.continuous_indices

    @classmethod
    def from_json(cls, path: str | Path) -> "FeatureSchema":
        """Read a sidecar JSON file mapping column name to its kind.

        The file is a flat object, e.g. ``{"age": "continuous", "sex": "nominal",
        "outcome": "class"}``. Key order defines feature order; exactly one
        column must be marked ``class``.
        """
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"schema file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataError(f"schema file {path} must hold a JSON object")
        features = []
        class_columns = []
        for name, kind in raw.items():
            if kind == "class":
                class_columns.append(name)
            else:
                features.append((name, kind))
        if len(class_columns) != 1:
            raise DataError(
                f"schema file {path} must mark exactly one column as 'class', "
                f"found {len(class_columns)}"
            )
        return cls(tuple(features), class_columns[0])


def _intern_categories(schema: FeatureSchema, rows: Sequence[Row]):
    """First-appearance intern table per nominal feature (None for continuous)."""
    return tuple(
        {value: code for code, value in enumerate(dict.fromkeys(row[i] for row in rows))}
        if kind == NOMINAL
        else None
        for i, kind in enumerate(schema.kinds)
    )


def encode_rows(schema: FeatureSchema, rows: Sequence[Row], intern: tuple):
    """The continuous block and the nominal code block of ``rows``.

    This is the one place feature tuples become arrays: a float64 block of
    the continuous columns and an integer block of the nominal columns, both
    in schema order. Codes index ``intern``, which must hold every token.
    """
    cont = np.empty((len(rows), len(schema.continuous_indices)))
    codes = np.empty((len(rows), len(schema.nominal_indices)), dtype=np.intp)
    try:
        for j, i in enumerate(schema.continuous_indices):
            cont[:, j] = [row[i] for row in rows]
    except (TypeError, ValueError):
        raise DataError("non-numeric value in a continuous column") from None
    for j, i in enumerate(schema.nominal_indices):
        table = intern[i]
        codes[:, j] = [table[row[i]] for row in rows]
    return cont, codes


_CSV_CHUNK_ROWS = 1024


class Dataset:
    """A binary-class table held as three read-only column blocks.

    ``cont`` is a C-contiguous float64 block (rows x continuous features),
    ``codes`` an integer block (rows x nominal features) whose entries index
    the first-appearance ``intern`` tables built from ``rows``, and
    ``minority`` a boolean mask. Every layer reads the blocks; ``rows`` and
    ``labels`` rebuild tuples from them on each access and are meant for the
    CSV, provenance and test boundaries. Subsets and resampled sets share
    their parent's intern tables. ``minority_token`` and ``majority_token``
    keep the source file's class spellings so a save/load round trip is exact.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        rows: Sequence[Row],
        labels: Sequence[ClassLabel],
        minority_token: str = "minority",
        majority_token: str = "majority",
    ):
        self.schema = schema
        self.minority_token = minority_token
        self.majority_token = majority_token
        self.__post_init__(rows, labels)

    def __post_init__(self, rows: Sequence[Row], labels: Sequence[ClassLabel]):
        """Check ``rows`` and ``labels``, then intern and encode them; a step
        of its own, which ``bench/tracing.py`` times by this name."""
        rows = tuple(rows)
        minority = np.array(
            [ClassLabel(lab) is ClassLabel.MINORITY for lab in labels], dtype=bool
        )
        if len(rows) != len(minority):
            raise DataError(f"{len(rows)} rows but {len(minority)} labels")
        arity = len(self.schema.features)
        for i, row in enumerate(rows):
            if len(row) != arity:
                raise DataError(f"row {i} has {len(row)} entries, expected {arity}")
        self.intern = _intern_categories(self.schema, rows)
        cont, codes = encode_rows(self.schema, rows, self.intern)
        self._set_blocks(cont, codes, minority)

    def _set_blocks(self, cont: np.ndarray, codes: np.ndarray, minority: np.ndarray):
        for block in (cont, codes, minority):
            block.flags.writeable = False
        self.cont, self.codes, self.minority = cont, codes, minority

    def with_blocks(self, cont: np.ndarray, codes: np.ndarray, minority: np.ndarray) -> "Dataset":
        """A dataset of freshly built blocks that shares this one's schema,
        class tokens and intern tables; the blocks become read-only."""
        out = copy.copy(self)
        out._set_blocks(np.ascontiguousarray(cont, dtype=float), codes, minority)
        return out

    def columns(self, part: slice = slice(None)) -> list[list]:
        """One Python list per feature in schema order, of the rows in
        ``part``: floats for continuous features, tokens for nominal ones."""
        out: list = [None] * len(self.schema.features)
        for j, i in enumerate(self.schema.continuous_indices):
            out[i] = self.cont[part, j].tolist()
        for j, i in enumerate(self.schema.nominal_indices):
            tokens = list(self.intern[i])
            out[i] = [tokens[c] for c in self.codes[part, j].tolist()]
        return out

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(zip(*self.columns()))

    @property
    def labels(self) -> tuple[ClassLabel, ...]:
        return tuple(
            ClassLabel.MINORITY if m else ClassLabel.MAJORITY for m in self.minority.tolist()
        )

    def __len__(self) -> int:
        return len(self.minority)

    def __repr__(self) -> str:
        return (
            f"Dataset(schema={self.schema!r}, rows={self.rows!r}, "
            f"labels={self.labels!r}, minority_token={self.minority_token!r}, "
            f"majority_token={self.majority_token!r}, intern={self.intern!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.schema, self.minority_token, self.majority_token, self.intern)
            == (other.schema, other.minority_token, other.majority_token, other.intern)
            and np.array_equal(self.cont, other.cont)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.minority, other.minority)
        )

    @property
    def n_minority(self) -> int:
        return int(np.count_nonzero(self.minority))

    @property
    def n_majority(self) -> int:
        return len(self) - self.n_minority

    def minority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.minority)

    def majority_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.minority)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """Row slice preserving schema, class tokens, and intern order."""
        idx = np.asarray(indices, dtype=np.intp)
        return self.with_blocks(self.cont[idx], self.codes[idx], self.minority[idx])

    def minority_subset(self) -> "Dataset":
        return self.subset(np.flatnonzero(self.minority))


def load_csv(path: str | Path, schema: FeatureSchema, minority_label: str) -> Dataset:
    """Load a UTF-8 CSV with a header row into a Dataset.

    Args:
        path: CSV file whose header holds exactly the schema's columns
            (any order) plus the class column.
        schema: feature declarations; parsing follows the declared kinds.
        minority_label: class-column token naming the minority class. The
            remaining rows must all carry one single other token.

    Raises:
        DataError: missing/unexpected columns, non-numeric or non-finite
            values in a continuous column, missing values, an unknown or
            non-binary class column, or a minority class that outnumbers
            the majority class.
    """
    expected = set(schema.names) | {schema.class_column}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        missing = expected - set(header)
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")
        extra = set(header) - expected
        if extra:
            raise DataError(f"{path}: unexpected columns {sorted(extra)}")
        col_of = {name: header.index(name) for name in header}
        feature_cols = [col_of[name] for name in schema.names]
        class_col = col_of[schema.class_column]

        rows: list[Row] = []
        tokens: list[str] = []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(record)} fields, expected {len(header)}"
                )
            values = []
            for (name, kind), col in zip(schema.features, feature_cols):
                raw = record[col]
                if raw == "":
                    raise DataError(f"{path}: line {line_no}: missing value in column {name!r}")
                if kind == CONTINUOUS:
                    try:
                        value = float(raw)
                    except ValueError:
                        raise DataError(
                            f"{path}: line {line_no}: non-numeric value {raw!r} "
                            f"in continuous column {name!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: line {line_no}: non-finite value {raw!r} "
                            f"in continuous column {name!r}"
                        )
                    values.append(value)
                else:
                    values.append(raw)
            token = record[class_col]
            if token == "":
                raise DataError(f"{path}: line {line_no}: missing class value")
            rows.append(tuple(values))
            tokens.append(token)

    distinct = sorted(set(tokens))
    if minority_label not in distinct:
        raise DataError(
            f"{path}: unknown class value: minority label {minority_label!r} "
            f"not present (classes found: {distinct})"
        )
    others = [tok for tok in distinct if tok != minority_label]
    if len(others) != 1:
        raise DataError(
            f"{path}: expected exactly two class values, found {distinct}; "
            "collapse multi-class data before loading"
        )
    labels = [
        ClassLabel.MINORITY if tok == minority_label else ClassLabel.MAJORITY
        for tok in tokens
    ]
    ds = Dataset(schema, rows, labels, minority_label, others[0])
    if ds.n_minority > ds.n_majority:
        raise DataError(
            f"{path}: minority class {minority_label!r} has {ds.n_minority} rows, "
            "more than the majority class; check the minority label"
        )
    return ds


def save_csv(ds: Dataset, path: str | Path, class_column: bool = True) -> None:
    """Write a Dataset as CSV in schema order; floats use repr for exact reload.

    ``class_column=False`` leaves the class column out, as the external
    scorer's test file must.
    """
    header = list(ds.schema.names)
    if class_column:
        header.append(ds.schema.class_column)
    tokens = (ds.majority_token, ds.minority_token)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # a chunk of rows at a time, so a large set is never all text at once
        for start in range(0, len(ds), _CSV_CHUNK_ROWS):
            part = slice(start, start + _CSV_CHUNK_ROWS)
            columns = [
                [repr(value) for value in column] if kind == CONTINUOUS else column
                for column, kind in zip(ds.columns(part), ds.schema.kinds)
            ]
            if class_column:
                columns.append([tokens[m] for m in ds.minority[part].tolist()])
            writer.writerows(zip(*columns))


@dataclass(frozen=True)
class FoldAssignment:
    """Cross-validation fold index per row."""

    fold_of_row: tuple[int, ...]
    n_folds: int

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.fold_of_row) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.fold_of_row) if f != fold]


def stratified_folds(ds: Dataset, n_folds: int, seed: int) -> FoldAssignment:
    """Assign rows to folds so per-fold class counts differ by at most one.

    Shuffles each class independently and deals the rows round-robin from a
    random starting fold, so the remainder rows do not pile onto fold 0.
    Deterministic for a fixed seed. A class with fewer rows than folds is a
    DataError; ``n_folds < 2`` is a ValueError.
    """
    if n_folds < 2:
        raise ValueError(f"n_folds must be at least 2, got {n_folds}")
    rng = generator(seed, "stratified-folds")
    fold_of_row = np.zeros(len(ds), dtype=np.intp)
    for class_indices in (ds.minority_indices(), ds.majority_indices()):
        if len(class_indices) < n_folds:
            raise DataError(
                f"class with {len(class_indices)} rows cannot fill {n_folds} folds"
            )
        perm = rng.permutation(len(class_indices))
        offset = int(rng.integers(n_folds))
        fold_of_row[class_indices[perm]] = (offset + np.arange(len(perm))) % n_folds
    return FoldAssignment(tuple(fold_of_row.tolist()), n_folds)

"""Datasets with mixed continuous/nominal features, CSV I/O, and stratified folds.

A dataset is an immutable-by-convention table of feature vectors plus a binary
class label per row. Continuous entries are finite floats; nominal entries are
category tokens interned in first-appearance order, which makes majority-vote
tie-breaking deterministic downstream. The minority class must not outnumber
the majority class at load time (later resampling may flip that freely).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

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

    def to_json(self, path: str | Path) -> None:
        mapping = {name: kind for name, kind in self.features}
        mapping[self.class_column] = "class"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, indent=2)
            fh.write("\n")


def _intern_categories(schema: FeatureSchema, rows: Sequence[Row]):
    """First-appearance intern table per nominal feature (None for continuous)."""
    tables: list[dict[str, int] | None] = [
        {} if kind == NOMINAL else None for kind in schema.kinds
    ]
    for row in rows:
        for i in schema.nominal_indices:
            table = tables[i]
            value = row[i]
            if value not in table:
                table[value] = len(table)
    return tuple(tables)


@dataclass
class Dataset:
    """Rows, labels, and the interning tables that order nominal categories.

    Treat instances as immutable after construction. ``minority_token`` and
    ``majority_token`` preserve the class spellings of the source file so a
    save/load round trip is exact.
    """

    schema: FeatureSchema
    rows: tuple[Row, ...]
    labels: tuple[ClassLabel, ...]
    minority_token: str = "minority"
    majority_token: str = "majority"
    intern: tuple = field(default=None)

    def __post_init__(self):
        self.rows = tuple(tuple(row) for row in self.rows)
        self.labels = tuple(ClassLabel(lab) for lab in self.labels)
        if len(self.rows) != len(self.labels):
            raise DataError(
                f"{len(self.rows)} rows but {len(self.labels)} labels"
            )
        arity = len(self.schema.features)
        for i, row in enumerate(self.rows):
            if len(row) != arity:
                raise DataError(f"row {i} has {len(row)} entries, expected {arity}")
        if self.intern is None:
            self.intern = _intern_categories(self.schema, self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_minority(self) -> int:
        return sum(1 for lab in self.labels if lab is ClassLabel.MINORITY)

    @property
    def n_majority(self) -> int:
        return len(self.labels) - self.n_minority

    def minority_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab is ClassLabel.MINORITY]

    def majority_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab is ClassLabel.MAJORITY]

    def minority_rows(self) -> list[Row]:
        return [self.rows[i] for i in self.minority_indices()]

    def class_token(self, label: ClassLabel) -> str:
        return self.minority_token if label is ClassLabel.MINORITY else self.majority_token

    def subset(self, indices: Iterable[int]) -> "Dataset":
        """Row slice preserving schema, class tokens, and intern order."""
        idx = list(indices)
        return Dataset(
            schema=self.schema,
            rows=tuple(self.rows[i] for i in idx),
            labels=tuple(self.labels[i] for i in idx),
            minority_token=self.minority_token,
            majority_token=self.majority_token,
            intern=self.intern,
        )

    def minority_subset(self) -> "Dataset":
        return self.subset(self.minority_indices())


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
    majority_label = others[0]
    labels = tuple(
        ClassLabel.MINORITY if tok == minority_label else ClassLabel.MAJORITY
        for tok in tokens
    )
    n_min = sum(1 for lab in labels if lab is ClassLabel.MINORITY)
    if n_min > len(labels) - n_min:
        raise DataError(
            f"{path}: minority class {minority_label!r} has {n_min} rows, more than "
            f"the majority class; check the minority label"
        )
    return Dataset(
        schema=schema,
        rows=tuple(rows),
        labels=labels,
        minority_token=minority_label,
        majority_token=majority_label,
    )


def save_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV in schema order; floats use repr for exact reload."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.schema.names) + [ds.schema.class_column])
        for row, label in zip(ds.rows, ds.labels):
            record = [
                repr(value) if kind == CONTINUOUS else value
                for value, kind in zip(row, ds.schema.kinds)
            ]
            record.append(ds.class_token(label))
            writer.writerow(record)


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
    fold_of_row = [0] * len(ds.rows)
    for class_indices in (ds.minority_indices(), ds.majority_indices()):
        if len(class_indices) < n_folds:
            raise DataError(
                f"class with {len(class_indices)} rows cannot fill {n_folds} folds"
            )
        perm = rng.permutation(len(class_indices))
        offset = int(rng.integers(n_folds))
        for position, p in enumerate(perm):
            fold_of_row[class_indices[p]] = (offset + position) % n_folds
    return FoldAssignment(tuple(fold_of_row), n_folds)

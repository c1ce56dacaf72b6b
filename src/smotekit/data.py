"""Datasets with mixed continuous/nominal features, CSV I/O, and stratified folds.

A dataset is a table of feature vectors plus a binary class label per row,
held in read-only column blocks that every layer reads. It is built in one
way, from one column per feature and one minority flag per row;
:func:`load_csv` parses each record straight into per-column buffers.
Continuous entries are finite floats; nominal entries are category tokens
interned in first-appearance order and stored as their codes, which makes
majority-vote tie-breaking deterministic downstream. Feature tuples are built
from the blocks only for callers that ask for rows; every text file is
written from the blocks by :func:`_write_lines`, a large one in parts, one
per usable CPU, that forked children format into unnamed temporary files in
the output directory. A part whose child cannot be made or does not exit 0
is formatted in this process instead, so the bytes, and any exception, are
those of a one-part write; there is no option to set. The minority class
must not outnumber the majority class at load time (later resampling may
flip that freely).
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import shutil
import signal
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import DataError
from .record import _FrozenRecord
from .rng import generator

CONTINUOUS = "continuous"
NOMINAL = "nominal"

class FeatureSchema(_FrozenRecord):
    """Ordered feature declarations plus the name of the class column.

    ``features`` is a tuple of ``(name, kind)`` pairs. ``names``, ``kinds``,
    ``continuous_indices`` and ``nominal_indices`` are tuples derived from it
    once, here.
    """

    _fields = ("features", "class_column")

    def __init__(self, features: tuple[tuple[str, str], ...], class_column: str):
        if not features:
            raise DataError("schema declares no features")
        names = tuple(name for name, _ in features)
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names in schema")
        for name, kind in features:
            if not name:
                raise DataError("empty feature name in schema")
            if kind not in (CONTINUOUS, NOMINAL):
                raise DataError(f"unknown feature kind {kind!r} for column {name!r}")
        if not class_column:
            raise DataError("empty class column name")
        if class_column in names:
            raise DataError("class column duplicates a feature name")
        kinds = tuple(kind for _, kind in features)
        vars(self).update(
            features=features,
            class_column=class_column,
            names=names,
            kinds=kinds,
            continuous_indices=tuple(i for i, kind in enumerate(kinds) if kind == CONTINUOUS),
            nominal_indices=tuple(i for i, kind in enumerate(kinds) if kind == NOMINAL),
        )

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
        with open(path, encoding="utf-8-sig") as fh:
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


_CHUNK_LINES = 1024
CSV_END = csv.excel.lineterminator


def _quote_fields(tokens: Iterable[str], alone: bool = False) -> np.ndarray:
    """An object array of each token as ``csv.writer`` writes it as one field
    of a line: quoted only when it holds a comma, a quote or a line break.
    ``alone`` is for lines of one field, where the csv module writes an empty
    token as ``""``. Codes index the array."""
    out = []
    for token in tokens:
        buf = io.StringIO()
        csv.writer(buf).writerow((token, ""))
        out.append(buf.getvalue()[: -1 - len(CSV_END)] or ('""' if alone else ""))
    return np.array(out, dtype=object)


def _write_lines(path: str | Path, header, n_lines: int, chunk_text) -> None:
    """The one text writer: ``header``, if not None, by ``csv.writer``, then
    ``chunk_text(part)`` for each slice ``part`` of at most 1,024 of the
    ``n_lines`` lines, so a large file is never all text at once.

    ``chunk_text`` must be a pure function of its slice. A file of four or
    more chunks is cut into parts of whole chunks, at least two each, one
    part per usable CPU. This process writes the first part; each later part
    is formatted by a forked child into an unnamed temporary file in
    ``path``'s directory and appended in order. A later part whose child
    could not be made (no temporary file, no fork) or did not exit 0 is
    formatted by this process, in its place. Every ``chunk_text`` call gets
    the slice a one-part write gives it, so the bytes are the same, and a
    failure raises the exception of a one-part write: this process's own.
    No child outlives the call. One part, in this process, when the platform
    cannot fork or report usable CPUs, or when another thread is running
    (forking it could deadlock the child).

    ``threading.active_count()`` sees Python threads only, so a native
    thread, such as an idle OpenBLAS worker, may be running when this
    process forks. The child is safe all the same: it runs only
    ``chunk_text``, which in every caller is numpy indexing, ``tolist`` and
    string formatting, with no BLAS call, so it waits on nothing such a
    thread holds. Python 3.12 and later warn of a fork beside other OS
    threads with a ``DeprecationWarning`` (shown under ``-W default``); how
    that reads with numpy on 3.12 or later is unverified. With
    ``OPENBLAS_NUM_THREADS=1`` the process has one OS thread and nothing
    warns.
    """
    chunks = [
        slice(start, min(start + _CHUNK_LINES, n_lines)) for start in range(0, n_lines, _CHUNK_LINES)
    ]
    n_parts = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        n_parts = max(1, min(len(os.sched_getaffinity(0)), len(chunks) // 2))
    cuts = [i * len(chunks) // n_parts for i in range(n_parts + 1)]
    later = []
    try:
        for a, b in zip(cuts[1:], cuts[2:]):
            later.append(_LaterPart(Path(path).parent, chunk_text, chunks[a:b]))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if header is not None:
                csv.writer(fh).writerow(header)
            for part in chunks[: cuts[1]]:
                fh.write(chunk_text(part))
            for part in later:
                part.append_to(fh)
    finally:
        for part in later:
            part.end()


class _LaterPart:
    """The chunks of one later part, formatted by a forked child into an
    unnamed temporary file when the file and the child can be made."""

    def __init__(self, directory: Path, chunk_text, chunks: list):
        self.chunk_text, self.chunks = chunk_text, chunks
        self.pid = self.tmp = None
        try:
            self.tmp = tempfile.TemporaryFile(dir=directory)
            self.pid = os.fork()
        except OSError:  # no temporary file or child: append_to formats the part
            return
        if self.pid == 0:
            _format_part(self.tmp, chunk_text, chunks)

    def append_to(self, fh) -> None:
        """Append the child's part to ``fh`` once it has exited 0; else
        format the part into ``fh`` here."""
        if self.pid is not None:
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            if status == 0:
                fh.flush()
                self.tmp.seek(0)
                shutil.copyfileobj(self.tmp, fh.buffer)
                return
        for part in self.chunks:
            fh.write(self.chunk_text(part))

    def end(self) -> None:
        """Kill and reap the child if it is not reaped yet, and close the
        temporary file. Safe to call more than once."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.tmp is not None:
            self.tmp.close()


def _format_part(tmp, chunk_text, chunks: list) -> NoReturn:
    """A forked child's whole life: it writes ``chunk_text`` of each chunk
    into ``tmp`` and exits 0 once they are flushed, or 1 on any exception.
    It ends in ``os._exit`` whatever happens, so it never returns into the
    caller or flushes the parent's buffered output."""
    code = 1
    try:
        for part in chunks:
            tmp.write(chunk_text(part).encode("utf-8"))
        tmp.flush()
        code = 0
    finally:
        os._exit(code)


class Dataset:
    """A binary-class table held as three read-only column blocks.

    ``Dataset(schema, columns, minority)`` takes one column per schema
    feature, floats for a continuous feature and str tokens for a nominal
    one, and one bool per row that is True for a minority row. It interns
    each nominal column's tokens in first-appearance order and builds
    ``cont``, a C-contiguous float64 block (rows x continuous features),
    ``codes``, an integer block (rows x nominal features) whose entries index
    those ``intern`` tables, and the boolean ``minority`` mask. Every layer
    and every writer reads the blocks; ``rows`` rebuilds feature tuples from
    them on each access, for ``__repr__``, ``SyntheticBatch.rows`` and tests
    only. ``n_minority`` is counted once, when the blocks are set. Subsets
    and resampled sets share their parent's intern tables.
    ``minority_token`` and ``majority_token`` keep the source file's class
    spellings so a save/load round trip is exact.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        columns: Sequence[Sequence],
        minority: Sequence[bool],
        minority_token: str = "minority",
        majority_token: str = "majority",
    ):
        self.schema = schema
        self.minority_token = minority_token
        self.majority_token = majority_token
        self.__post_init__(columns, minority)

    def __post_init__(self, columns: Sequence[Sequence], minority: Sequence[bool]):
        """Check ``columns`` and ``minority``, then intern and encode them; a
        step of its own, which ``bench/tracing.py`` times by this name."""
        schema = self.schema
        if len(columns) != len(schema.features):
            raise DataError(f"{len(columns)} columns, expected {len(schema.features)}")
        flags = np.asarray(minority)
        if flags.ndim != 1 or (flags.size and flags.dtype != bool):
            raise DataError("minority must hold one bool per row")
        n = len(flags)
        for name, column in zip(schema.names, columns):
            if len(column) != n:
                raise DataError(f"column {name!r} has {len(column)} entries, expected {n}")
        cont = np.empty((n, len(schema.continuous_indices)))
        try:
            for j, i in enumerate(schema.continuous_indices):
                cont[:, j] = columns[i]
        except (TypeError, ValueError):
            raise DataError("non-numeric value in a continuous column") from None
        if not np.isfinite(cont).all():
            raise DataError("non-finite value in a continuous column")
        intern: list = [None] * len(schema.features)
        codes = np.empty((n, len(schema.nominal_indices)), dtype=np.intp)
        for j, i in enumerate(schema.nominal_indices):
            table = intern[i] = {}
            codes[:, j] = [table.setdefault(token, len(table)) for token in columns[i]]
        self.intern = tuple(intern)
        self._set_blocks(cont, codes, flags.astype(bool))

    def _set_blocks(self, cont: np.ndarray, codes: np.ndarray, minority: np.ndarray):
        for block in (cont, codes, minority):
            block.flags.writeable = False
        self.cont, self.codes, self.minority = cont, codes, minority
        self.n_minority = int(np.count_nonzero(minority))

    def with_blocks(self, cont: np.ndarray, codes: np.ndarray, minority: np.ndarray) -> "Dataset":
        """A dataset of freshly built blocks that shares this one's schema,
        class tokens and intern tables; the blocks become read-only."""
        out = copy.copy(self)
        out._set_blocks(np.ascontiguousarray(cont, dtype=float), codes, minority)
        return out

    def _columns(self) -> list[list]:
        columns: list = [None] * len(self.schema.features)
        for j, i in enumerate(self.schema.continuous_indices):
            columns[i] = self.cont[:, j].tolist()
        for j, i in enumerate(self.schema.nominal_indices):
            tokens = list(self.intern[i])
            columns[i] = [tokens[c] for c in self.codes[:, j].tolist()]
        return columns

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self._columns()))

    def __len__(self) -> int:
        return len(self.minority)

    def __repr__(self) -> str:
        return (
            f"Dataset(schema={self.schema!r}, columns={self._columns()!r}, "
            f"minority={self.minority.tolist()!r}, "
            f"minority_token={self.minority_token!r}, "
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


def _category_counts(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The integer counts of each nominal feature's intern codes among the
    minority rows (row 0) and the majority rows (row 1), as one ``(2,
    total)`` block, and the first column of each feature in it, in schema
    order. A feature has ``categories + 1`` columns: the last, past the
    intern table, counts 0; it is the slot of a category the table lacks,
    which code -1 picks.

    One ``np.bincount`` over every feature's codes, each offset past the
    columns of the features before it, and past the minority half for a
    majority row; its size grows with the category count, not the rows.
    """
    sizes = [len(ds.intern[i]) + 1 for i in ds.schema.nominal_indices]
    total = sum(sizes)
    starts = np.cumsum(sizes, dtype=np.intp) - sizes
    keys = ds.codes + starts
    keys += (~ds.minority)[:, None] * total
    counts = np.bincount(keys.ravel(), minlength=2 * total).reshape(2, total)
    return counts, starts


def load_csv(path: str | Path, schema: FeatureSchema, minority_label: str) -> Dataset:
    """Load a UTF-8 CSV with a header row, and an optional byte-order mark,
    into a Dataset.

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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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

        columns = [array("d") if kind == CONTINUOUS else [] for kind in schema.kinds]
        cells = tuple(zip(schema.names, schema.kinds, feature_cols, columns))
        minority = bytearray()
        classes: set[str] = set()
        tokens: dict[str, str] = {}  # one str object per distinct nominal token
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(record)} fields, expected {len(header)}"
                )
            for name, kind, col, column in cells:
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
                    column.append(value)
                else:
                    column.append(tokens.setdefault(raw, raw))
            token = record[class_col]
            if token == "":
                raise DataError(f"{path}: line {line_no}: missing class value")
            classes.add(token)
            minority.append(token == minority_label)

    distinct = sorted(classes)
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
    ds = Dataset(
        schema, columns, np.frombuffer(minority, dtype=bool), minority_label, others[0]
    )
    if ds.n_minority > ds.n_majority:
        raise DataError(
            f"{path}: minority class {minority_label!r} has {ds.n_minority} rows, "
            "more than the majority class; check the minority label"
        )
    return ds


def save_csv(ds: Dataset, path: str | Path, class_column: bool = True) -> None:
    """Write a Dataset as CSV in schema order through :func:`_write_lines`;
    floats use repr for exact reload.

    ``class_column=False`` leaves the class column out, as the external
    scorer's test file must.
    """
    schema = ds.schema
    header = list(schema.names) + ([schema.class_column] if class_column else [])
    tokens = [_quote_fields(ds.intern[i], len(header) == 1) for i in schema.nominal_indices]
    classes = _quote_fields((ds.majority_token, ds.minority_token))

    def chunk_text(part: slice) -> str:
        columns: list = [None] * len(schema.features)
        for j, i in enumerate(schema.continuous_indices):
            columns[i] = map(float.__repr__, ds.cont[part, j].tolist())
        for j, i in enumerate(schema.nominal_indices):
            columns[i] = tokens[j][ds.codes[part, j]].tolist()
        if class_column:
            columns.append(classes[ds.minority[part].astype(np.intp)].tolist())
        return CSV_END.join(map(",".join, zip(*columns))) + CSV_END

    _write_lines(path, header, len(ds), chunk_text)


def stratified_folds(ds: Dataset, n_folds: int, seed: int) -> np.ndarray:
    """The cross-validation fold of every row, as a read-only ``np.intp``
    array, so that per-fold class counts differ by at most one.

    Shuffles each class independently and deals the rows round-robin from a
    random starting fold, so the remainder rows do not pile onto fold 0.
    Deterministic for a fixed seed. A class with fewer rows than folds is a
    DataError. ``n_folds`` is at least 2, as ``ExperimentConfig`` checks.
    """
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
    fold_of_row.flags.writeable = False
    return fold_of_row

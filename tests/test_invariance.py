"""Experiment reports do not depend on what the README says they ignore.

Each test runs ``smotekit experiment`` on a drawn dataset and on a changed
copy of it, over all five families, and requires the same ``aucs.json``,
``hull.csv`` and ``roc_points.csv`` bytes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from smotekit.cli import main
from smotekit.pipeline import FAMILIES
from smotekit.resample import GAP_MODES, NEIGHBOR_MODES, UNDER_BASES

REPORT_FILES = ("aucs.json", "hull.csv", "roc_points.csv")

# feature kinds for each --variant that can read categories; smote takes
# all-continuous features only, so it has no category to rename
CATEGORY_KINDS = {
    "smote_nc": ("continuous", "nominal", "nominal"),
    "smote_n": ("nominal", "nominal", "nominal"),
    "replicate": ("nominal", "continuous", "nominal"),
}
# every --variant, each with the feature kinds it takes
VARIANT_KINDS = {**CATEGORY_KINDS, "smote": ("continuous", "continuous", "continuous")}
# the variants that read continuous features
SCALED_KINDS = {v: VARIANT_KINDS[v] for v in ("smote", "smote_nc", "replicate")}


def _comma_list(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True).map(
        lambda picked: ",".join(map(str, picked))
    )


@st.composite
def _experiments(draw, kinds_of=CATEGORY_KINDS):
    """Feature kinds, rows (minority first) of values on a one-decimal grid
    and categories 0-3, repeated from a short pool so that votes tie, and
    the flags of an experiment over all five families in a drawn order; the
    variant and its kinds come from ``kinds_of``."""
    variant = draw(st.sampled_from(sorted(kinds_of)))
    kinds = kinds_of[variant]
    value = {
        "continuous": st.integers(-10, 10).map(lambda v: v / 10),
        "nominal": st.integers(0, 3),
    }
    pool = draw(st.lists(st.tuples(*(value[kind] for kind in kinds)), min_size=2, max_size=8))
    n_min = draw(st.integers(4, 8))
    n_maj = draw(st.integers(n_min, 16))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n_min + n_maj, max_size=n_min + n_maj))
    flags = [
        "--families", ",".join(draw(st.permutations(FAMILIES))),
        "--variant", variant,
        "--over", draw(_comma_list((50, 100, 200))),
        "--under", draw(_comma_list((50, 100, 300, 2000))),
        "--k", str(draw(st.integers(1, 5))),
        "--folds", str(draw(st.integers(2, 3))),
        "--seed", str(draw(st.integers(0, 2**32 - 1))),
        "--prior-multipliers", draw(_comma_list((1, 3, 10))),
        "--thresholds", draw(_comma_list((0.0, 0.3, 0.5, 0.9))),
        "--gap-mode", draw(st.sampled_from(GAP_MODES)),
        "--neighbor-mode", draw(st.sampled_from(NEIGHBOR_MODES)),
        "--under-basis", draw(st.sampled_from(UNDER_BASES)),
    ]
    return kinds, rows, n_min, flags


def _report(
    directory: Path, name: str, kinds, rows, n_min, flags, order=None, tokens=("pos", "neg")
) -> dict:
    """The report bytes of one experiment on ``rows``, written as ``name``.csv
    with a class column ``cls`` of ``tokens[0]`` (the first ``n_min`` rows,
    the minority) and ``tokens[1]``. ``order`` lists the CSV's columns by
    their place in the schema file, the class column last; None keeps that
    order."""
    header = [*(f"f{i}" for i in range(len(kinds))), "cls"]
    order = range(len(header)) if order is None else order
    records = [[*map(str, row), tokens[i >= n_min]] for i, row in enumerate(rows)]
    lines = [",".join(record[j] for j in order) for record in [header, *records]]
    data = directory / f"{name}.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = directory / f"{name}.schema.json"
    schema.write_text(json.dumps({**dict(zip(header, kinds)), "cls": "class"}), encoding="utf-8")
    out = directory / name
    argv = ["experiment", "--data", str(data), "--schema", str(schema), "--minority", tokens[0]]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    return {file: (out / file).read_bytes() for file in REPORT_FILES}


def _renamed(kinds, rows, name):
    """``rows`` with each nominal column's categories renamed by ``name(i)``,
    where i is the category's place in the column's first-appearance order."""
    columns = []
    for j, kind in enumerate(kinds):
        seen = dict.fromkeys(row[j] for row in rows)
        columns.append(dict(zip(seen, map(name, range(len(seen))))) if kind == "nominal" else None)
    return [
        tuple(value if column is None else column[value] for value, column in zip(row, columns))
        for row in rows
    ]


@settings(max_examples=25, deadline=None)
@given(case=_experiments())
def test_renaming_categories_keeps_the_report(case):
    """Every category renamed so that its first appearance keeps its place
    but lexical order runs the other way: votes and VDM ties break by intern
    order, not by token text, so the report bytes stay the same."""
    kinds, rows, n_min, flags = case
    ascending = _renamed(kinds, rows, lambda i: f"c{chr(ord('a') + i)}")
    descending = _renamed(kinds, rows, lambda i: f"c{chr(ord('z') - i)}")
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert _report(directory, "descending", kinds, descending, n_min, flags) == _report(
            directory, "ascending", kinds, ascending, n_min, flags
        )


@settings(max_examples=25, deadline=None)
@given(case=_experiments(VARIANT_KINDS), data=st.data())
def test_reordering_csv_columns_keeps_the_report(case, data):
    """The CSV's columns, the class column among them, in a drawn order with
    the same schema file: features are read by header name."""
    kinds, rows, n_min, flags = case
    order = data.draw(st.permutations(range(len(kinds) + 1)))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert _report(directory, "reordered", kinds, rows, n_min, flags, order=order) == _report(
            directory, "declared", kinds, rows, n_min, flags
        )


@settings(max_examples=25, deadline=None)
@given(
    case=_experiments(VARIANT_KINDS),
    tokens=st.lists(st.text("abnpz", min_size=1, max_size=3), min_size=2, max_size=2, unique=True),
)
def test_renaming_class_tokens_keeps_the_report(case, tokens):
    """Both class tokens renamed, the minority token sorting before or after
    the majority token: ``--minority`` names the minority, not sort order."""
    kinds, rows, n_min, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert _report(directory, "renamed", kinds, rows, n_min, flags, tokens=tokens) == _report(
            directory, "pos_neg", kinds, rows, n_min, flags
        )


@settings(max_examples=25, deadline=None)
@given(case=_experiments(SCALED_KINDS), j=st.integers(-8, 8))
def test_scaling_continuous_values_keeps_the_report(case, j):
    """Every continuous value times 2**j: distances, ``Med``, gaps, means
    and variances all scale exactly, and naive Bayes scores depend on
    ratios of them, so the report bytes stay the same."""
    kinds, rows, n_min, flags = case
    # Minority row i moves by i/100, off the one-decimal grid, so no continuous
    # column is constant within a training fold's minority. A column constant
    # over a whole training split gets naive Bayes' absolute variance floor,
    # which does not scale with the data.
    rows = [
        tuple(v + i / 100 if kind == "continuous" and i < n_min else v for v, kind in zip(row, kinds))
        for i, row in enumerate(rows)
    ]
    scaled = [
        tuple(v * 2.0**j if kind == "continuous" else v for v, kind in zip(row, kinds)) for row in rows
    ]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert _report(directory, "scaled", kinds, scaled, n_min, flags) == _report(
            directory, "unscaled", kinds, rows, n_min, flags
        )

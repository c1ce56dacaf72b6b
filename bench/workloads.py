"""Benchmark workloads: seeded synthetic datasets and the CLI call each one makes.

Each workload is chosen by which layer it loads, so that every layer likely
to be optimised does most of the work in one workload and little in another:

* ``cont_smote``: all-continuous data, SMOTE + under-sampling grid. Neighbor
  search dominates; 4 cells x 5 folds make 20 ``knn_minority`` calls over
  5 distinct fold minorities.
* ``mixed_smote_nc``: 6 continuous + 4 nominal features, the paper's SMOTE-NC
  setting. Neighbors, vote synthesis and naive Bayes each carry weight, and
  the ``replicate`` family skips neighbor search.
* ``nominal_sweeps``: all-nominal data with a small minority, SMOTE-N plus the
  priors and threshold sweeps. Neighbor work is light; model training and the
  per-cell ``VdmTable`` build dominate.
* ``augment_write``: mixed data through the ``smote-nc`` subcommand, which
  writes augmented CSVs and provenance sidecars. The only workload where
  ``save_csv`` and ``write_provenance`` run.

Row counts and folds are scaled down from mid scale so that one CLI call
takes about one second on a two-core VM, so a run holds twenty or more calls.
Majority rows are cut harder than minority rows: neighbor search costs
O(T^2) in the T minority rows, while training costs grow with all rows, so
keeping the minority large keeps neighbor search the largest layer where it
was at mid scale. Cutting folds instead of rows cuts every layer alike.

Importing this module needs only the standard library; numpy is imported by
:func:`generate`, which the benchmark runs in a child process so that ``run.py``'s
own memory never shows in a child's peak RSS.

Usage: ``python3 bench/workloads.py --workload NAME --seed N --out DIR``
writes ``data.csv`` and ``schema.json`` into DIR.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

MINORITY = "pos"
MAJORITY = "neg"

WORKLOADS = {
    "cont_smote": {
        "why": (
            "neighbor search is half the time (20 knn calls on 5 distinct "
            "inputs); where neighbor hoisting or streaming must show"
        ),
        "n_continuous": 8,
        "cardinalities": (),
        "n_minority": 440,
        "n_majority": 500,
        "argv": [
            "experiment", "--families", "smote_under,plain_under",
            "--variant", "smote", "--over", "200", "--under", "50,100,200,500",
            "--folds", "5", "--k", "5",
        ],
    },
    "mixed_smote_nc": {
        "why": (
            "the paper's SMOTE-NC setting: neighbors, vote synthesis and naive "
            "Bayes each carry weight; replicate cells skip neighbor search"
        ),
        "n_continuous": 6,
        "cardinalities": (3, 4, 6, 8),
        "n_minority": 360,
        "n_majority": 420,
        "argv": [
            "experiment", "--families", "smote_under,replicate,plain_under",
            "--variant", "smote_nc", "--over", "100,300", "--under", "50,200",
            "--folds", "5",
        ],
    },
    "nominal_sweeps": {
        "why": (
            "small minority makes neighbor work light, the control for neighbor "
            "changes; model training and per-cell VdmTable builds dominate"
        ),
        "n_continuous": 0,
        "cardinalities": (3, 4, 5, 6, 3, 4, 5, 6),
        "n_minority": 110,
        "n_majority": 1100,
        "argv": [
            "experiment",
            "--families", "smote_under,plain_under,priors_sweep,threshold_sweep",
            "--variant", "smote_n", "--over", "100,300", "--under", "50,200",
        ],
    },
    "augment_write": {
        "why": (
            "the only workload where save_csv and write_provenance run; shows a "
            "refactor that re-materialises rows at the CSV boundary"
        ),
        "n_continuous": 6,
        "cardinalities": (3, 4, 6, 8),
        "n_minority": 400,
        "n_majority": 800,
        "argv": ["smote-nc", "--over", "1000,2000,4000", "--k", "5"],
    },
}


def schema_of(spec: dict) -> dict:
    """Column name -> kind, in file order, class column last."""
    schema = {f"c{i}": "continuous" for i in range(spec["n_continuous"])}
    schema.update({f"n{i}": "nominal" for i in range(len(spec["cardinalities"]))})
    schema["class"] = "class"
    return schema


def generate(name: str, seed: int, out_dir: Path) -> None:
    """Write ``data.csv`` and ``schema.json`` for one workload and seed.

    Continuous features are Gaussian, with the minority mean shifted by a
    seeded amount per feature so the classes overlap. Nominal features draw
    from per-class category distributions, each category keeping at least a
    small share in both classes so every category appears in every fold.
    """
    import numpy as np

    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    n_min, n_maj = spec["n_minority"], spec["n_majority"]
    n_cont = spec["n_continuous"]
    shift = rng.uniform(0.3, 0.9, size=n_cont)
    columns = []
    for n_rows, mean in ((n_min, shift), (n_maj, np.zeros(n_cont))):
        cont = rng.normal(mean, 1.0, size=(n_rows, n_cont))
        columns.append([[f"{v:.6f}" for v in row] for row in cont])
    nominal = [[[] for _ in range(n_min)], [[] for _ in range(n_maj)]]
    for card in spec["cardinalities"]:
        for c, n_rows in enumerate((n_min, n_maj)):
            probs = 0.5 / card + 0.5 * rng.dirichlet(np.ones(card))
            codes = rng.choice(card, size=n_rows, p=probs / probs.sum())
            for row, code in zip(nominal[c], codes):
                row.append(f"v{code}")
    records = [
        columns[c][i] + nominal[c][i] + [token]
        for c, (n_rows, token) in enumerate(((n_min, MINORITY), (n_maj, MAJORITY)))
        for i in range(n_rows)
    ]
    order = rng.permutation(len(records))
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = schema_of(spec)
    with open(out_dir / "data.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(schema))
        writer.writerows(records[i] for i in order)
    with open(out_dir / "schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))

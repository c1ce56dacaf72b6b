"""Output checks for one CLI call of a benchmark workload.

Each check returns the sha256 of every output file the call must write
(name -> hex digest) and a list of problems; an empty list means the output
is correct. A call also fails when a digest differs from the run's first
call, which :func:`compare` reports.

Files are streamed, never held whole: a child's ``ru_maxrss`` starts from the
peak RSS of ``run.py`` at spawn, so ``run.py`` must stay smaller than any call.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import MINORITY

REPORT_FILES = ("roc_points.csv", "hull.csv", "aucs.json", "manifest.json")


def digest(path: Path, data_dir: Path) -> str:
    """sha256 of a file. The manifest records the absolute data path, which
    differs between checkouts, so it is hashed with that path replaced by
    ``<data>``; other files are hashed as written."""
    if path.name == "manifest.json":
        marker = str(data_dir.resolve()).encode()
        return hashlib.sha256(path.read_bytes().replace(marker, b"<data>")).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _digests(out_dir: Path, names: list, data_dir: Path) -> tuple[dict, list]:
    found = {n: digest(out_dir / n, data_dir) for n in names if (out_dir / n).is_file()}
    return found, [f"{n} missing" for n in names if n not in found]


def experiment_report(out_dir: Path, data_dir: Path) -> tuple[dict, list]:
    """The four report files; every AUC in [0, 1], hull.csv sorted by fp_rate."""
    files, problems = _digests(out_dir, REPORT_FILES, data_dir)
    if problems:
        return files, problems
    try:
        aucs = json.loads((out_dir / "aucs.json").read_text())["aucs"]
        values = [float(entry["auc"]) for entry in aucs.values()]
        with open(out_dir / "hull.csv", newline="", encoding="utf-8") as fh:
            fp_rates = [float(row["fp_rate"]) for row in csv.DictReader(fh)]
    except (ValueError, KeyError, TypeError) as exc:
        return files, [f"unreadable report: {exc!r}"]
    if not values:
        problems.append("aucs.json lists no family")
    problems += [f"AUC {v} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]
    if fp_rates != sorted(fp_rates):
        problems.append("hull.csv is not sorted by fp_rate")
    return files, problems


def augmented_outputs(
    out_dir: Path, data_dir: Path, variant: str, overs: list,
    n_minority: int, n_majority: int,
) -> tuple[dict, list]:
    """Augmented CSVs and provenance sidecars of a resample subcommand.

    Each CSV holds ``T + floor(N/100)*T`` minority rows and every majority
    row; each sidecar holds one line per synthetic row.
    """
    stems = [(f"augmented_{variant}_o{over}_u0", (over // 100) * n_minority)
             for over in overs]
    names = [stem + ext for stem, _ in stems for ext in (".csv", ".provenance.jsonl")]
    files, problems = _digests(out_dir, names, data_dir)
    if problems:
        return files, problems
    for stem, synthetic in stems:
        counts = {MINORITY: 0}
        with open(out_dir / f"{stem}.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                counts[row[-1]] = counts.get(row[-1], 0) + 1
        minority = counts.pop(MINORITY)
        if minority != n_minority + synthetic:
            problems.append(
                f"{stem}.csv: {minority} minority rows, expected "
                f"{n_minority} + {synthetic}"
            )
        if sum(counts.values()) != n_majority:
            problems.append(
                f"{stem}.csv: {sum(counts.values())} majority rows, expected {n_majority}"
            )
        with open(out_dir / f"{stem}.provenance.jsonl", "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != synthetic:
            problems.append(
                f"{stem}.provenance.jsonl: {lines} lines for {synthetic} synthetic rows"
            )
    return files, problems


def compare(files: dict, reference: dict) -> list:
    """Problems for every file whose bytes differ from the run's first call."""
    names = sorted(set(files) | set(reference))
    return [f"{name} differs from the first call" for name in names
            if files.get(name) != reference.get(name)]

"""Self-tests of the benchmark: its output checks, its trace, its metadata.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
Each test runs the CLI on a tiny generated dataset, so the whole file takes a
few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import tracing
import workloads
from run import unit_of

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

TINY = {
    "why": "tiny mixed-schema grid for the self-tests",
    "n_continuous": 3,
    "cardinalities": (3, 4),
    "n_minority": 40,
    "n_majority": 160,
    "argv": [
        "experiment", "--families", "smote_under,replicate,plain_under",
        "--variant", "smote_nc", "--over", "100,200", "--under", "50,200",
        "--folds", "4",
    ],
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny dataset on disk; returns the CLI arguments that read it."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    workloads.generate("tiny", 7, tmp_path / "data")
    return TINY["argv"] + [
        "--data", str(tmp_path / "data" / "data.csv"),
        "--schema", str(tmp_path / "data" / "schema.json"),
        "--minority", workloads.MINORITY,
        "--out", str(tmp_path / "out"),
    ]


def run_cli(argv, prefix=("-m", "smotekit.cli")):
    proc = subprocess.run(
        [sys.executable, *prefix, *argv], env=ENV, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_flipped_report_byte_fails_the_check(tiny, tmp_path):
    run_cli(tiny)
    data = tmp_path / "data"
    reference, problems = checks.experiment_report(tmp_path / "out", data)
    assert problems == []
    assert sorted(reference) == sorted(checks.REPORT_FILES)

    for name in checks.REPORT_FILES:
        path = tmp_path / "out" / name
        original = path.read_bytes()
        blob = bytearray(original)
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        files, _ = checks.experiment_report(tmp_path / "out", data)
        assert checks.compare(files, reference) == [f"{name} differs from the first call"]
        path.write_bytes(original)


def test_report_checks_catch_bad_auc_and_unsorted_hull(tiny, tmp_path):
    run_cli(tiny)
    out = tmp_path / "out"
    aucs = json.loads((out / "aucs.json").read_text())
    family = sorted(aucs["aucs"])[0]
    aucs["aucs"][family]["auc"] = 1.5
    (out / "aucs.json").write_text(json.dumps(aucs))
    header, *rows = (out / "hull.csv").read_text().splitlines()
    (out / "hull.csv").write_text("\n".join([header, *reversed(rows)]) + "\n")
    _, problems = checks.experiment_report(out, tmp_path / "data")
    assert problems == ["AUC 1.5 outside [0, 1]", "hull.csv is not sorted by fp_rate"]


def test_augment_check_enforces_the_count_law(tmp_path, monkeypatch):
    spec = dict(TINY, argv=["smote-nc", "--over", "200,300"])
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", spec)
    workloads.generate("tiny", 7, tmp_path / "data")
    run_cli(spec["argv"] + [
        "--data", str(tmp_path / "data" / "data.csv"),
        "--schema", str(tmp_path / "data" / "schema.json"),
        "--minority", workloads.MINORITY, "--out", str(tmp_path / "out"),
    ])
    args = (tmp_path / "out", tmp_path / "data", "smote_nc", [200, 300], 40, 160)
    assert checks.augmented_outputs(*args)[1] == []

    sidecar = tmp_path / "out" / "augmented_smote_nc_o300_u0.provenance.jsonl"
    sidecar.write_text("".join(sidecar.read_text().splitlines(True)[1:]))
    assert checks.augmented_outputs(*args)[1] == [
        "augmented_smote_nc_o300_u0.provenance.jsonl: 119 lines for 120 synthetic rows"
    ]


def test_traced_self_times_sum_to_the_total(tiny, tmp_path):
    spans = tmp_path / "spans.json"
    start = time.perf_counter()
    run_cli([str(spans), *tiny], prefix=(str(ROOT / "bench" / "tracing.py"),))
    wall = time.perf_counter() - start
    trace = json.loads(spans.read_text())
    metrics = tracing.layer_metrics(trace)

    assert tracing.trace_problems(trace, wall) == []
    assert sorted(metrics) == tracing.metric_names()
    total = metrics["cli.main_s"]
    assert abs(tracing.self_time_sum(metrics) - total) <= tracing.SELF_TIME_TOLERANCE * total
    # 2 overs x 2 unders x 4 folds search neighbors of the same 4 fold minorities
    assert metrics["neighbors.knn_calls"] == 16
    assert metrics["neighbors.knn_distinct_inputs"] == 4
    assert metrics["neighbors.knn_useful_ratio"] == 0.25
    assert metrics["distance.pairwise_calls"] == 16
    # 2 x (2 overs x 2 unders) resampled cells, 2 plain_under cells, the raw cell
    assert metrics["pipeline.cells_run"] == 8 + 2 + 1
    assert metrics["pipeline.cells_skipped"] == 0
    assert metrics["pipeline.run_experiment_s"] < total


def test_trace_check_reports_spans_outside_the_root():
    root = ["cli.main", 1.0, 2.0, None, None]
    assert tracing.trace_problems({"spans": [root, ["model.train", 1.2, 1.5, 0, 9]]}, 1.5) == []
    assert tracing.trace_problems({"spans": [root, ["model.train", 2.5, 2.6, None, 9]]}, 1.5) == [
        "span 1 (model.train) has no parent before it"
    ]
    assert tracing.trace_problems({"spans": [root, ["model.train", 1.5, 2.4, 0, 9]]}, 1.5) == [
        "span 1 (model.train) is not inside its parent"
    ]
    assert tracing.trace_problems({"spans": [root]}, 0.5) == [
        "cli.main span is longer than the child's wall time 0.500 s"
    ]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()
    }
    layer_names = [m["name"] for m in spec["per_layer"]]
    assert layer_names == tracing.metric_names() + ["trace.overhead_ratio"]
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])


def test_calibration_runs_without_the_program(tmp_path):
    # The calibration rescales every timed metric, so it must not move when
    # the program changes: it runs without the program on its path (-I
    # ignores PYTHONPATH).
    shutil.copy(ROOT / "bench" / "calibration.py", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-I", "calibration.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:2] == ["800", "6"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cont_smote", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

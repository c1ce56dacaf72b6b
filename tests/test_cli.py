import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smotekit
from smotekit.cli import main
from smotekit.data import FeatureSchema, load_csv

SCHEMA = FeatureSchema((("x", "continuous"), ("y", "continuous")), "cls")


@pytest.fixture
def toy(tmp_path):
    """Writes a 20 minority / 60 majority dataset plus its schema sidecar."""
    rng = np.random.default_rng(81)
    lines = ["x,y,cls"]
    for i in range(80):
        token = "pos" if i < 20 else "neg"
        loc = 1.5 if token == "pos" else 0.0
        x, y = (float(v) for v in rng.normal(loc=loc, size=2))
        lines.append(f"{x!r},{y!r},{token}")
    data = tmp_path / "toy.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "toy.schema.json"
    schema.write_text(
        json.dumps({"x": "continuous", "y": "continuous", "cls": "class"}),
        encoding="utf-8",
    )
    return data, schema


def data_args(toy):
    data, schema = toy
    return ["--data", str(data), "--schema", str(schema), "--minority", "pos"]


def test_smote_subcommand_writes_augmented_csv(toy, tmp_path, capsys):
    out = tmp_path / "aug"
    rc = main(["smote", *data_args(toy), "--over", "100,200", "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "augmented_smote_o100_u0.csv",
        "augmented_smote_o100_u0.provenance.jsonl",
        "augmented_smote_o200_u0.csv",
        "augmented_smote_o200_u0.provenance.jsonl",
    ]
    ds = load_csv(out / "augmented_smote_o200_u0.csv", SCHEMA, "pos")
    assert ds.n_minority == 60  # 20 originals + 40 synthetic
    assert ds.n_majority == 60
    sidecar = (out / "augmented_smote_o200_u0.provenance.jsonl").read_text("utf-8")
    records = [json.loads(line) for line in sidecar.splitlines()]
    assert len(records) == 40
    assert all(r["variant"] == "smote" for r in records)
    assert "minority" in capsys.readouterr().out


def test_smote_with_under_grid(toy, tmp_path):
    out = tmp_path / "grid"
    rc = main(
        ["smote", *data_args(toy), "--over", "100", "--under", "100,200", "--out", str(out)]
    )
    assert rc == 0
    # over-sampled outputs can hold minority > majority, which load_csv
    # rejects by design (its mislabeling guard), so tally tokens directly
    lines = (out / "augmented_smote_o100_u200.csv").read_text("utf-8").splitlines()
    tokens = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert tokens.count("pos") == 40
    assert tokens.count("neg") == 10  # pre basis: round(100*20/200)


def test_undersample_subcommand(toy, tmp_path):
    out = tmp_path / "under"
    rc = main(["undersample", *data_args(toy), "--under", "100", "--out", str(out)])
    assert rc == 0
    ds = load_csv(out / "undersampled_u100.csv", SCHEMA, "pos")
    assert ds.n_minority == 20
    assert ds.n_majority == 20


def test_missing_data_file_is_exit_3(toy, tmp_path, capsys):
    _, schema = toy
    rc = main(
        [
            "smote",
            "--data", str(tmp_path / "nope.csv"),
            "--schema", str(schema),
            "--minority", "pos",
            "--over", "100",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_wrong_minority_token_is_exit_3(toy, tmp_path, capsys):
    rc = main(
        [
            "smote",
            *data_args(toy)[:-1],
            "positive",
            "--over", "100",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 3


def test_unknown_flag_is_argparse_exit_2(toy, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["smote", *data_args(toy), "--over", "100", "--out", "x", "--psychic"])
    assert err.value.code == 2


def test_evaluate_subcommand(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text(
        "family,tag,fp_rate,tp_rate\n"
        "alpha,a1,0,0\n"
        "alpha,a2,10,80\n"
        "beta,b1,30,90\n",
        encoding="utf-8",
    )
    out = tmp_path / "eval"
    rc = main(["evaluate", "--points", str(points), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "aucs.json").read_text("utf-8"))
    assert summary["auc_anchor"] == "origin"
    assert summary["aucs"]["alpha"]["auc"] == pytest.approx(0.85)
    assert summary["aucs"]["alpha"]["auc_e4"] == 8500
    shown = capsys.readouterr().out
    assert "alpha: auc=0.850000 (8500)" in shown
    assert (out / "hull.csv").is_file()
    assert (out / "roc_points.csv").is_file()


def test_evaluate_leftmost_anchor(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("family,fp_rate,tp_rate\nalpha,10,80\n", encoding="utf-8")
    out = tmp_path / "eval"
    rc = main(
        ["evaluate", "--points", str(points), "--auc-anchor", "leftmost", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "aucs.json").read_text("utf-8"))
    assert summary["aucs"]["alpha"]["auc"] == pytest.approx(0.81)
    assert summary["auc_anchor"] == "leftmost"


def test_evaluate_rejects_missing_columns(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("fam,x,y\nalpha,1,2\n", encoding="utf-8")
    rc = main(["evaluate", "--points", str(points), "--out", str(tmp_path / "e")])
    assert rc == 3
    assert "need columns" in capsys.readouterr().err


@pytest.mark.parametrize("row, fields", [("alpha,10", 2), ("alpha,10,80,extra", 4)])
def test_evaluate_rejects_short_or_long_row(tmp_path, capsys, row, fields):
    points = tmp_path / "points.csv"
    points.write_text(f"family,fp_rate,tp_rate\nalpha,0,0\n{row}\n", encoding="utf-8")
    rc = main(["evaluate", "--points", str(points), "--out", str(tmp_path / "e")])
    assert rc == 3
    assert f"line 3 has {fields} fields, expected 3" in capsys.readouterr().err


def test_resample_rejects_k_below_one(toy, tmp_path, capsys):
    rc = main(
        ["smote", *data_args(toy), "--over", "100", "--k", "0", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "k must be at least 1" in capsys.readouterr().err


def experiment_args(toy, out):
    return [
        "experiment",
        *data_args(toy),
        "--families", "smote_under,plain_under",
        "--over", "100",
        "--under", "100,200",
        "--k", "3",
        "--folds", "4",
        "--seed", "5",
        "--out", str(out),
    ]


def test_experiment_subcommand(toy, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(experiment_args(toy, out))
    assert rc == 0
    for name in ("roc_points.csv", "hull.csv", "aucs.json", "manifest.json"):
        assert (out / name).is_file()
    shown = capsys.readouterr().out
    assert "plain_under: auc=" in shown
    assert "smote_under@100: auc=" in shown
    assert "hull" in shown
    assert "report written to" in shown


def test_experiment_reruns_identically(toy, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(experiment_args(toy, out_a)) == 0
    assert main(experiment_args(toy, out_b)) == 0
    for name in ("roc_points.csv", "hull.csv", "aucs.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_experiment_from_manifest(toy, tmp_path):
    out_a = tmp_path / "a"
    assert main(experiment_args(toy, out_a)) == 0
    out_b = tmp_path / "b"
    rc = main(
        [
            "experiment",
            "--from-manifest", str(out_a / "manifest.json"),
            "--out", str(out_b),
        ]
    )
    assert rc == 0
    assert (out_a / "aucs.json").read_bytes() == (out_b / "aucs.json").read_bytes()


def test_experiment_bad_family_is_exit_2(toy, tmp_path, capsys):
    rc = main(
        [
            "experiment",
            *data_args(toy),
            "--families", "mystery",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_experiment_folds_above_minority_count_is_exit_3(toy, tmp_path, capsys):
    rc = main(
        [
            "experiment",
            *data_args(toy),
            "--folds", "25",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert "25 folds" in err


def test_experiment_thin_training_minority_is_exit_3(tmp_path, capsys):
    # 2 minority rows over 2 folds leave 1 minority row in each training fold
    lines = ["x,y,cls"] + [f"{i}.0,{i % 3}.0,{'pos' if i < 2 else 'neg'}" for i in range(22)]
    data = tmp_path / "thin.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "thin.schema.json"
    schema.write_text(
        json.dumps({"x": "continuous", "y": "continuous", "cls": "class"}), encoding="utf-8"
    )
    rc = main(
        [
            "experiment",
            "--data", str(data), "--schema", str(schema), "--minority", "pos",
            "--folds", "2", "--over", "100", "--under", "100",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err
    assert "at least 2 minority rows" in err


def test_experiment_requires_data_without_manifest(tmp_path, capsys):
    rc = main(["experiment", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--data" in capsys.readouterr().err


README_SUBCOMMANDS = (
    "smote", "smote-nc", "smote-n", "replicate", "undersample", "evaluate", "experiment",
)


def check_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("usage: smotekit")
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("    ")}
    for name in README_SUBCOMMANDS:
        assert name in listed, f"--help does not list {name}"


def test_console_script_help():
    """The [project.scripts] entry point behaves as pip's generated wrapper
    would, and prints the same help as `python -m smotekit.cli`."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text("utf-8"))["project"]["scripts"]
    assert "smotekit" in scripts
    module, _, func = scripts["smotekit"].partition(":")
    # run against the smotekit this suite imported, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1])}
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=env
    )
    check_help(proc)
    as_module = subprocess.run(
        [sys.executable, "-m", "smotekit.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert as_module.returncode == 0, as_module.stderr
    assert as_module.stdout == proc.stdout


@pytest.mark.skipif(
    shutil.which("smotekit") is None, reason="smotekit console script not installed"
)
def test_installed_console_script_help():
    proc = subprocess.run([shutil.which("smotekit"), "--help"], capture_output=True, text=True)
    check_help(proc)

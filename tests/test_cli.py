import errno
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import smotekit
from smotekit import data, distance, model, resample
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


@pytest.fixture
def mixed(tmp_path):
    """Writes a 20 minority / 100 majority dataset, two continuous features
    and one nominal, plus its schema sidecar."""
    rng = np.random.default_rng(82)
    lines = ["x,y,g,cls"] + [
        f"{x!r},{y!r},{'abc'[i % 3]},{'pos' if i < 20 else 'neg'}"
        for i, (x, y) in enumerate(rng.normal(size=(120, 2)).tolist())
    ]
    data = tmp_path / "mixed.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "mixed.schema.json"
    schema.write_text(
        json.dumps({"x": "continuous", "y": "continuous", "g": "nominal", "cls": "class"}),
        encoding="utf-8",
    )
    return data, schema


@pytest.fixture
def large_mixed(tmp_path):
    """Writes a 500 minority / 3,600 majority dataset of two continuous
    features and one nominal, plus its schema sidecar: at 900 % its
    augmented CSV and provenance sidecar are past 4 write chunks each."""
    rng = np.random.default_rng(84)
    lines = ["x,y,g,cls"] + [
        f"{x!r},{y!r},{'abcde'[i % 5]},{'pos' if i < 500 else 'neg'}"
        for i, (x, y) in enumerate(rng.normal(size=(4100, 2)).tolist())
    ]
    data = tmp_path / "large.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "large.schema.json"
    schema.write_text(
        json.dumps({"x": "continuous", "y": "continuous", "g": "nominal", "cls": "class"}),
        encoding="utf-8",
    )
    return data, schema


@pytest.fixture
def nominal(tmp_path):
    """Writes a 20 minority / 60 majority dataset of three nominal features
    plus its schema sidecar."""
    rng = np.random.default_rng(83)
    lines = ["a,b,c,cls"] + [
        ",".join([*(str(v) for v in row), "pos" if i < 20 else "neg"])
        for i, row in enumerate(rng.integers(0, 4, size=(80, 3)).tolist())
    ]
    data = tmp_path / "nominal.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "nominal.schema.json"
    schema.write_text(
        json.dumps({"a": "nominal", "b": "nominal", "c": "nominal", "cls": "class"}),
        encoding="utf-8",
    )
    return data, schema


def data_args(toy):
    data, schema = toy
    return ["--data", str(data), "--schema", str(schema), "--minority", "pos"]


def tree_bytes(root):
    """Relative path to bytes of every file under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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


# (augmented CSV, provenance sidecar) sha256 per (subcommand, --gap-mode)
RESAMPLE_DIGESTS = {
    ("smote", "per-attribute"): (
        "b10e28adbabbc7b371a1b42e721b1efb6b9c94d0aae892e50015ee11f53f160a",
        "0b5a2f2cc7499c678265754a762cd8fbf1d669fb19356af7ab6289c064d91f31",
    ),
    ("smote", "shared"): (
        "5ccc800e8c09e01cbd63f0778d85543422217abfe8e41658d359835a03a0b48b",
        "ee6c1fd80ac57f7fb627c2bd4e5d2235c582acb9358ed32548a45f90ec7ee260",
    ),
    ("smote-nc", "per-attribute"): (
        "1d1fbaa275a186a5753d3d8ce1df77d0674c2b90893b9928f51be837e77c08d8",
        "e02dc93e16371f9437e120a63ba1e621c3f5dd9a88e310510a6ac590e442150d",
    ),
    ("smote-nc", "shared"): (
        "77e06ce9ff35b7c9c1282a2f53d423889174d52613a290427439c4a56640fb79",
        "5d92eeaa031cce1c51e0028478786e9d516e6c6406ea2cd55e87efbcaa9e46fd",
    ),
    # no continuous feature, so the gap mode draws nothing
    ("smote-n", "per-attribute"): (
        "098469fbc177d68aadfb2acdbe0f96945334df275eccb39d0027178201844cd9",
        "530b663643f022204ef8de0c914a1830a03d8765245e3c323eb6edf8c539f954",
    ),
    ("smote-n", "shared"): (
        "098469fbc177d68aadfb2acdbe0f96945334df275eccb39d0027178201844cd9",
        "530b663643f022204ef8de0c914a1830a03d8765245e3c323eb6edf8c539f954",
    ),
}


@pytest.mark.parametrize("gap_mode", ["per-attribute", "shared"])
@pytest.mark.parametrize(
    "command, data", [("smote", "toy"), ("smote-nc", "mixed"), ("smote-n", "nominal")]
)
def test_resample_bytes_are_pinned(request, tmp_path, command, data, gap_mode):
    # Interpolated values are otherwise checked only to 1 ulp. These digests
    # may change only together with a CHANGES.md entry that records an
    # intended change of output.
    out = tmp_path / "aug"
    argv = [command, *data_args(request.getfixturevalue(data)), "--over", "500", "--under", "150"]
    argv += ["--k", "3", "--seed", "13", "--gap-mode", gap_mode]
    assert main([*argv, "--out", str(out)]) == 0
    stem = out / f"augmented_{command.replace('-', '_')}_o500_u150"
    digests = tuple(
        hashlib.sha256(Path(f"{stem}{suffix}").read_bytes()).hexdigest()
        for suffix in (".csv", ".provenance.jsonl")
    )
    assert digests == RESAMPLE_DIGESTS[(command, gap_mode)]


def test_undersample_subcommand(toy, tmp_path):
    out = tmp_path / "under"
    rc = main(["undersample", *data_args(toy), "--under", "100", "--out", str(out)])
    assert rc == 0
    ds = load_csv(out / "undersampled_u100.csv", SCHEMA, "pos")
    assert ds.n_minority == 20
    assert ds.n_majority == 20


@pytest.mark.parametrize(
    "command, flag, value",
    [("smote", "--over", ""), ("replicate", "--over", ","), ("undersample", "--under", ",")],
)
def test_an_empty_percent_list_is_exit_2(toy, tmp_path, capsys, command, flag, value):
    """A resample command with no --over percent, or undersample with no
    --under percent, would write nothing: a configuration error naming the
    flag, before the output directory is made."""
    out = tmp_path / "out"
    assert main([command, *data_args(toy), flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {flag} lists no percent\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("smote", ["--over", "100,-5"]),
        ("smote", ["--over", "100", "--under", "50,-5"]),
        ("replicate", ["--over", "100,-5"]),
        ("undersample", ["--under", "50,-5"]),
        ("smote", ["--over", "100,100"]),
        ("smote", ["--over", "100", "--under", "50,50"]),
        ("undersample", ["--under", "50,50"]),
    ],
    ids=[
        "smote-over-negative", "smote-under-negative", "replicate-over-negative", "undersample-negative",
        "smote-over-repeated", "smote-under-repeated", "undersample-repeated",
    ],
)
def test_a_negative_or_repeated_percent_is_exit_2(toy, tmp_path, capsys, command, flags):
    """Checked before any file is written or listed: earlier percents of the
    list would otherwise be written first, and a repeated one twice."""
    out = tmp_path / "out"
    assert main([command, *data_args(toy), *flags, "--out", str(out)]) == 2
    flag, values = flags[-2:]
    listed = [int(v) for v in values.split(",")]
    err = f"configuration error: {flag} percents must be distinct and not negative, got {listed}\n"
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, written",
    [
        ("smote", ["--over", "0,100", "--under", "0"], ["augmented_smote_o0_u0", "augmented_smote_o100_u0"]),
        ("undersample", ["--under", "0"], ["undersampled_u0"]),
    ],
)
def test_a_zero_percent_resamples_nothing(toy, tmp_path, command, flags, written):
    # 0 keeps its meaning beside the negative-percent check: no over- or
    # under-sampling, and a file named for it
    out = tmp_path / "out"
    assert main([command, *data_args(toy), *flags, "--out", str(out)]) == 0
    assert sorted(p.stem.split(".")[0] for p in out.glob("*.csv")) == written
    ds = load_csv(out / f"{written[0]}.csv", SCHEMA, "pos")
    assert (ds.n_minority, ds.n_majority) == (20, 60)


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


def assert_not_utf8_is_exit_3(capsys, path, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith(f"data error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def test_a_data_file_that_is_not_utf8_is_exit_3(mixed, tmp_path, capsys):
    data, schema = mixed
    data.write_bytes(data.read_bytes() + b"0.5,0.5,\xff,pos\n")
    argv = ["smote-nc", *data_args(mixed), "--over", "100", "--out", str(tmp_path / "x")]
    assert_not_utf8_is_exit_3(capsys, data, argv)


def test_a_schema_file_that_is_not_utf8_is_exit_3(toy, tmp_path, capsys):
    data, schema = toy
    schema.write_bytes(b'{"x": "continuous", "y": "\xff", "cls": "class"}')
    argv = ["undersample", *data_args(toy), "--under", "100", "--out", str(tmp_path / "x")]
    assert_not_utf8_is_exit_3(capsys, schema, argv)


def test_a_points_file_that_is_not_utf8_is_exit_3(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_bytes(b"family,fp_rate,tp_rate\nalpha,10,80\n\xff,20,90\n")
    argv = ["evaluate", "--points", str(points), "--out", str(tmp_path / "e")]
    assert_not_utf8_is_exit_3(capsys, points, argv)


def test_a_manifest_that_is_not_utf8_is_exit_2(toy, tmp_path, capsys):
    # a manifest is configuration, so its bad bytes are a configuration error
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"config": {"k": "\xff"}}')
    rc = main(["experiment", "--from-manifest", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path} is not valid JSON: 'utf-8' codec")


@pytest.mark.parametrize("argv", [["smote", "--over", "1,x"], ["experiment", "--under", "10,x"]])
def test_a_percent_that_is_no_integer_is_argparse_exit_2(toy, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([argv[0], *data_args(toy), *argv[1:], "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert f"expected a comma-separated integer list, got '{argv[2]}'" in capsys.readouterr().err


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


def test_evaluate_skips_a_byte_order_mark(tmp_path, capsys):
    """A points file with a UTF-8 byte-order mark evaluates as the file
    without it, and the reports written carry no mark."""
    text = "family,tag,fp_rate,tp_rate\nalpha,a1,0,0\nalpha,a2,10,80\nbeta,b1,30,90\n"
    for name, prefix in (("plain", ""), ("marked", "\ufeff")):
        points = tmp_path / f"{name}.csv"
        points.write_text(prefix + text, encoding="utf-8")
        assert main(["evaluate", "--points", str(points), "--out", str(tmp_path / name)]) == 0
    reports = [tree_bytes(tmp_path / name) for name in ("plain", "marked")]
    assert reports[0] == reports[1]
    assert not any(data.startswith(b"\xef\xbb\xbf") for data in reports[0].values())


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


@pytest.mark.parametrize(
    "rows, code, shown",
    [
        # line 3 is blank and skipped, but still counted
        ("alpha,0,0\n\nalpha,101,80\n", 3, "line 4: fp_rate must lie in [0, 100], got 101.0"),
        ("", 3, "no points"),
        ("alpha,0,0\n\nalpha,10,80\n", 0, "alpha: auc=0.850000 (8500)"),
    ],
    ids=["rate-101", "header-only", "blank-line"],
)
def test_evaluate_reads_points_line_by_line(tmp_path, capsys, rows, code, shown):
    points = tmp_path / "points.csv"
    points.write_text(f"family,fp_rate,tp_rate\n{rows}", encoding="utf-8")
    assert main(["evaluate", "--points", str(points), "--out", str(tmp_path / "e")]) == code
    printed = capsys.readouterr()
    assert shown in (printed.err if code else printed.out)


@pytest.mark.parametrize(
    "argv",
    [
        ["smote", "--over", "100"],
        ["replicate", "--over", "100"],  # replication searches no neighbors
        ["smote", "--over", "0"],  # no synthesis at all
    ],
    ids=["smote-over-100", "replicate-over-100", "smote-over-0"],
)
def test_resample_rejects_k_below_one(toy, tmp_path, capsys, argv):
    rc = main([*argv, *data_args(toy), "--k", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "k must be at least 1, got 0" in capsys.readouterr().err
    assert not any((tmp_path / "x").glob("*"))


def test_resample_searches_neighbors_once_per_file(mixed, tmp_path, monkeypatch):
    data, schema = mixed
    calls = []
    real_pairwise = distance.NcMetric.pairwise

    def counting_pairwise(self, ds, rows=slice(None), out=None):
        calls.append(len(ds))
        return real_pairwise(self, ds, rows, out)

    monkeypatch.setattr(distance.NcMetric, "pairwise", counting_pairwise)
    out = tmp_path / "aug"
    argv = ["smote-nc", "--data", str(data), "--schema", str(schema), "--minority", "pos"]
    assert main([*argv, "--over", "100,200,300", "--out", str(out)]) == 0
    assert calls == [20]  # three augmented files, one search
    for over in (100, 200, 300):
        path = out / f"augmented_smote_nc_o{over}_u0.csv"
        written = load_csv(path, FeatureSchema.from_json(schema), "pos")
        assert (written.n_minority, written.n_majority) == (20 + over // 100 * 20, 100)


def test_resample_votes_once_per_file(nominal, tmp_path, monkeypatch):
    calls = []
    real_vote = resample._vote

    def counting_vote(codes, lists, base_votes):
        calls.append(len(codes))
        return real_vote(codes, lists, base_votes)

    monkeypatch.setattr(resample, "_vote", counting_vote)
    out = tmp_path / "aug"
    argv = ["smote-n", *data_args(nominal), "--over", "100,200,300", "--under", "50,100"]
    assert main([*argv, "--out", str(out)]) == 0
    assert calls == [20]  # six augmented files, one vote over the 20 minority rows
    assert len(list(out.glob("augmented_smote_n_*.csv"))) == 6


def test_resample_holds_one_resampled_set_at_a_time(tmp_path):
    # the --over 2000 set is released before the --over 4000 one is built
    rng = np.random.default_rng(84)
    lines = ["x,y,z,w,g,h,cls"] + [
        ",".join([*map(repr, x), "abc"[i % 3], "de"[i % 2], "pos" if i < 200 else "neg"])
        for i, x in enumerate(rng.normal(size=(600, 4)).tolist())
    ]
    data = tmp_path / "mixed.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema = tmp_path / "mixed.schema.json"
    kinds = dict.fromkeys("xyzw", "continuous") | {"g": "nominal", "h": "nominal"}
    schema.write_text(json.dumps(kinds | {"cls": "class"}), encoding="utf-8")

    def peak(overs):
        argv = ["smote-nc", *data_args((data, schema)), "--over", overs]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / overs)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("4000")  # the first run also allocates one-time caches
    alone = peak("4000")
    assert peak("2000,4000") <= 1.1 * alone


def small_grid_manifest(**settings):
    grid = {"families": ["plain_under"], "under_percents": [100], "n_folds": 2}
    return json.dumps({"config": {**grid, **settings}})


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


@pytest.mark.parametrize(
    "flags",
    [["--prior-multiplier", "100"], ["--families", "priors_sweep", "--prior-multipliers", "1,100"]],
    ids=["prior-multiplier", "priors_sweep"],
)
def test_a_library_warning_prints_as_one_warning_line(toy, tmp_path, capsys, flags):
    handler = warnings.showwarning
    assert main([*experiment_args(toy, tmp_path / "report"), *flags]) == 0
    assert capsys.readouterr().err == (
        "warning: prior_multiplier 100.0 is outside the usual [1, 50] sweep range\n"
    )
    assert warnings.showwarning is handler
    with pytest.warns(UserWarning, match="outside the usual"):  # library callers
        model.ClassifierSpec(prior_multiplier=100)


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


def test_experiment_flags_land_on_their_fields(toy, tmp_path):
    # every grid and classifier flag at a value other than its default
    script = tmp_path / "scorer.py"  # scores every test row 0.5
    script.write_text(
        "import sys\nn = sum(1 for _ in open(sys.argv[2])) - 1\n"
        "open(sys.argv[3], 'w').write('0.5\\n' * n)\n",
        encoding="utf-8",
    )
    scorer = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    out = tmp_path / "report"
    argv = [
        "experiment", *data_args(toy),
        "--families", "smote_under,threshold_sweep",
        "--over", "150",
        "--under", "50,100",
        "--folds", "3",
        "--seed", "7",
        "--k", "2",
        "--variant", "replicate",
        "--classifier", "external",
        "--classifier-command", scorer,
        "--prior-multiplier", "2",
        "--threshold", "0.4",
        "--prior-multipliers", "3,4",
        "--thresholds", "0.6,0.2",
        "--no-raw-point",
        "--gap-mode", "shared",
        "--neighbor-mode", "distinct",
        "--under-basis", "post",
        "--out", str(out),
    ]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {
        "families": ["smote_under", "threshold_sweep"],
        "over_percents": [150],
        "under_percents": [50, 100],
        "k": 2,
        "n_folds": 3,
        "seed": 7,
        "variant": "replicate",
        "classifier": {
            "kind": "external", "prior_multiplier": 2.0, "threshold": 0.4, "command": scorer,
        },
        "prior_multipliers": [3.0, 4.0],
        "thresholds": [0.6, 0.2],
        "gap_mode": "shared",
        "neighbor_mode": "distinct",
        "under_basis": "post",
        "include_raw_point": False,
    }


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--k", "9"], "--k"),
        (["--k", "5"], "--k"),  # given with its default value: still given
        (["--folds", "3", "--seed", "99", "--no-raw-point"], "--folds, --seed, --no-raw-point"),
    ],
    ids=["k", "k-at-default", "several"],
)
def test_experiment_grid_flags_beside_manifest_are_exit_2(toy, tmp_path, capsys, extra, named):
    out_a = tmp_path / "a"
    assert main(experiment_args(toy, out_a)) == 0
    manifest = str(out_a / "manifest.json")
    capsys.readouterr()
    rc = main(["experiment", "--from-manifest", manifest, *extra, "--out", str(tmp_path / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {named} cannot be given with --from-manifest")
    assert not (tmp_path / "b").exists()
    # the same manifest with only --out still replays the original run
    out_c = tmp_path / "c"
    assert main(["experiment", "--from-manifest", manifest, "--out", str(out_c)]) == 0
    assert (out_c / "aucs.json").read_bytes() == (out_a / "aucs.json").read_bytes()


@pytest.mark.parametrize(
    "text, with_data",
    [
        (json.dumps({"config": 5}), True),
        (json.dumps({"config": {"classifier": {"bogus": 1}}}), True),
        (json.dumps({"config": {"k": "x"}}), True),
        (json.dumps({"config": {"gap_mode": "bogus"}}), True),
        (json.dumps(5), True),
        # without --data/--schema/--minority the CLI loads the manifest's dataset
        (json.dumps({"config": {}, "dataset": {"data": "x.csv"}}), False),
        (json.dumps({"config": {}, "dataset": 5}), False),
        ('{"config": {}, bogus}', True),
        # ill-typed settings, each in an otherwise small valid grid
        (small_grid_manifest(k=2.5), True),
        (small_grid_manifest(n_folds=3.0), True),
        (small_grid_manifest(families=["smote_under"], over_percents=[150.5]), True),
        (small_grid_manifest(classifier={"kind": "external", "command": 5}), True),
        (small_grid_manifest(include_raw_point="no"), True),
        (small_grid_manifest(under_percents=[True]), True),
        (small_grid_manifest(seed=1.5), True),
        # non-finite and boolean classifier values
        (small_grid_manifest(families=["priors_sweep"], prior_multipliers=[1, float("nan")]), True),
        (small_grid_manifest(families=["priors_sweep"], prior_multipliers=[float("inf")]), True),
        (small_grid_manifest(prior_multipliers=[True]), True),
        (small_grid_manifest(thresholds=[True]), True),
        (small_grid_manifest(thresholds=[0.5, False]), True),
        (small_grid_manifest(classifier={"prior_multiplier": float("nan")}), True),
        (small_grid_manifest(classifier={"prior_multiplier": float("inf")}), True),
        (small_grid_manifest(classifier={"prior_multiplier": True}), True),
        (small_grid_manifest(classifier={"threshold": True}), True),
    ],
    ids=[
        "config-not-object", "classifier-key", "k-not-int", "gap-mode", "not-object",
        "dataset-keys", "dataset-not-object", "not-json", "k-float", "n-folds-float",
        "over-float", "command-not-str", "raw-point-not-bool", "under-bool", "seed-float",
        "multipliers-nan", "multipliers-inf", "multipliers-bool", "thresholds-bool",
        "thresholds-false", "multiplier-nan", "multiplier-inf", "multiplier-bool", "threshold-bool",
    ],
)
def test_experiment_malformed_manifest_is_exit_2(toy, tmp_path, capsys, text, with_data):
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    rc = main(
        [
            "experiment",
            "--from-manifest", str(path),
            *(data_args(toy) if with_data else []),
            "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert str(path) in err


@pytest.mark.parametrize(
    "dataset", [{"path": "toy.csv"}, {"data": "x.csv"}, 5], ids=["free-form", "keys", "number"]
)
def test_experiment_manifest_dataset_is_ignored_with_data_flags(toy, tmp_path, dataset):
    # emit_report records whatever dataset_info it is given; the data flags replace it
    assert main(experiment_args(toy, tmp_path / "a")) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text(encoding="utf-8"))
    manifest["dataset"] = dataset
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "b"
    assert main(["experiment", "--from-manifest", str(path), *data_args(toy), "--out", str(out)]) == 0
    assert (out / "aucs.json").read_bytes() == (tmp_path / "a" / "aucs.json").read_bytes()


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


def test_experiment_smote_on_mixed_features_is_exit_2(mixed, tmp_path, capsys):
    rc = main(
        ["experiment", *data_args(mixed), "--variant", "smote", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "configuration error: smote takes all-continuous features, got mixed features\n"
    assert not (tmp_path / "x").exists()


def test_experiment_plain_under_on_mixed_features_needs_no_smote_shape(mixed, tmp_path):
    # over-sampling at 0 percent leaves the default smote variant unchecked
    out = tmp_path / "report"
    argv = ["experiment", *data_args(mixed), "--families", "plain_under", "--folds", "4"]
    assert main([*argv, "--out", str(out)]) == 0
    assert set(json.loads((out / "aucs.json").read_text("utf-8"))["aucs"]) == {"plain_under"}


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--data", "x.csv"], "--data, --schema, and --minority must be given together"),
        ([], "manifest records no dataset; pass --data/--schema/--minority"),
    ],
    ids=["partial-data-flags", "no-dataset"],
)
def test_experiment_manifest_without_a_dataset_is_exit_2(tmp_path, capsys, flags, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"config": {}}), encoding="utf-8")
    rc = main(["experiment", "--from-manifest", str(path), *flags, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "cause, message",
    [
        ("short-line", "toy.csv: line 3 has 2 fields, expected 3"),
        ("schema-not-json", "toy.schema.json is not valid JSON: "),
        ("scorer-exit", "external classifier exited 4: "),
    ],
)
def test_experiment_data_errors_are_exit_3(toy, tmp_path, capsys, cause, message):
    data, schema = toy
    argv = [*experiment_args(toy, tmp_path / "x")]
    if cause == "short-line":
        lines = data.read_text("utf-8").splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif cause == "schema-not-json":
        schema.write_text("x: continuous\n", encoding="utf-8")
    else:
        scorer = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(4)'"
        argv += ["--classifier", "external", "--classifier-command", scorer]
    rc = main(argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert message in err
    assert not (tmp_path / "x").exists()


@pytest.fixture
def far_mixed(mixed):
    """The ``mixed`` files with the minority's ``x`` at +-1e200: the
    minority's spread squares past the largest float."""
    data, schema = mixed
    lines = data.read_text("utf-8").splitlines()
    for i in range(1, 21):  # the 20 minority rows
        x, rest = lines[i].split(",", 1)
        lines[i] = f"{(-1) ** i * 1e200!r},{rest}"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data, schema


@pytest.fixture
def far_toy(toy):
    """The ``toy`` files with the minority's ``x`` at +-1e200: its squared
    Euclidean distances overflow."""
    data, schema = toy
    lines = data.read_text("utf-8").splitlines()
    for i in range(1, 21):  # the 20 minority rows
        x, rest = lines[i].split(",", 1)
        lines[i] = f"{(-1) ** i * 1e200!r},{rest}"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data, schema


MED_OVERFLOWS = "the minority's continuous values spread too far: Med inf has no finite square"
SPREAD_OVERFLOWS = (
    "the minority's continuous values spread too far: their squared spread "
    "overflows the float range"
)


def test_smote_nc_on_an_overflowing_spread_is_exit_3(far_mixed, tmp_path, capsys):
    rc = main(["smote-nc", *data_args(far_mixed), "--over", "100", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err == f"data error: {MED_OVERFLOWS}\n"


def test_smote_on_an_overflowing_spread_is_exit_3(far_toy, tmp_path, capsys):
    # before the search, so no distance overflows into the lists
    rc = main(["smote", *data_args(far_toy), "--over", "100", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err == f"data error: {SPREAD_OVERFLOWS}\n"
    assert not any((tmp_path / "x").glob("*"))


def half_scorer(tmp_path):
    """An external scorer command that scores every test row 0.5."""
    script = tmp_path / "scorer.py"
    script.write_text(
        "import sys\nn = sum(1 for _ in open(sys.argv[2])) - 1\n"
        "open(sys.argv[3], 'w').write('0.5\\n' * n)\n",
        encoding="utf-8",
    )
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


def test_experiment_skips_smote_nc_cells_of_an_overflowing_spread(far_mixed, tmp_path, capsys):
    # scored externally, as naive Bayes rejects these values
    # (test_experiment_variance_overflow_is_exit_3)
    argv = ["experiment", *data_args(far_mixed), "--variant", "smote_nc", "--folds", "2"]
    argv += ["--families", "smote_under,plain_under", "--over", "100", "--under", "100"]
    argv += ["--classifier", "external", "--classifier-command", half_scorer(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "report")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert f"warning: smote_under@100 cell over=100,under=100: fold 0: {MED_OVERFLOWS}" in err


def test_experiment_skips_smote_cells_of_an_overflowing_spread(far_toy, tmp_path, capsys):
    # each fold's training minority is checked before its search, as SMOTE-NC's Med is
    argv = ["experiment", *data_args(far_toy), "--variant", "smote", "--folds", "2"]
    argv += ["--families", "smote_under,plain_under", "--over", "100", "--under", "100"]
    argv += ["--classifier", "external", "--classifier-command", half_scorer(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "report")]) == 0
    err = capsys.readouterr().err
    assert f"warning: smote_under@100 cell over=100,under=100: fold 0: {SPREAD_OVERFLOWS}\n" in err
    assert "overflow encountered" not in err


def test_experiment_variance_overflow_is_exit_3(far_mixed, far_toy, tmp_path, capsys):
    # naive Bayes' variance of x overflows: the run ends at its first fit,
    # with no numpy overflow warning on the way, from SMOTE's search either
    for files, variant in ((far_mixed, "smote_nc"), (far_toy, "smote")):
        argv = ["experiment", *data_args(files), "--variant", variant, "--folds", "2"]
        argv += ["--families", "smote_under,plain_under", "--over", "100", "--under", "100"]
        assert main([*argv, "--out", str(tmp_path / "report")]) == 3
        err = capsys.readouterr().err
        assert "warning: overflow" not in err
        assert err == (
            "data error: continuous feature 'x' spreads too far: its naive Bayes variance overflows\n"
        )


def test_experiment_scorer_past_its_time_limit_is_exit_3(toy, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(model, "_SCORER_TIMEOUT_S", 0.2)
    scorer = f"{shlex.quote(sys.executable)} -c 'import time; time.sleep(30)'"
    argv = [*experiment_args(toy, tmp_path / "x"), "--classifier", "external"]
    start = time.perf_counter()
    assert main([*argv, "--classifier-command", scorer]) == 3
    assert time.perf_counter() - start < 10  # killed, not waited for
    err = capsys.readouterr().err
    assert err == f"data error: external classifier {scorer!r} ran past 0.2 s\n"
    assert not (tmp_path / "x").exists()


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


def test_experiment_thin_training_minority_skips_its_cells(tmp_path, capsys):
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
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: smote_under@100 cell over=100,under=100: fold 0: training minority has "
        "1 row(s); smote needs at least 2 minority rows for neighbor search"
    ]
    points = (tmp_path / "x" / "roc_points.csv").read_text("utf-8")
    assert "smote_under@100,raw," in points
    assert "plain_under,under=100," in points


@pytest.mark.parametrize(
    "families, under, extra, rc, err",
    [
        ("smote_under,plain_under", "100,100000", [], 0, [
            "warning: smote_under@100 cell over=100,under=100000: "
            "under-sampling emptied the majority class",
            "warning: plain_under cell under=100000: under-sampling emptied the majority class",
        ]),
        ("plain_under", "100000", ["--no-raw-point"], 2, [
            "warning: plain_under cell under=100000: under-sampling emptied the majority class",
            "configuration error: nothing to report: no curves were produced",
        ]),
    ],
)
def test_experiment_reports_each_skipped_cell_once(toy, tmp_path, families, under, extra, rc, err):
    # run as a process: the stderr a user sees, with no test log capture
    args = experiment_args(toy, tmp_path / "report") + extra
    args[args.index("--families") + 1] = families
    args[args.index("--under") + 1] = under
    proc = subprocess.run(
        [sys.executable, "-m", "smotekit.cli", *args], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.splitlines() == err


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


def console_wrapper():
    """The ``python -c`` source of the wrapper pip generates for the
    ``smotekit`` entry of [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text("utf-8"))["project"]["scripts"]
    assert "smotekit" in scripts
    module, _, func = scripts["smotekit"].partition(":")
    return f"import sys\nfrom {module} import {func}\nsys.exit({func}())"


def child_env():
    """The environment of a smotekit child process: the smotekit this suite
    imported, installed or not, on its path, and PYTHONUNBUFFERED unset, so
    stdout into a file or pipe is block-buffered as a user's is and output
    the program fails to flush is lost."""
    env = {**os.environ, "PYTHONPATH": str(Path(smotekit.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_console_script_help():
    """The [project.scripts] entry point behaves as pip's generated wrapper
    would, and prints the same help as `python -m smotekit.cli`."""
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", console_wrapper(), "--help"], capture_output=True, text=True, env=env
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


def smote_nc_args(mixed, out):
    return [
        "smote-nc", *data_args(mixed), "--over", "100,200", "--under", "0,100",
        "--k", "3", "--seed", "4", "--out", str(out),
    ]


def split_smote_nc_args(large_mixed, out):
    return ["smote-nc", *data_args(large_mixed), "--over", "900", "--k", "3", "--out", str(out)]


@pytest.mark.parametrize(
    "fixture, make_argv",
    [("toy", experiment_args), ("mixed", smote_nc_args), ("large_mixed", split_smote_nc_args)],
    ids=["experiment", "smote-nc", "smote-nc-split"],
)
def test_process_writes_what_main_writes(request, tmp_path, capsys, fixture, make_argv):
    """`python -m smotekit.cli`, which ends without interpreter teardown,
    writes the stdout, stderr and files of an in-process main() run, with
    stdout into a file, block-buffered. The split case's files are written
    in parts by forked children, on a host with two or more usable CPUs."""
    out = tmp_path / "out"
    argv = make_argv(request.getfixturevalue(fixture), out)
    assert main(argv) == 0
    shown = capsys.readouterr()
    files = tree_bytes(out)
    if fixture == "large_mixed":
        assert min(len(text.splitlines()) for text in files.values()) >= 4 * 1024
    shutil.rmtree(out)
    stdout = tmp_path / "stdout.txt"
    with open(stdout, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "smotekit.cli", *argv],
            stdout=fh, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
    assert proc.returncode == 0, proc.stderr
    assert shown.out and stdout.read_bytes() == shown.out.encode()
    assert proc.stderr == shown.err
    assert tree_bytes(out) == files


@pytest.mark.parametrize(
    "wrapped, flag, value, rc",
    [
        (False, "--data", "nope.csv", 3),
        (False, "--families", "mystery", 2),
        (True, "--data", "nope.csv", 3),
    ],
    ids=["module-data-error", "module-config-error", "console-script-data-error"],
)
def test_process_error_exits_keep_code_and_stderr(toy, tmp_path, capsys, wrapped, flag, value, rc):
    """A data error (3) and a configuration error (2) leave the process,
    run as a module or through the console-script wrapper, with main()'s
    exit code and stderr lines."""
    argv = experiment_args(toy, tmp_path / "x")
    argv[argv.index(flag) + 1] = str(tmp_path / value) if flag == "--data" else value
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert err.startswith("data error: " if rc == 3 else "configuration error: ")
    entry = ["-c", console_wrapper()] if wrapped else ["-m", "smotekit.cli"]
    proc = subprocess.run(
        [sys.executable, *entry, *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == rc
    assert proc.stderr == err
    assert proc.stdout == ""


def smote_args(toy, out):
    return ["smote", *data_args(toy), "--over", "100,200", "--out", str(out)]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_unwritable_stdout_is_exit_1(toy, tmp_path, capsys, sink, unbuffered):
    """A stdout that cannot be written, buffered or not, gives exit 1 and one
    stderr line; the report files, and every augmented file of a resample
    command, are written all the same."""
    if sink == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    env = child_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for make_argv in (experiment_args, smote_args):
        out = tmp_path / "out"
        argv = make_argv(toy, out)
        assert main(argv) == 0
        capsys.readouterr()
        files = tree_bytes(out)
        shutil.rmtree(out)
        if sink == "dev-full":
            stdout, code = open("/dev/full", "wb"), errno.ENOSPC
        else:
            reader, writer = os.pipe()
            os.close(reader)  # closed before the child writes: every write is EPIPE
            stdout, code = open(writer, "wb"), errno.EPIPE
        with stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "smotekit.cli", *argv],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 1, argv[0]
        assert proc.stderr == f"error: cannot write to standard output: [Errno {code}] {os.strerror(code)}\n"
        assert tree_bytes(out) == files, argv[0]
        shutil.rmtree(out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_help_into_a_full_device_is_exit_1():
    """Buffered --help, whose text only fails to reach stdout at the flush,
    gives exit 1 and the one stderr line of any unwritable stdout."""
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "smotekit.cli", "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
    code = errno.ENOSPC
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write to standard output: [Errno {code}] {os.strerror(code)}\n"


@pytest.mark.parametrize(
    "error, rc",
    [(ValueError("no text for this slice"), 2), (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), 3)],
    ids=["ValueError", "OSError"],
)
def test_failed_later_part_exits_as_one_part_does(toy, tmp_path, capsys, monkeypatch, error, rc):
    """A file whose last part fails in a forked child gives the exit code,
    output and files of the same failure written in one part."""
    write_lines = data._write_lines

    def failing(path, header, n_lines, chunk_text):
        def text(part):
            if part.start >= 64:  # the third of three parts of 13 8-line chunks
                raise error
            return chunk_text(part)

        write_lines(path, header, n_lines, text)

    monkeypatch.setattr(data, "_write_lines", failing)
    monkeypatch.setattr(resample, "_write_lines", failing)
    monkeypatch.setattr(data, "_CHUNK_LINES", 8)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    outcomes = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        out = tmp_path / f"out{cpus}"
        code = main(["smote", *data_args(toy), "--over", "100", "--out", str(out)])
        outcomes.append((code, capsys.readouterr(), sorted(p.name for p in out.iterdir())))
    assert outcomes[0][0] == rc
    assert outcomes[1] == outcomes[0]
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

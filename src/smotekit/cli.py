"""Command line interface.

Subcommands: smote, smote-nc, smote-n, replicate (write augmented datasets
with provenance sidecars), undersample, evaluate (ROC points file to
AUC/hull), and experiment (full grid run). Exit codes: 0 success, 2
configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .data import FeatureSchema, load_csv, save_csv
from .errors import ConfigError, DataError
from .evaluate import RocCurve, RocPoint, auc, auc_e4, auc_summary, convex_hull, write_hull_csv, write_points_csv, write_summary_json
from .model import ClassifierSpec
from .pipeline import ExperimentConfig, emit_report, load_manifest, run_experiment
from .resample import apply_plan_detailed, variant_neighbors, write_provenance


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")


def _add_data_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--data", required=required, help="input CSV with a header row")
    parser.add_argument(
        "--schema",
        required=required,
        help="sidecar JSON mapping column name to continuous|nominal|class",
    )
    parser.add_argument(
        "--minority", required=required, help="class token of the minority class"
    )


def _add_resample_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    parser.add_argument("--k", type=int, default=5, help="nearest neighbors (default 5)")
    parser.add_argument(
        "--gap-mode",
        choices=["per-attribute", "shared"],
        default="per-attribute",
        help="uniform draws per synthetic row: one per coordinate, or one shared",
    )
    parser.add_argument(
        "--neighbor-mode",
        choices=["with-replacement", "distinct"],
        default="with-replacement",
        help="how repeat neighbor picks for one base are drawn",
    )
    parser.add_argument(
        "--under-basis",
        choices=["pre", "post"],
        default="pre",
        help="size under-sampling from the original or the augmented minority count",
    )
    parser.add_argument("--out", required=True, help="output directory")


def _load(args) -> tuple:
    schema = FeatureSchema.from_json(args.schema)
    ds = load_csv(args.data, schema, args.minority)
    info = {
        "data": str(Path(args.data).resolve()),
        "schema": str(Path(args.schema).resolve()),
        "minority": args.minority,
    }
    return ds, info


def _save(dataset, csv_path: Path) -> None:
    save_csv(dataset, csv_path)
    print(f"{csv_path}  ({dataset.n_minority} minority / {dataset.n_majority} majority rows)")


def _cmd_resample(args, variant: str) -> int:
    ds, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    unders = args.under if args.under else [0]
    neighbors = None
    if variant != "replicate" and any(over > 0 for over in args.over):
        # one search serves every --over x --under pair of this file
        neighbors = variant_neighbors(ds, args.k, variant)
    for over in args.over:
        for under in unders:
            detail = apply_plan_detailed(
                ds,
                over,
                under,
                args.k,
                args.seed,
                variant,
                gap_mode=args.gap_mode,
                neighbor_mode=args.neighbor_mode,
                under_basis=args.under_basis,
                neighbors=neighbors,
            )
            stem = f"augmented_{variant}_o{over}_u{under}"
            _save(detail.dataset, out / f"{stem}.csv")
            write_provenance(out / f"{stem}.provenance.jsonl", detail.batch, variant)
    return 0


def _cmd_undersample(args) -> int:
    ds, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for under in args.under:
        # over_percent 0 skips synthesis entirely, so the variant is inert here
        detail = apply_plan_detailed(ds, 0, under, 1, args.seed, "smote")
        _save(detail.dataset, out / f"undersampled_u{under}.csv")
    return 0


def _read_points_csv(path: str) -> list[RocCurve]:
    curves: dict[str, list[RocPoint]] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"family", "fp_rate", "tp_rate"} <= set(header):
            raise DataError(
                f"{path}: need columns family, fp_rate, tp_rate (optionally tag)"
            )
        for line_no, fields in enumerate(reader, start=2):
            if not fields:  # a blank line
                continue
            if len(fields) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(fields)} fields, expected {len(header)}"
                )
            record = dict(zip(header, fields))
            try:
                point = RocPoint(
                    fp_rate=float(record["fp_rate"]),
                    tp_rate=float(record["tp_rate"]),
                    tag=record.get("tag") or "",
                )
            except ValueError as exc:
                raise DataError(f"{path}: line {line_no}: {exc}") from None
            family = record["family"]
            if family not in curves:
                curves[family] = []
                order.append(family)
            curves[family].append(point)
    if not curves:
        raise DataError(f"{path}: no points")
    return [RocCurve(family, tuple(curves[family])) for family in order]


def _print_aucs(aucs: dict) -> None:
    for family, value in sorted(aucs.items()):
        print(f"{family}: auc={value:.6f} ({auc_e4(value)})")


def _cmd_evaluate(args) -> int:
    curves = _read_points_csv(args.points)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    aucs = {curve.family: auc(curve, anchor=args.auc_anchor) for curve in curves}
    hull = convex_hull(curves)
    write_points_csv(out / "roc_points.csv", curves, hull)
    write_hull_csv(out / "hull.csv", hull)
    write_summary_json(out / "aucs.json", auc_summary(aucs, hull, args.auc_anchor))
    _print_aucs(aucs)
    return 0


def _cmd_experiment(args) -> int:
    if args.from_manifest:
        cfg, info = load_manifest(args.from_manifest)
        if args.data or args.schema or args.minority:
            if not (args.data and args.schema and args.minority):
                raise ConfigError(
                    "--data, --schema, and --minority must be given together"
                )
            info = None
        if info is None:
            if not args.data:
                raise ConfigError(
                    "manifest records no dataset; pass --data/--schema/--minority"
                )
            ds, info = _load(args)
        else:
            keys = ("data", "schema", "minority")
            if not isinstance(info, dict) or not all(isinstance(info.get(k), str) for k in keys):
                raise ConfigError(f"{args.from_manifest}: dataset lacks data/schema/minority paths")
            schema = FeatureSchema.from_json(info["schema"])
            ds = load_csv(info["data"], schema, info["minority"])
    else:
        for name in ("data", "schema", "minority"):
            if getattr(args, name) is None:
                raise ConfigError(f"--{name} is required without --from-manifest")
        ds, info = _load(args)
        classifier = ClassifierSpec(
            kind=args.classifier,
            prior_multiplier=args.prior_multiplier,
            threshold=args.threshold,
            command=args.classifier_command,
        )
        cfg = ExperimentConfig(
            families=tuple(args.families.split(",")),
            over_percents=tuple(args.over),
            under_percents=tuple(args.under),
            k=args.k,
            n_folds=args.folds,
            seed=args.seed,
            variant=args.variant,
            classifier=classifier,
            prior_multipliers=tuple(args.prior_multipliers),
            thresholds=tuple(args.thresholds),
            gap_mode=args.gap_mode,
            neighbor_mode=args.neighbor_mode,
            under_basis=args.under_basis,
            include_raw_point=not args.no_raw_point,
        )
    result = run_experiment(ds, cfg)
    paths = emit_report(result, args.out, dataset_info=info)
    _print_aucs(result.aucs)
    print(result.statement)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"report written to {Path(args.out).resolve()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smotekit",
        description="Minority over-sampling, majority under-sampling, and ROC evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, variant in (
        ("smote", "smote"),
        ("smote-nc", "smote_nc"),
        ("smote-n", "smote_n"),
        ("replicate", "replicate"),
    ):
        p = sub.add_parser(name, help=f"write datasets augmented by {name}")
        _add_data_flags(p)
        p.add_argument(
            "--over",
            type=_int_list,
            required=True,
            help="over-sampling percents, e.g. 100,200,300",
        )
        p.add_argument(
            "--under",
            type=_int_list,
            default=[],
            help="optional under-sampling percents to combine with each --over value",
        )
        _add_resample_flags(p)
        p.set_defaults(func=lambda a, v=variant: _cmd_resample(a, v))

    p = sub.add_parser("undersample", help="write under-sampled datasets")
    _add_data_flags(p)
    p.add_argument("--under", type=_int_list, required=True, help="under-sampling percents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_undersample)

    p = sub.add_parser("evaluate", help="AUC and convex hull from a ROC points CSV")
    p.add_argument("--points", required=True, help="CSV with family,fp_rate,tp_rate[,tag]")
    p.add_argument(
        "--auc-anchor",
        choices=["origin", "leftmost"],
        default="origin",
        help="prepend a (0,0) anchor (default) or integrate from the leftmost point",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run resampling grids under cross-validation")
    _add_data_flags(p, required=False)
    p.add_argument(
        "--families",
        default="smote_under,plain_under",
        help="comma list of smote_under,plain_under,replicate,priors_sweep,threshold_sweep",
    )
    p.add_argument("--over", type=_int_list, default=list(ExperimentConfig().over_percents))
    p.add_argument("--under", type=_int_list, default=list(ExperimentConfig().under_percents))
    p.add_argument("--folds", type=int, default=10)
    p.add_argument(
        "--variant",
        choices=["smote", "smote_nc", "smote_n", "replicate"],
        default="smote",
        help="synthesis variant used by the smote_under family",
    )
    p.add_argument("--classifier", choices=["naive_bayes", "external"], default="naive_bayes")
    p.add_argument(
        "--classifier-command",
        default=None,
        help="external scorer invoked as: CMD train.csv test.csv scores.txt",
    )
    p.add_argument("--prior-multiplier", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument(
        "--prior-multipliers",
        type=_float_list,
        default=list(ExperimentConfig().prior_multipliers),
        help="multipliers swept by the priors_sweep family",
    )
    p.add_argument(
        "--thresholds",
        type=_float_list,
        default=list(ExperimentConfig().thresholds),
        help="thresholds swept by the threshold_sweep family",
    )
    p.add_argument(
        "--no-raw-point",
        action="store_true",
        help="do not prepend the unresampled operating point to each curve",
    )
    p.add_argument(
        "--from-manifest",
        default=None,
        help="rerun from a manifest.json written by a previous experiment",
    )
    _add_resample_flags(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

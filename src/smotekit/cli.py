"""Command line interface.

Subcommands: smote, smote-nc, smote-n, replicate (write augmented datasets
with provenance sidecars), undersample, evaluate (ROC points file to
AUC/hull), and experiment (full grid run). Exit codes: 0 success, 1
standard output cannot be written, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from pathlib import Path

from .data import FeatureSchema, load_csv, save_csv
from .errors import ConfigError, DataError
from .evaluate import ANCHORS, RocCurve, RocPoint, auc, auc_e4, auc_summary, convex_hull, write_hull_csv, write_points_csv, write_summary_json
from .model import CLASSIFIER_KINDS, ClassifierSpec
from .pipeline import FAMILIES, ExperimentConfig, emit_report, load_manifest, run_experiment
from .resample import GAP_MODES, NEIGHBOR_MODES, UNDER_BASES, VARIANTS, apply_plan_detailed, synthesis_source, write_provenance

_EXIT_STDOUT = 1  # standard output cannot be written
_DEFAULTS = ExperimentConfig()  # the experiment and resample flags' defaults
# experiment flags that keep their meaning beside --from-manifest
_MANIFEST_FLAGS = ("--data", "--schema", "--minority", "--out", "--from-manifest")


def _comma_list(cast, noun: str):
    """An argparse type: a comma-separated list of ``cast`` values."""
    def parse(text: str) -> list:
        try:
            return [cast(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated {noun} list, got {text!r}")
    return parse


_int_list = _comma_list(int, "integer")
_float_list = _comma_list(float, "float")


def _noting(action_class):
    """``action_class`` that also appends its option to ``namespace.given``,
    so a flag given with its default value still counts as given."""
    class Noting(action_class):
        def __call__(self, parser, namespace, values, option_string=None):
            super().__call__(parser, namespace, values, option_string)
            namespace.given += (self.option_strings[0],)
    return Noting


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
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="root RNG seed (default %(default)s)")
    parser.add_argument("--k", type=int, default=_DEFAULTS.k, help="nearest neighbors (default %(default)s)")
    parser.add_argument(
        "--gap-mode",
        choices=GAP_MODES,
        default=_DEFAULTS.gap_mode,
        help="uniform draws per synthetic row: one per coordinate, or one shared",
    )
    parser.add_argument(
        "--neighbor-mode",
        choices=NEIGHBOR_MODES,
        default=_DEFAULTS.neighbor_mode,
        help="how repeat neighbor picks for one base are drawn",
    )
    parser.add_argument(
        "--under-basis",
        choices=UNDER_BASES,
        default=_DEFAULTS.under_basis,
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


class _StdoutFailed(Exception):
    """A write to standard output failed; the OSError is its cause."""


def _say(text: str) -> None:
    """Print ``text`` to standard output, where a failed write raises
    :class:`_StdoutFailed`, not the OSError a failed file write raises."""
    try:
        print(text)
    except OSError as exc:
        raise _StdoutFailed from exc


def _report_stdout_failure(exc: Exception) -> int:
    print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
    return _EXIT_STDOUT


def _listing(dataset, csv_path: Path) -> str:
    return f"{csv_path}  ({dataset.n_minority} minority / {dataset.n_majority} majority rows)"


def _check_percents(flag: str, values: list, required: bool = True) -> None:
    """Reject ``flag``'s percent list before anything is read or written: an
    empty one when ``required``, a negative percent or a repeated one."""
    if required and not values:
        raise ConfigError(f"{flag} lists no percent")
    if any(value < 0 for value in values) or len(set(values)) != len(values):
        raise ConfigError(f"{flag} percents must be distinct and not negative, got {values}")


def _cmd_resample(args, variant: str) -> int:
    _check_percents("--over", args.over)
    _check_percents("--under", args.under, required=False)
    ds, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    unders = args.under if args.under else [0]
    source = None
    if variant != "replicate" and any(over > 0 for over in args.over):
        # one search and one vote serve every --over x --under pair of this file
        source = synthesis_source(ds, args.k, variant)
    listing = []  # printed once every file is written
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
                source=source,
            )
            stem = f"augmented_{variant}_o{over}_u{under}"
            save_csv(detail.dataset, out / f"{stem}.csv")
            write_provenance(out / f"{stem}.provenance.jsonl", detail.batch, variant)
            listing.append(_listing(detail.dataset, out / f"{stem}.csv"))
            del detail  # one resampled set alive at a time
    _say("\n".join(listing))
    return 0


def _cmd_undersample(args) -> int:
    _check_percents("--under", args.under)
    ds, _ = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    listing = []  # printed once every file is written
    for under in args.under:
        # over_percent 0 skips synthesis entirely, so the variant is inert here
        detail = apply_plan_detailed(ds, 0, under, 1, args.seed, "smote")
        save_csv(detail.dataset, out / f"undersampled_u{under}.csv")
        listing.append(_listing(detail.dataset, out / f"undersampled_u{under}.csv"))
        del detail  # one resampled set alive at a time
    _say("\n".join(listing))
    return 0


def _read_points_csv(path: str) -> list[RocCurve]:
    curves: dict[str, list[RocPoint]] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        _say(f"{family}: auc={value:.6f} ({auc_e4(value)})")


def _cmd_evaluate(args) -> int:
    try:
        curves = _read_points_csv(args.points)
    except UnicodeDecodeError as exc:  # a ValueError, which would read as a configuration error
        raise DataError(f"{args.points} is not UTF-8 text: {exc}") from None
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
        dropped = [flag for flag in dict.fromkeys(args.given) if flag not in _MANIFEST_FLAGS]
        if dropped:
            raise ConfigError(f"{', '.join(dropped)} cannot be given with --from-manifest")
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
        flags = vars(args)  # each grid flag's dest is the field it sets
        config = {name: flags[name] for name in ExperimentConfig._fields if name in flags}
        config["classifier"] = {name: flags[name] for name in ClassifierSpec._fields}
        cfg = ExperimentConfig.from_dict(config)
    result = run_experiment(ds, cfg)
    for warning in result.warnings:  # also when no curve is left to report
        print(f"warning: {warning}", file=sys.stderr)
    paths = emit_report(result, args.out, dataset_info=info)
    _print_aucs(result.aucs)
    _say(result.statement)
    _say(f"report written to {Path(args.out).resolve()}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smotekit",
        description="Minority over-sampling, majority under-sampling, and ROC evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for variant in VARIANTS:
        name = variant.replace("_", "-")
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
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_undersample)

    p = sub.add_parser("evaluate", help="AUC and convex hull from a ROC points CSV")
    p.add_argument("--points", required=True, help="CSV with family,fp_rate,tp_rate[,tag]")
    p.add_argument(
        "--auc-anchor",
        choices=ANCHORS,
        default=ANCHORS[0],
        help="prepend a (0,0) anchor (default) or integrate from the leftmost point",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run resampling grids under cross-validation")
    p.register("action", None, _noting(argparse._StoreAction))
    p.register("action", "store_false", _noting(argparse._StoreFalseAction))
    p.set_defaults(given=())
    _add_data_flags(p, required=False)
    p.add_argument(
        "--families",
        type=lambda text: text.split(","),  # empty items kept: validate rejects them
        default=list(_DEFAULTS.families),
        help=f"comma list of {','.join(FAMILIES)}",
    )
    p.add_argument("--over", dest="over_percents", type=_int_list, default=list(_DEFAULTS.over_percents))
    p.add_argument("--under", dest="under_percents", type=_int_list, default=list(_DEFAULTS.under_percents))
    p.add_argument("--folds", dest="n_folds", type=int, default=_DEFAULTS.n_folds)
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        default=_DEFAULTS.variant,
        help="synthesis variant used by the smote_under family",
    )
    p.add_argument("--classifier", dest="kind", choices=CLASSIFIER_KINDS, default=_DEFAULTS.classifier.kind)
    p.add_argument(
        "--classifier-command",
        dest="command",
        default=_DEFAULTS.classifier.command,
        help="external scorer invoked as: CMD train.csv test.csv scores.txt",
    )
    p.add_argument("--prior-multiplier", type=float, default=_DEFAULTS.classifier.prior_multiplier)
    p.add_argument("--threshold", type=float, default=_DEFAULTS.classifier.threshold)
    p.add_argument(
        "--prior-multipliers",
        type=_float_list,
        default=list(_DEFAULTS.prior_multipliers),
        help="multipliers swept by the priors_sweep family",
    )
    p.add_argument(
        "--thresholds",
        type=_float_list,
        default=list(_DEFAULTS.thresholds),
        help="thresholds swept by the threshold_sweep family",
    )
    p.add_argument(
        "--no-raw-point",
        dest="include_raw_point",
        action="store_false",
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # a library warning reads as the CLI's own
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except _StdoutFailed as exc:
        return _report_stdout_failure(exc.__cause__)


def run() -> None:
    """The process entry point of ``smotekit`` and ``python -m smotekit.cli``.

    Runs :func:`main`, flushes stdout and stderr, then ends the process with
    ``os._exit`` so the interpreter does not free every module and array one
    by one on the way out; every file smotekit writes is closed before
    :func:`main` returns. A stdout that cannot be written, buffered or not,
    gives one ``error: cannot write to standard output`` line and exit 1.
    ``--help`` and a usage error, which argparse ends with ``SystemExit``,
    take the same flush and exit with its code; a crash or a stderr flush
    that fails take the normal exit path instead.
    """
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    try:
        if sys.stdout is not None:  # None when its descriptor was closed at start-up
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        if code != _EXIT_STDOUT:  # else main has reported the failure already
            code = _report_stdout_failure(exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except (OSError, ValueError):  # a broken pipe or closed stream: the normal exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

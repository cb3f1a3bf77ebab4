"""Command-line surface for dataset generation, scoring, and the study
experiments.

Every output file embeds its resolved configuration: CSV files as leading
``# key=value`` comment lines, JSON files under a ``config`` key. Re-running
a command with the same arguments (and any ``--threads`` value) reproduces
the file byte for byte. The SIL_SEED environment variable overrides --seed.

Every failure, argparse's own included, is one ``error:`` line on stderr and
exit code 1; ``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import KMeansConfig, global_kmeanspp
from .core import Dataset, Labeling, canonicalize_labels
from .ingest import ColumnSchema, load_csv, read_dataset_csv, write_csv, write_dataset_csv
from .kselect import SweepRow, sweep
from .sampling import STRATEGIES, monte_carlo_study, sample_and_score
from .silhouette import full_report
from .synth import (
    DEMO_POINTS,
    NUCLEUS_CLUSTER,
    add_background_noise,
    imbalance_dataset,
    noise_count,
    randomize_except,
    separated_blobs,
)

PROFILES = ("even", "varied")
NOISE_PAD = 0.10  # gen's default noise box padding per side

# parsed arguments that do not shape a command's results: dispatch, output
# paths, the thread count and the output format; --schema is recorded only
# when given, so the configs of canonical-CSV runs keep their bytes
UNRECORDED = frozenset(
    ("func", "generator", "output", "summary", "threads", "format", "schema", "prepared_out")
)


def _config(args: argparse.Namespace) -> dict:
    """Every parsed argument that shapes the output, plus the version."""
    resolved = {"version": __version__}
    for key, value in vars(args).items():
        if key in UNRECORDED:
            continue
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        resolved[key.replace("_", "-")] = value
    if getattr(args, "schema", None):
        resolved["schema"] = args.schema
    return resolved


def _write_json(path, payload: dict):
    """Strict JSON: a non-finite number is an error, before the file opens."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: a NaN or infinite result cannot be written as JSON") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_dataset(args) -> Dataset:
    """Read a dataset: the canonical points+label CSV, or any CSV through
    the preprocessing pipeline when --schema is given."""
    if args.prepared_out and not args.schema:
        raise ValueError("--prepared-out writes the --schema preprocessing, so it needs --schema")
    if args.schema:
        data = load_csv(args.data, ColumnSchema.from_file(args.schema))
        if args.prepared_out:
            write_dataset_csv(
                args.prepared_out, data, header_lines={"source": args.data, "schema": args.schema}
            )
        return data
    return read_dataset_csv(args.data)


def _load_labels(args, data: Dataset) -> Labeling:
    if args.labels:
        with warnings.catch_warnings():
            # an empty file is reported below, as a file with 0 entries
            warnings.simplefilter("ignore", UserWarning)
            try:
                raw = np.loadtxt(args.labels, dtype=np.int64, ndmin=1)
            except ValueError as exc:
                raise ValueError(f"label file {args.labels}: {exc}") from None
        if len(raw) != data.n:
            raise ValueError(f"label file has {len(raw)} entries for {data.n} rows")
        return canonicalize_labels(raw)
    if data.truth_labels is None:
        raise ValueError("dataset has no label column; pass --labels")
    return canonicalize_labels(data.truth_labels)


def _at_least(name: str, value, low) -> None:
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _at_most(name: str, value, high, why: str) -> None:
    if value > high:
        raise ValueError(f"{name} must be at most {high} ({why}), got {value}")


class _Parser(argparse.ArgumentParser):
    """Argparse's own errors become one ``error:`` line with exit 1 in
    ``main``; a failed ``_bounded`` check reads ``--k must be ...``."""

    def error(self, message: str):
        raise ValueError(re.sub(r"^argument (\S+): (?=must |needs )", r"\1 ", message))


def _bounded(kind, ok, bound: str, many: bool = False):
    """A ``type=`` that parses one ``kind``, or with ``many`` a comma-separated
    list of at least one, and rejects a value that fails ``ok``."""

    def parse(text: str):
        values = [kind(v) for v in text.split(",") if v] if many else [kind(text)]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        for value in values:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return values if many else values[0]

    parse.__name__ = kind.__name__ + " list" * many  # argparse's "invalid int value: 'x'"
    return parse


def _int_from(low: int, many: bool = False):
    return _bounded(int, lambda v: v >= low, f"at least {low}", many)


def _percent(many: bool = False):
    return _bounded(float, lambda v: 0 <= v < 100, "in [0, 100)", many)


def cmd_gen(args) -> int:
    if args.profile is None:
        args.profile = "varied" if args.nucleus_extra > 0 else "even"
    elif args.profile == "even" and args.nucleus_extra > 0:
        raise ValueError("--nucleus-extra grows the varied layout's nucleus; it cannot go with --profile even")
    varied = args.profile == "varied"
    if varied and args.stddev is not None:
        raise ValueError("--stddev sets the even profile only; the varied layout fixes its own stddevs")
    if args.stddev is None:
        args.stddev = 1.0  # the default, recorded for both layouts
    if varied:
        data, labels = imbalance_dataset(args.n + args.nucleus_extra, args.n, args.seed)
        if args.k != labels.k:
            raise ValueError(
                f"the varied profile is the {labels.k}-cluster demo layout; use --k {labels.k}"
            )
    else:
        data, labels = separated_blobs(args.k, args.n, args.seed, stddev=args.stddev)
    pad = NOISE_PAD if args.noise_pad is None else args.noise_pad
    data = add_background_noise(data, labels, args.noise_pct / 100.0, args.seed + 2, pad)
    # after add_background_noise, so a bad pad value is named first
    if args.noise_pct == 0 and args.noise_pad is not None:
        raise ValueError("--noise-pad sizes the noise box, so it needs --noise-pct above 0")
    args.noise_pad = pad  # the default, recorded at every noise level
    write_dataset_csv(args.output, data, header_lines=_config(args))
    print(f"wrote {data.n} rows to {args.output}")
    return 0


def _resolve_strategy(args) -> None:
    """--strategy shapes only a sampled scoring: without --sample it is an
    error; unset, it takes the default, which is recorded either way."""
    if args.strategy is None:
        args.strategy = "balanced"
    elif args.sample is None:
        raise ValueError("--strategy picks how --sample draws, so it needs --sample")


def cmd_score(args) -> int:
    _resolve_strategy(args)
    data = _load_dataset(args)
    labels = _load_labels(args, data)
    payload = {"config": _config(args)}
    if args.sample is not None:
        _at_most("--sample", args.sample, data.n, f"the {data.n} rows")
        result = sample_and_score(data, labels, args.strategy, args.sample, args.seed)
        payload["sample"] = {
            "strategy": args.strategy,
            "size": args.sample,
            "seed": args.seed,
            "defined": result.defined,
            "drawn_counts": [int(c) for c in result.drawn_counts],
            "surviving_clusters": [int(c) for c in result.surviving_clusters],
        }
        if result.defined:
            payload["report"] = result.report.to_dict()
            payload["sample"]["micro_weighted"] = result.micro_weighted
        else:
            payload["report"] = None  # silhouette undefined: data, not failure
    else:
        payload["report"] = full_report(data, labels, args.threads).to_dict()
    _write_json(args.output, payload)
    print(f"wrote report to {args.output}")
    return 0


def cmd_cluster(args) -> int:
    data = _load_dataset(args)
    _at_most("--k", args.k, data.n, f"the {data.n} rows")
    config_obj = KMeansConfig(rng_seed=args.seed, n_candidates=args.candidates)
    result = global_kmeanspp(data, args.k, config_obj)[args.k]
    _write_json(args.output, {"config": _config(args), **result.to_dict()})
    print(f"k={args.k} sse={result.sse:.6g} -> {args.output}")
    return 0


def cmd_sweep(args) -> int:
    _at_least("--k-max", args.k_max, args.k_min)
    _resolve_strategy(args)
    data = _load_dataset(args)
    _at_most("--k-max", args.k_max, data.n - 1, f"one below the {data.n} rows")
    if args.sample is not None:
        why = f"one below the {data.n} rows; omit it to score in full"
        _at_most("--sample", args.sample, data.n - 1, why)
    config_obj = KMeansConfig(rng_seed=args.seed, n_candidates=args.candidates)
    result = sweep(
        data, args.k_min, args.k_max, config_obj, sample_size=args.sample, sample_strategy=args.strategy
    )
    micro, macro = result.argmax_micro, result.argmax_macro
    config = {**_config(args), "argmax-micro": micro, "argmax-macro": macro}
    if args.format == "json":
        rows = [asdict(r) for r in result.rows]
        payload = {"config": config, "rows": rows, "argmax_micro": micro, "argmax_macro": macro}
        _write_json(args.output, payload)
    else:
        write_csv(args.output, config, [f.name for f in fields(SweepRow)], map(astuple, result.rows))
    print(
        f"swept k in [{args.k_min}, {args.k_max}]: argmax_micro={micro} "
        f"argmax_macro={macro} -> {args.output}"
    )
    return 0


def cmd_nucleus_study(args) -> int:
    """Micro/macro scores of the randomized-except-nucleus labeling and the
    ground-truth labeling, per nucleus size.

    The relabeling of the non-nucleus points excludes the nucleus label, so
    the nucleus stays pure while it grows: macro stays flat while micro
    rises with the nucleus share. The sizes run in turn, each report on
    --threads threads: the largest size is most of the work.
    """
    rows = []
    for size in args.sizes:
        data, truth = imbalance_dataset(size, seed=args.seed)  # the nucleus grows from seed + 1
        rng = np.random.default_rng(args.seed + 2)  # the same relabeling at every size
        randomized = randomize_except(truth, NUCLEUS_CLUSTER, rng)
        reports = [full_report(data, labels, args.threads) for labels in (randomized, truth)]
        rows.append([size, *(score for r in reports for score in (r.micro, r.macro))])
    header = ["nucleus_size", "micro_randomized", "macro_randomized", "micro_truth", "macro_truth"]
    write_csv(args.output, _config(args), header, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


# noise-study's base layout: separated blobs of equal size
NOISE_STUDY_BLOBS = 4
NOISE_STUDY_POINTS = 200

# The separated four-blob layout leaves most of the expanded box empty, so
# background noise spread "uniformly in the data space" needs a wider field
# than the default bounding-box pad.
NOISE_STUDY_PAD = 0.75


def cmd_noise_study(args) -> int:
    """Estimated number of clusters per background-noise level: noise goes
    into the same separated-blob dataset, the clusterer sweeps k, and both
    aggregations pick their best k. The levels run in turn, each sweep's
    reports on --threads threads."""
    if args.noise_pad is None:
        args.noise_pad = NOISE_STUDY_PAD  # the default, recorded at every level
    elif not any(args.levels):
        raise ValueError("--noise-pad sizes the noise box, so it needs a level above 0")
    _at_least("--k-max", args.k_max, args.k_min)
    base, base_labels = separated_blobs(NOISE_STUDY_BLOBS, NOISE_STUDY_POINTS, args.seed)
    low = min(args.levels)
    n = base.n + noise_count(base.n, low / 100.0)  # the fewest rows a level sweeps
    _at_most("--k-max", args.k_max, n - 1, f"one below the {n} rows at --levels {low:g}")
    config = KMeansConfig(rng_seed=args.cluster_seed)
    rows = []
    for i, level in enumerate(args.levels):
        noisy = add_background_noise(base, base_labels, level / 100.0, args.seed + 10 + i, args.noise_pad)
        result = sweep(noisy, args.k_min, args.k_max, config, threads=args.threads)
        rows.append([float(level), noisy.n - base.n, result.argmax_micro, result.argmax_macro])
    header = ["level_pct", "n_noise", "estimate_micro", "estimate_macro"]
    write_csv(args.output, _config(args), header, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _blank_nan(value):
    """A CSV cell: an undefined (NaN) score or statistic is left empty."""
    return "" if isinstance(value, float) and np.isnan(value) else value


def cmd_sample_study(args) -> int:
    data, labels = imbalance_dataset(args.nucleus, seed=args.seed)
    _at_most("--sizes", max(args.sizes), data.n, f"the {data.n} rows at --nucleus {args.nucleus}")
    result = monte_carlo_study(
        data,
        labels,
        args.sizes,
        args.runs,
        seed_base=args.sample_seed_base,
        statistic=args.statistic,
        threads=args.threads,
    )
    config = _config(args)
    config["full-score"] = result.full_score
    run_rows = [
        [cell.size, cell.strategy, run, _blank_nan(score), not np.isnan(score)]
        for cell in result.cells
        for run, score in enumerate(cell.scores)
    ]
    write_csv(args.output, config, ["L", "strategy", "run", "score", "defined"], run_rows)
    stats = ["median", "whisker_low", "whisker_high", "whisker_range", "undefined_runs"]
    summary_rows = [[c.size, c.strategy, *(_blank_nan(getattr(c, s)) for s in stats)] for c in result.cells]
    write_csv(args.summary, config, ["L", "strategy", *stats], summary_rows)
    print(f"wrote {len(run_rows)} runs to {args.output} and summary to {args.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="silkit",
        description="Silhouette scoring (micro/macro), balanced sampling, and k estimation",
    )
    parser.add_argument("--version", action="version", version=f"silkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by every leaf command, by the dataset readers, and by the
    # threaded commands (score and the studies)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_from(0), default=0)
    common.add_argument("-o", "--output", required=True)
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", required=True, help="dataset CSV (last column = label)")
    dataset.add_argument("--schema", help="schema config JSON for preprocessing a raw CSV")
    dataset.add_argument("--prepared-out", help="write the preprocessed dataset CSV here for audit")
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument(
        "--threads", type=_int_from(1), help="worker threads (default: all cores); outputs do not depend on it"
    )

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    blobs = gen_sub.add_parser("blobs", parents=[common], help="isotropic Gaussian blobs")
    blobs.add_argument("--k", type=_int_from(1), default=4, help="number of clusters")
    blobs.add_argument("--n", type=_int_from(1), default=200, help="points per cluster")
    blobs.add_argument(
        "--profile",
        choices=PROFILES,
        help="even: equal blobs on a ring; varied: the 12-cluster imbalance demo",
    )
    blobs.add_argument("--nucleus-extra", type=_int_from(0), default=0, help="points added to the nucleus cluster (implies --profile varied)")
    blobs.add_argument("--noise-pct", type=_percent(), default=0.0, help="background noise level in percent")
    blobs.add_argument("--noise-pad", type=float, help="noise box padding per side (fraction of span)")
    stddev = _bounded(float, lambda v: 0 < v < float("inf"), "finite and above 0")
    blobs.add_argument("--stddev", type=stddev, help="blob stddev for the even profile")
    blobs.set_defaults(func=cmd_gen)

    score = sub.add_parser(
        "score", parents=[common, dataset, study], help="silhouette report for a labeled dataset"
    )
    score.add_argument("--labels", help="optional label file overriding the CSV label column")
    score.add_argument("--sample", type=_int_from(2), help="score a subsample of this size")
    score.add_argument("--strategy", choices=STRATEGIES)
    score.set_defaults(func=cmd_score)

    cluster = sub.add_parser("cluster", parents=[common, dataset], help="global k-means++ clustering")
    cluster.add_argument("--k", type=_int_from(1), required=True)
    cluster.add_argument("--candidates", type=_int_from(1), default=10)
    cluster.set_defaults(func=cmd_cluster)

    sweep_p = sub.add_parser(
        "sweep", parents=[common, dataset], help="k-sweep with micro/macro silhouette scores"
    )
    sweep_p.add_argument("--k-min", type=_int_from(2), default=2)
    sweep_p.add_argument("--k-max", type=int, default=30)
    sweep_p.add_argument("--sample", type=_int_from(2), help="balanced-sample size for scoring each k")
    sweep_p.add_argument("--strategy", choices=STRATEGIES)
    sweep_p.add_argument("--candidates", type=_int_from(1), default=10)
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_p.set_defaults(func=cmd_sweep)

    nucleus = sub.add_parser(
        "nucleus-study", parents=[common, study], help="imbalance attack: score vs nucleus size"
    )
    nucleus.add_argument("--sizes", type=_int_from(DEMO_POINTS, many=True), default=[100, 500, 1000, 2000, 5000, 10000])
    nucleus.set_defaults(func=cmd_nucleus_study)

    noise = sub.add_parser(
        "noise-study", parents=[common, study], help="estimated k per background-noise level"
    )
    noise.add_argument("--levels", type=_percent(many=True), default=[0, 10, 20, 30, 40, 50])
    noise.add_argument("--k-min", type=_int_from(2), default=2)
    noise.add_argument("--k-max", type=int, default=30)
    noise.add_argument("--cluster-seed", type=_int_from(0), default=5)
    noise.add_argument("--noise-pad", type=float)
    noise.set_defaults(func=cmd_noise_study)

    samples = sub.add_parser(
        "sample-study", parents=[common, study], help="uniform vs balanced sampling Monte Carlo"
    )
    samples.add_argument("--sizes", type=_int_from(2, many=True), default=[50, 100, 200, 400, 800])
    samples.add_argument("--runs", type=_int_from(1), default=30)
    samples.add_argument("--nucleus", type=_int_from(DEMO_POINTS), default=10000, help="nucleus cluster size")
    samples.add_argument("--statistic", choices=("macro", "micro"), default="macro")
    samples.add_argument("--sample-seed-base", type=_int_from(0), default=10)
    samples.add_argument("--summary", required=True)
    samples.set_defaults(func=cmd_sample_study)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 1) is None:
            args.threads = os.cpu_count() or 1  # the default: all cores
        env_seed = os.environ.get("SIL_SEED")
        if env_seed:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ValueError(f"SIL_SEED must be an integer, got {env_seed!r}") from None
            _at_least("SIL_SEED", args.seed, 0)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

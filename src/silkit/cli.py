"""Command-line surface for dataset generation, scoring, and the study
experiments.

Every output file embeds its resolved configuration: CSV files as leading
``# key=value`` comment lines, JSON files under a ``config`` key. Re-running
a command with the same arguments (and any ``--threads`` value) reproduces
the file byte for byte. The SIL_SEED environment variable overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import KMeansConfig, global_kmeanspp
from .core import Dataset, Labeling, canonicalize_labels
from .experiments import (
    NOISE_STUDY_PAD,
    NoiseStudyRow,
    NucleusStudyRow,
    noise_study,
    nucleus_study,
    sample_study,
)
from .ingest import ColumnSchema, load_csv, read_dataset_csv, write_csv, write_dataset_csv
from .kselect import SweepRow, sweep
from .sampling import STRATEGIES, sample_and_score
from .silhouette import full_report
from .synth import DEMO_POINTS, add_background_noise, imbalance_dataset, separated_blobs

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


def _write_records(path, config: dict, row_type, rows):
    """CSV of dataclass records: the field names, then one row per record."""
    write_csv(path, config, [f.name for f in fields(row_type)], [astuple(r) for r in rows])


def _write_json(path, payload: dict):
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_dataset(args) -> Dataset:
    """Read a dataset: the canonical points+label CSV, or any CSV through
    the preprocessing pipeline when --schema is given."""
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


def _k_range(args) -> None:
    """--k-min and --k-max of a sweep, before any data is read."""
    _at_least("--k-min", args.k_min, 2)
    _at_least("--k-max", args.k_max, args.k_min)


def _nonempty(flag: str, values: list) -> None:
    # after parsing: argparse would make a type error an exit-2 usage error
    if not values:
        raise ValueError(f"{flag} needs at least one value")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def cmd_gen(args) -> int:
    _at_least("--k", args.k, 1)
    _at_least("--n", args.n, 1)
    _at_least("--nucleus-extra", args.nucleus_extra, 0)
    if not 0 <= args.noise_pct < 100:
        raise ValueError(f"--noise-pct must be in [0, 100), got {args.noise_pct}")
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
    _at_least("--k", args.k, 1)
    _at_least("--candidates", args.candidates, 1)
    data = _load_dataset(args)
    _at_most("--k", args.k, data.n, f"the {data.n} rows")
    config_obj = KMeansConfig(rng_seed=args.seed, n_candidates=args.candidates)
    result = global_kmeanspp(data, args.k, config_obj)[args.k]
    _write_json(args.output, {"config": _config(args), **result.to_dict()})
    print(f"k={args.k} sse={result.sse:.6g} -> {args.output}")
    return 0


def cmd_sweep(args) -> int:
    _at_least("--candidates", args.candidates, 1)
    _k_range(args)
    _resolve_strategy(args)
    data = _load_dataset(args)
    _at_most("--k-max", args.k_max, data.n - 1, f"one below the {data.n} rows")
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
        _write_records(args.output, config, SweepRow, result.rows)
    print(
        f"swept k in [{args.k_min}, {args.k_max}]: argmax_micro={micro} "
        f"argmax_macro={macro} -> {args.output}"
    )
    return 0


def cmd_nucleus_study(args) -> int:
    _nonempty("--sizes", args.sizes)
    _at_least("--sizes", min(args.sizes), DEMO_POINTS)
    rows = nucleus_study(args.sizes, seed=args.seed, threads=args.threads)
    _write_records(args.output, _config(args), NucleusStudyRow, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_noise_study(args) -> int:
    _nonempty("--levels", args.levels)
    for level in args.levels:
        if not 0 <= level < 100:
            raise ValueError(f"--levels must be in [0, 100), got {level}")
    if args.noise_pad is None:
        args.noise_pad = NOISE_STUDY_PAD  # the default, recorded at every level
    elif not any(args.levels):
        raise ValueError("--noise-pad sizes the noise box, so it needs a level above 0")
    _k_range(args)
    rows = noise_study(
        args.levels,
        k_min=args.k_min,
        k_max=args.k_max,
        seed=args.seed,
        cluster_seed=args.cluster_seed,
        noise_pad=args.noise_pad,
        threads=args.threads,
    )
    _write_records(args.output, _config(args), NoiseStudyRow, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_sample_study(args) -> int:
    _nonempty("--sizes", args.sizes)
    _at_least("--runs", args.runs, 1)
    _at_least("--nucleus", args.nucleus, DEMO_POINTS)
    result = sample_study(
        args.sizes,
        args.runs,
        nucleus_total=args.nucleus,
        seed=args.seed,
        sample_seed_base=args.sample_seed_base,
        statistic=args.statistic,
        threads=args.threads,
    )
    config = _config(args)
    config["full-score"] = result.full_score
    run_rows = [
        [cell.size, cell.strategy, run, "" if np.isnan(score) else score, not np.isnan(score)]
        for cell in result.cells
        for run, score in enumerate(cell.scores)
    ]
    write_csv(args.output, config, ["L", "strategy", "run", "score", "defined"], run_rows)
    stats = ["median", "whisker_low", "whisker_high", "whisker_range", "undefined_runs"]
    summary_rows = [[c.size, c.strategy, *(getattr(c, s) for s in stats)] for c in result.cells]
    write_csv(args.summary, config, ["L", "strategy", *stats], summary_rows)
    print(f"wrote {len(run_rows)} runs to {args.output} and summary to {args.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silkit",
        description="Silhouette scoring (micro/macro), balanced sampling, and k estimation",
    )
    parser.add_argument("--version", action="version", version=f"silkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by every leaf command, by the dataset readers, and by the
    # threaded commands (score and the studies)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("-o", "--output", required=True)
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", required=True, help="dataset CSV (last column = label)")
    dataset.add_argument("--schema", help="schema config JSON for preprocessing a raw CSV")
    dataset.add_argument("--prepared-out", help="write the preprocessed dataset CSV here for audit")
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument(
        "--threads", type=int, help="worker threads (default: all cores); outputs do not depend on it"
    )

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    blobs = gen_sub.add_parser("blobs", parents=[common], help="isotropic Gaussian blobs")
    blobs.add_argument("--k", type=int, default=4, help="number of clusters")
    blobs.add_argument("--n", type=int, default=200, help="points per cluster")
    blobs.add_argument(
        "--profile",
        choices=PROFILES,
        help="even: equal blobs on a ring; varied: the 12-cluster imbalance demo",
    )
    blobs.add_argument("--nucleus-extra", type=int, default=0, help="points added to the nucleus cluster (implies --profile varied)")
    blobs.add_argument("--noise-pct", type=float, default=0.0, help="background noise level in percent")
    blobs.add_argument("--noise-pad", type=float, help="noise box padding per side (fraction of span)")
    blobs.add_argument("--stddev", type=float, help="blob stddev for the even profile")
    blobs.set_defaults(func=cmd_gen)

    score = sub.add_parser(
        "score", parents=[common, dataset, study], help="silhouette report for a labeled dataset"
    )
    score.add_argument("--labels", help="optional label file overriding the CSV label column")
    score.add_argument("--sample", type=int, help="score a subsample of this size")
    score.add_argument("--strategy", choices=STRATEGIES)
    score.set_defaults(func=cmd_score)

    cluster = sub.add_parser("cluster", parents=[common, dataset], help="global k-means++ clustering")
    cluster.add_argument("--k", type=int, required=True)
    cluster.add_argument("--candidates", type=int, default=10)
    cluster.set_defaults(func=cmd_cluster)

    sweep_p = sub.add_parser(
        "sweep", parents=[common, dataset], help="k-sweep with micro/macro silhouette scores"
    )
    sweep_p.add_argument("--k-min", type=int, default=2)
    sweep_p.add_argument("--k-max", type=int, default=30)
    sweep_p.add_argument("--sample", type=int, help="balanced-sample size for scoring each k")
    sweep_p.add_argument("--strategy", choices=STRATEGIES)
    sweep_p.add_argument("--candidates", type=int, default=10)
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_p.set_defaults(func=cmd_sweep)

    nucleus = sub.add_parser(
        "nucleus-study", parents=[common, study], help="imbalance attack: score vs nucleus size"
    )
    nucleus.add_argument("--sizes", type=_int_list, default=[100, 500, 1000, 2000, 5000, 10000])
    nucleus.set_defaults(func=cmd_nucleus_study)

    noise = sub.add_parser(
        "noise-study", parents=[common, study], help="estimated k per background-noise level"
    )
    noise.add_argument("--levels", type=_float_list, default=[0, 10, 20, 30, 40, 50])
    noise.add_argument("--k-min", type=int, default=2)
    noise.add_argument("--k-max", type=int, default=30)
    noise.add_argument("--cluster-seed", type=int, default=5)
    noise.add_argument("--noise-pad", type=float)
    noise.set_defaults(func=cmd_noise_study)

    samples = sub.add_parser(
        "sample-study", parents=[common, study], help="uniform vs balanced sampling Monte Carlo"
    )
    samples.add_argument("--sizes", type=_int_list, default=[50, 100, 200, 400, 800])
    samples.add_argument("--runs", type=int, default=30)
    samples.add_argument("--nucleus", type=int, default=10000, help="nucleus cluster size")
    samples.add_argument("--statistic", choices=("macro", "micro"), default="macro")
    samples.add_argument("--sample-seed-base", type=int, default=10)
    samples.add_argument("--summary", required=True)
    samples.set_defaults(func=cmd_sample_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) is None:
            args.threads = os.cpu_count() or 1  # the default: all cores
        _at_least("--threads", getattr(args, "threads", 1), 1)
        env_seed = os.environ.get("SIL_SEED")
        if env_seed:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ValueError(f"SIL_SEED must be an integer, got {env_seed!r}") from None
            _at_least("SIL_SEED", args.seed, 0)
        for key in ("seed", "cluster_seed", "sample_seed_base"):
            _at_least(f"--{key.replace('_', '-')}", getattr(args, key, 0), 0)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

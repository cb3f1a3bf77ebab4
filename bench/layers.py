"""The silkit layers the traced run times, and the per-layer metrics.

Each layer is a public silkit function, named ``module.function`` after
the module that defines it. The comment on each metric names the
end-to-end figure it should move and on which workload.
"""

from __future__ import annotations

SYNTH_FUNCTIONS = ("generate_blobs", "grow_nucleus", "randomize_except", "add_background_noise")


def _count_pairs(tracer, args, report, elapsed):
    n = len(report.per_point)
    tracer.add("silhouette.pairs", n * n)


def _count_lloyd(tracer, args, result, elapsed):
    tracer.add("clustering.lloyd.iterations", result.iterations)
    tracer.add("clustering.lloyd.at_max_iters", result.iterations == args["config"].max_iters)


def _count_kept(tracer, args, results, elapsed):
    # solutions for k >= 2, each the best of its Lloyd candidates
    tracer.add("clustering.kept", sum(1 for k in results if k >= 2))


def _count_undefined(tracer, args, result, elapsed):
    tracer.add("sampling.undefined", not result.defined)


def _count_capacity(tracer, args, cells, elapsed):
    threads = args["threads"] if args["threads"] and args["threads"] > 1 else 1
    tracer.add("sampling.monte_carlo_study.capacity_s", elapsed * threads)


def layers():
    """``(name, function, counter)`` for every traced silkit function."""
    from silkit import cli, clustering, core, ingest, kselect, sampling, silhouette, synth

    return [
        ("cli.main", cli.main, None),
        ("silhouette.full_report", silhouette.full_report, _count_pairs),
        ("core.pairwise_distances", core.pairwise_distances, None),
        ("clustering.lloyd", clustering.lloyd, _count_lloyd),
        ("clustering.global_kmeanspp", clustering.global_kmeanspp, _count_kept),
        ("kselect.sweep", kselect.sweep, None),
        ("sampling.sample_and_score", sampling.sample_and_score, _count_undefined),
        ("sampling.monte_carlo_study", sampling.monte_carlo_study, _count_capacity),
        ("ingest.read_dataset_csv", ingest.read_dataset_csv, None),
        ("ingest.write_dataset_csv", ingest.write_dataset_csv, None),
        *((f"synth.{name}", getattr(synth, name), None) for name in SYNTH_FUNCTIONS),
    ]


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work (JSON has no NaN)."""
    return num / den if den else 0.0


def layer_metrics(tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per job: totals over ``jobs`` traced jobs, each
    including the generation of its input, divided by ``jobs``."""
    calls, total, own, count = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters

    def per_job(value):
        return value / jobs

    sas = "sampling.sample_and_score"
    return {
        # wall_s on score-nucleus (~99%) and sample-study (~60%)
        "silhouette.full_report.calls": (per_job(calls["silhouette.full_report"]), "count/job"),
        "silhouette.full_report.self_s": (per_job(own["silhouette.full_report"]), "s/job"),
        # full_report's time includes the pairwise_distances it calls
        "silhouette.pairs_per_s": (
            _ratio(count["silhouette.pairs"], total["silhouette.full_report"]),
            "1/s",
        ),
        # wall_s on sample-study and sweep-nucleus; none on score-nucleus
        "core.pairwise_distances.calls": (per_job(calls["core.pairwise_distances"]), "count/job"),
        "core.pairwise_distances.s": (per_job(total["core.pairwise_distances"]), "s/job"),
        # wall_s on sweep-nucleus only
        "clustering.lloyd.calls": (per_job(calls["clustering.lloyd"]), "count/job"),
        "clustering.lloyd.s": (per_job(total["clustering.lloyd"]), "s/job"),
        "clustering.lloyd.iterations": (per_job(count["clustering.lloyd.iterations"]), "count/job"),
        "clustering.lloyd.at_max_iters": (per_job(count["clustering.lloyd.at_max_iters"]), "count/job"),
        "clustering.global_kmeanspp.self_s": (per_job(own["clustering.global_kmeanspp"]), "s/job"),
        "clustering.candidate_win_ratio": (
            _ratio(count["clustering.kept"], calls["clustering.lloyd"]),
            "ratio",
        ),
        "kselect.sweep.self_s": (per_job(own["kselect.sweep"]), "s/job"),
        # wall_s on sample-study; under 1% of sweep-nucleus
        f"{sas}.calls": (per_job(calls[sas]), "count/job"),
        f"{sas}.self_s": (per_job(own[sas]), "s/job"),
        "sampling.undefined": (per_job(count["sampling.undefined"]), "count/job"),
        "sampling.defined_ratio": (
            _ratio(calls[sas] - count["sampling.undefined"], calls[sas]),
            "ratio",
        ),
        "sampling.monte_carlo_study.s": (per_job(total["sampling.monte_carlo_study"]), "s/job"),
        # task busy time over (study wall time x threads); every sampled
        # scoring of sample-study, the only workload with a study, is a task
        "sampling.monte_carlo_study.parallel_eff": (
            _ratio(total[sas], count["sampling.monte_carlo_study.capacity_s"]),
            "ratio",
        ),
        # wall_s on score-nucleus and sweep-nucleus (<1%)
        "ingest.read_dataset_csv.s": (per_job(total["ingest.read_dataset_csv"]), "s/job"),
        # input generation: setup_s on score-nucleus and sweep-nucleus,
        # wall_s on sample-study (the study generates its own dataset)
        "ingest.write_dataset_csv.s": (per_job(total["ingest.write_dataset_csv"]), "s/job"),
        "synth.s": (per_job(sum(own[f"synth.{name}"] for name in SYNTH_FUNCTIONS)), "s/job"),
        # argument handling, config header, JSON/CSV writes: every workload
        "cli.main.self_s": (per_job(own["cli.main"]), "s/job"),
    }

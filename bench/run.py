"""Run one benchmark workload through ``silkit.cli.main`` and print its
metrics; the last line of standard output is one JSON object.

    python3 bench/run.py --workload score-nucleus --seed 0 --seconds 40 --trace 0

Load is a closed loop: one process runs one job at a time, each job a CLI
call on inputs generated from the seed (job j uses seed + 1000 * j, so the
jobs of a run see distinct inputs), until the next job would overrun
``--seconds``. Input generation and the correctness gate run between jobs
and are not timed. Untraced (``--trace 0``) it reports the end-to-end
metrics; traced (``--trace 1``) it first runs half the time untraced, then
half with every layer wrapped (see spans.py), and reports the per-layer
metrics, the tracing overhead, and fails if any traced output differs from
the untraced output for the same seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED_STRIDE = 1000
SETUP_REPEATS = 7
# a user's set-up: a fresh interpreter imports silkit and writes the input
SETUP_CODE = "import sys\nfrom silkit import cli\nif sys.argv[1:]:\n    sys.exit(cli.main(sys.argv[1:]))\n"


@dataclass
class Job:
    seed: int
    seconds: float
    cpu_s: float
    errors: list[str]
    outputs: list[bytes]


def silkit_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SIL_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload, work: Path, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh-interpreter set-ups."""
    argv = workload.input_argv(work / "setup.csv", seed) or []
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *argv],
            cwd=ROOT,
            env=silkit_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return statistics.median(times)


def call_cli(argv: list[str]) -> int:
    # silkit imports only once main() has put src/ on the path; cli.main is
    # looked up per call so that a traced run calls the wrapper
    from silkit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_job(workload, work: Path, seed: int) -> Job:
    input_argv = workload.input_argv(work / "input.csv", seed)
    if input_argv is not None and call_cli(input_argv) != 0:
        raise RuntimeError(f"input generation failed for seed {seed}")
    errors = []
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        code = call_cli(workload.job_argv(work, seed))
    except (Exception, SystemExit):  # a failed job is counted, not fatal
        code = None
        errors.append(traceback.format_exc())
    seconds = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    if code is not None and code != 0:
        errors.append(f"exit code {code}")
    outputs = []
    if not errors:
        errors = workload.check(work, seed)
        outputs = [path.read_bytes() for path in workload.outputs(work)]
    return Job(seed, seconds, cpu_s, errors, outputs)


def run_jobs(workload, work: Path, seed: int, seconds: float) -> list[Job]:
    """At least one job; another only while it is expected to fit."""
    jobs = []
    start = time.perf_counter()
    while not jobs or (
        time.perf_counter() - start + statistics.median(j.seconds for j in jobs) <= seconds
    ):
        jobs.append(run_job(workload, work, seed + SEED_STRIDE * len(jobs)))
        for error in jobs[-1].errors:
            print(f"job seed {jobs[-1].seed} failed: {error}", file=sys.stderr)
    return jobs


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "threads": workload.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def untraced(workload, work: Path, seed: int, seconds: int):
    setup_s = measure_setup(workload, work, seed)
    jobs = run_jobs(workload, work, seed, seconds)
    metrics = {
        "wall_s": (statistics.median(j.seconds for j in jobs), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return jobs, metrics


def traced(workload, work: Path, seed: int, seconds: int):
    from layers import layer_metrics, layers
    from spans import Tracer

    reference = run_jobs(workload, work, seed, seconds / 2)
    tracer = Tracer()
    with tracer.installed(layers()):
        jobs = run_jobs(workload, work, seed, seconds / 2)
    by_seed = {j.seed: j.outputs for j in reference}
    for job in jobs:
        if not job.errors and job.seed in by_seed and job.outputs != by_seed[job.seed]:
            job.errors.append("traced outputs differ from the untraced outputs")
    wall = statistics.median(j.seconds for j in jobs)
    metrics = layer_metrics(tracer, len(jobs))
    metrics["run.cpu_s"] = (statistics.mean(j.cpu_s for j in reference), "s/job")
    metrics["run.cpu_util"] = (
        sum(j.cpu_s for j in reference) / sum(j.seconds for j in reference),
        "cpu_s/s",
    )
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(j.seconds for j in reference), "s")
    return reference + jobs, metrics


def report(jobs: list[Job], metrics: dict, env: dict, trace: int) -> dict:
    failed = sum(1 for j in jobs if j.errors)
    wall = metrics["trace.wall_s"][0] if trace else metrics["wall_s"][0]
    for name, (value, unit) in metrics.items():
        share = f"  ({value / wall:6.1%} of wall_s)" if trace and unit.startswith("s") else ""
        print(f"{name:42s} {value:14.6g} {unit}{share}")
    print(f"{'failed_ratio':42s} {failed / len(jobs):14.6g} ratio  ({failed} of {len(jobs)} jobs)")
    print(f"{'jobs':42s} {len(jobs):14d} count")
    print("job_s " + json.dumps([round(j.seconds, 4) for j in jobs]))
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one silkit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "silkit" / "__init__.py").is_file():
        print(f"error: no silkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SIL_SEED", None)  # it would silently override every --seed
    import silkit

    if not Path(silkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported silkit from {silkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else untraced
        jobs, metrics = run(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report(jobs, metrics, env, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

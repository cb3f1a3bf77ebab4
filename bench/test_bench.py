"""Tests of the benchmark itself, on small versions of each workload.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
from layers import layers
from spans import Tracer
from workloads import SampleStudy, ScoreNucleus, SweepNucleus

sys.path.insert(0, str(run.SRC))

SMALL = {
    "score": ScoreNucleus(points_per_cluster=20, nucleus_extra=180, checked_rows=50),
    "sweep": SweepNucleus(points_per_cluster=20, nucleus_extra=80, k_max=8, sample=120),
    "study": SampleStudy(sizes=(50, 100), runs=5, nucleus=500),
}


@pytest.fixture(params=sorted(SMALL))
def workload(request):
    return SMALL[request.param]


def test_small_jobs_pass_their_gate(workload, tmp_path):
    job = run.run_job(workload, tmp_path, 3)
    assert job.errors == []


def test_traced_outputs_match_untraced(workload, tmp_path):
    # same directory: the outputs record the input path
    plain = run.run_job(workload, tmp_path, 3)
    tracer = Tracer()
    with tracer.installed(layers()):
        traced = run.run_job(workload, tmp_path, 3)
    assert plain.errors == traced.errors == []
    assert traced.outputs == plain.outputs
    assert tracer.calls["cli.main"] >= 1
    # a shared span stack charged pool-thread children to the wrong parent
    assert all(value >= 0.0 for value in tracer.self_s.values())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric_of_benchmark_json(trace, kind, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    measure = run.traced if trace else run.untraced
    jobs, metrics = measure(SMALL["sweep"], tmp_path, 3, 1)
    assert all(not job.errors for job in jobs)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec[kind]
    }


def test_wrappers_are_removed_after_the_traced_run():
    from silkit import kselect, sampling, silhouette

    original = silhouette.full_report
    with Tracer().installed(layers()):
        assert kselect.full_report is not original
        assert sampling.full_report is not original
    assert kselect.full_report is sampling.full_report is silhouette.full_report is original


def test_perturbed_report_fails_the_gate(tmp_path):
    workload = SMALL["score"]
    assert run.run_job(workload, tmp_path, 3).errors == []
    path = tmp_path / "report.json"
    original = json.loads(path.read_text())
    for field, change in (
        ("per_point", lambda r: r["per_point"].__setitem__(7, r["per_point"][7] + 1e-9)),
        ("micro", lambda r: r.__setitem__("micro", r["micro"] + 1e-9)),
        ("per_cluster", lambda r: r["per_cluster"].reverse()),
    ):
        payload = json.loads(json.dumps(original))
        change(payload["report"])
        path.write_text(json.dumps(payload))
        assert workload.check(tmp_path, 3), f"a perturbed {field} passed the gate"


def test_swapped_sweep_row_fails_the_gate(tmp_path):
    workload = SMALL["sweep"]
    assert run.run_job(workload, tmp_path, 3).errors == []
    path = tmp_path / "sweep.csv"
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("k,")) + 1
    lines[first + 2], lines[first + 3] = lines[first + 3], lines[first + 2]
    path.write_text("".join(lines))
    assert workload.check(tmp_path, 3)


def test_changed_study_summary_fails_the_gate(tmp_path):
    workload = SMALL["study"]
    assert run.run_job(workload, tmp_path, 3).errors == []
    path = tmp_path / "summary.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)  # the median column
    lines[-1] = ",".join(fields)
    path.write_text("".join(lines))
    assert workload.check(tmp_path, 3)


def test_gate_rejects_output_from_another_seed(workload, tmp_path):
    assert run.run_job(workload, tmp_path, 3).errors == []
    assert any("seed" in error for error in workload.check(tmp_path, 4))


def test_seed_argument_reaches_the_cli_despite_sil_seed(tmp_path):
    # SIL_SEED overrides --seed inside the CLI; run.py must unset it, or
    # every job's config seed would read 99 and fail the gate
    env = dict(os.environ, SIL_SEED="99")
    argv = ["--workload", "sweep-nucleus", "--seed", "5", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), *argv],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    env_line = next(line for line in done.stdout.splitlines() if line.startswith("env "))
    assert json.loads(env_line[4:])["seed"] == 5


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "layers.py", "spans.py"):
        (bench / name).write_bytes((run.ROOT / "bench" / name).read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = ["--workload", "score-nucleus", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from silkit import __version__, cli
from silkit.cli import build_parser, main


def run(argv):
    return main(argv)


def test_gen_even_row_count(tmp_path):
    out = tmp_path / "blobs.csv"
    assert run(["gen", "blobs", "--k", "4", "--n", "200", "--seed", "1", "-o", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 801  # header + 800 points


def test_gen_demo_with_nucleus_extra(tmp_path):
    out = tmp_path / "nucleus.csv"
    assert run(
        ["gen", "blobs", "--k", "12", "--n", "100", "--nucleus-extra", "9900", "-o", str(out)]
    ) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 11_101


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen", "blobs", "--k", "3", "--n", "50", "--seed", "9"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_gen_varied_requires_twelve(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "--k", "5", "--profile", "varied", "-o", str(out)]) == 1
    assert "use --k 12" in _one_error_line(capsys)
    assert not out.exists()


def test_score_single_cluster_is_one_line_error(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("x,y,label\n0,0,3\n1,1,3\n2,0,3\n")
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "-o", str(out)]) == 1
    assert "at least two clusters" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "body, located",
    [
        ("0,0,0\n1,1\n2,2,1\n", "row 2, column 2: 2 cells, expected 3"),
        ("0,0,0\n1,1,1,1\n", "row 2, column 3: 4 cells, expected 3"),
        ("0,0,0\n1,abc,1\n", "row 2, column 1: 'abc' is not a finite number"),
        ("0,,0\n1,1,1\n", "row 1, column 1: '' is not a finite number"),
        ("0,0,0\nnan,1,1\n", "row 2, column 0: 'nan' is not a finite number"),
        ("0,-inf,0\n1,1,1\n", "row 1, column 1: '-inf' is not a finite number"),
        ("0,0,0\n1,1,1.5\n", "row 2, column 2: label '1.5' is not a 64-bit integer"),
    ],
    ids=["short-row", "long-row", "non-numeric", "blank", "nan", "inf", "non-integer-label"],
)
def test_bad_dataset_csv_is_one_located_line(tmp_path, capsys, body, located):
    data = tmp_path / "bad.csv"
    data.write_text("# command=gen\nx0,x1,label\n" + body)
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {data}: {located}"
    assert not out.exists()


def test_dataset_csv_without_feature_column_is_one_line_error(tmp_path, capsys):
    data = tmp_path / "labels_only.csv"
    data.write_text("label\n0\n1\n")
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {data}: no feature column before 'label'"
    assert not out.exists()


@pytest.mark.parametrize("cell", ["inf", "-1e400", "NAN"])
def test_non_finite_schema_cell_is_one_located_line(tmp_path, capsys, cell):
    # "NAN" is not a missing sentinel, so it is a value, and not a finite one
    raw = tmp_path / "raw.csv"
    raw.write_text(f"0.5,a\n{cell},b\n1.5,a\n2.5,b\n")
    schema = tmp_path / "schema.json"
    schema.write_text('{"columns": ["numeric", "label"]}')
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(raw), "--schema", str(schema), "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {raw}: row 2, column 0: {cell!r} is not a finite number"
    assert not out.exists()


def test_sweep_k_max_up_to_n_minus_one(tmp_path, capsys):
    data = tmp_path / "ten.csv"
    run(["gen", "blobs", "--k", "2", "--n", "5", "--seed", "3", "-o", str(data)])
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(data), "--k-max", "9", "-o", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    assert run(["sweep", "--data", str(data), "--k-max", "10", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == "error: --k-max must be at most 9 (one below the 10 rows), got 10"
    assert not out.exists()


def test_score_balanced_toy(tmp_path):
    data = tmp_path / "toy.csv"
    run(["gen", "blobs", "--k", "2", "--n", "30", "--seed", "3", "-o", str(data)])
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["micro"] == pytest.approx(payload["report"]["macro"], abs=1e-12)
    assert payload["config"]["command"] == "score"


def test_score_byte_identical_across_threads(tmp_path):
    data = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "3", "--n", "200", "--seed", "2", "-o", str(data)])
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"report_{threads}.json"
        assert run(["score", "--data", str(data), "--threads", str(threads), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\n1\n", "label file has 2 entries for 60 rows"),
        ("", "label file has 0 entries for 60 rows"),
        ("0\n1.5\n", "could not convert string '1.5' to int64"),
    ],
    ids=["short", "empty", "non-integer"],
)
def test_score_bad_label_file_is_one_line_error(tmp_path, capsys, text, message):
    data = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "2", "--n", "30", "--seed", "1", "-o", str(data)])
    labels = tmp_path / "labels.txt"
    labels.write_text(text)
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "--labels", str(labels), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


def test_score_sampled_balanced_always_defined(tmp_path):
    data = tmp_path / "nuc.csv"
    run(["gen", "blobs", "--k", "12", "--n", "50", "--nucleus-extra", "500",
         "--seed", "0", "-o", str(data)])
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "--sample", "100",
                "--strategy", "balanced", "--seed", "4", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["sample"]["defined"] is True
    assert payload["report"] is not None
    assert min(payload["sample"]["drawn_counts"]) >= 1


def test_score_sampled_uniform_can_be_undefined(tmp_path):
    data = tmp_path / "nuc.csv"
    run(["gen", "blobs", "--k", "12", "--n", "20", "--nucleus-extra", "5000",
         "--seed", "0", "-o", str(data)])
    undefined = 0
    for seed in range(25):
        out = tmp_path / f"r{seed}.json"
        assert run(["score", "--data", str(data), "--sample", "10",
                    "--strategy", "uniform", "--seed", str(seed), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        if not payload["sample"]["defined"]:
            undefined += 1
            assert payload["report"] is None
    assert undefined >= 1


def test_cluster_command(tmp_path):
    data = tmp_path / "toy.csv"
    run(["gen", "blobs", "--k", "3", "--n", "40", "--seed", "5", "-o", str(data)])
    out = tmp_path / "clusters.json"
    assert run(["cluster", "--data", str(data), "--k", "3", "--seed", "1", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 3
    assert len(payload["labels"]) == 120
    assert payload["sse"] >= 0


def test_sweep_single_k(tmp_path):
    data = tmp_path / "toy.csv"
    run(["gen", "blobs", "--k", "4", "--n", "30", "--seed", "6", "-o", str(data)])
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(data), "--k-min", "4", "--k-max", "4",
                "--seed", "2", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("k,")]
    assert len(data_rows) == 1
    assert any(l.startswith("# argmax-micro=4") for l in lines)


def test_sweep_finds_true_k(tmp_path):
    data = tmp_path / "toy.csv"
    run(["gen", "blobs", "--k", "3", "--n", "60", "--seed", "7", "-o", str(data)])
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--data", str(data), "--k-min", "2", "--k-max", "6",
                "--seed", "2", "--format", "json", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["argmax_micro"] == 3
    assert payload["argmax_macro"] == 3


def test_sampled_sweep_losing_clusters_is_one_line_error(tmp_path, capsys):
    data = tmp_path / "nuc.csv"
    run(["gen", "blobs", "--k", "12", "--n", "20", "--nucleus-extra", "2000",
         "--seed", "0", "-o", str(data)])
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(data), "--k-min", "2", "--k-max", "4",
                "--sample", "2", "--strategy", "uniform", "--seed", "1", "-o", str(out)]) == 1
    # the line names no library parameter the CLI user cannot set
    assert _one_error_line(capsys) == "error: subsample at k=2 lost all but one cluster; draw a larger sample"
    assert not out.exists()


def test_cluster_more_clusters_than_distinct_points_is_one_line_error(tmp_path, capsys):
    data = tmp_path / "two.csv"
    data.write_text("x,y,label\n" + "0,0,0\n" * 4 + "1,1,1\n" * 4)
    out = tmp_path / "clusters.json"
    assert run(["cluster", "--data", str(data), "--k", "2", "-o", str(out)]) == 0
    assert run(["cluster", "--data", str(data), "--k", "3", "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the data has fewer than k=3 distinct points"]


def test_env_seed_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["gen", "blobs", "--k", "2", "--n", "20", "--seed", "1", "-o", str(a)])
    monkeypatch.setenv("SIL_SEED", "1")
    run(["gen", "blobs", "--k", "2", "--n", "20", "--seed", "999", "-o", str(b)])
    rows = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert rows(a) == rows(b)


def _recorded_config(path) -> dict:
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["config"]
    lines = [l[2:].split("=", 1) for l in text.splitlines() if l.startswith("# ")]
    return {key: value for key, value in lines}


LEAF_COMMANDS = [
    ["gen", "blobs", "--k", "2", "--n", "10"],
    ["score", "--data", "{data}"],
    ["cluster", "--data", "{data}", "--k", "2"],
    ["sweep", "--data", "{data}", "--k-max", "3"],
    ["nucleus-study", "--sizes", "100", "--threads", "1"],
    ["noise-study", "--levels", "0", "--k-max", "5", "--threads", "1"],
    ["sample-study", "--sizes", "20", "--runs", "2", "--nucleus", "100", "--threads", "1",
     "--summary", "{summary}"],
]


THREADED_COMMANDS = [
    ["score", "--data", "{data}"],
    ["nucleus-study", "--sizes", "100"],
    ["noise-study", "--levels", "0", "--k-max", "3"],
    ["sample-study", "--sizes", "20", "--runs", "2", "--nucleus", "100", "--summary", "{summary}"],
]


@pytest.mark.parametrize("argv", THREADED_COMMANDS, ids=[argv[0] for argv in THREADED_COMMANDS])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_one_line_error(tmp_path, capsys, argv, threads):
    data = tmp_path / "data.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    out = tmp_path / "out.csv"
    filled = [a.format(data=data, summary=tmp_path / "summary.csv") for a in argv]
    assert run(filled + ["--threads", threads, "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: --threads must be at least 1, got {threads}"
    assert not out.exists() and not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=[argv[0] for argv in LEAF_COMMANDS])
def test_env_seed_recorded_by_every_command(tmp_path, monkeypatch, argv):
    data = tmp_path / "data.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    monkeypatch.setenv("SIL_SEED", "7")
    out = tmp_path / ("out.json" if argv[0] in ("score", "cluster") else "out.csv")
    filled = [a.format(data=data, summary=tmp_path / "summary.csv") for a in argv]
    assert run(filled + ["--seed", "1", "-o", str(out)]) == 0
    config = _recorded_config(out)
    assert str(config["seed"]) == "7"
    assert config["command"] == argv[0]


def test_nucleus_study_cli_small(tmp_path):
    out = tmp_path / "nucleus.csv"
    assert run(["nucleus-study", "--sizes", "100,200", "--seed", "0",
                "--threads", "2", "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "nucleus_size,micro_randomized,macro_randomized,micro_truth,macro_truth"
    assert len(lines) == 3


def test_sample_study_cli_small(tmp_path):
    runs_f, summary_f = tmp_path / "runs.csv", tmp_path / "summary.csv"
    assert run(["sample-study", "--sizes", "50,100", "--runs", "3", "--nucleus", "300",
                "--seed", "0", "--threads", "2",
                "-o", str(runs_f), "--summary", str(summary_f)]) == 0
    run_rows = [l for l in runs_f.read_text().splitlines() if not l.startswith("#")]
    assert len(run_rows) == 1 + 2 * 2 * 3  # header + sizes x strategies x runs
    summary_rows = [l for l in summary_f.read_text().splitlines() if not l.startswith("#")]
    assert len(summary_rows) == 1 + 4


def test_sample_study_cell_without_defined_run_has_empty_statistics(tmp_path):
    # at L=2 both strategies draw only nucleus points, so no run is defined
    runs_f, summary_f = tmp_path / "runs.csv", tmp_path / "summary.csv"
    assert run(["sample-study", "--sizes", "2", "--runs", "1", "--nucleus", "1000", "--threads", "1",
                "-o", str(runs_f), "--summary", str(summary_f)]) == 0
    assert _rows(summary_f)[1:] == ["2,uniform,,,,,1", "2,balanced,,,,,1"]
    assert _rows(runs_f)[1:] == ["2,uniform,0,,False", "2,balanced,0,,False"]


def test_noise_study_cli_small(tmp_path):
    out = tmp_path / "noise.csv"
    assert run(["noise-study", "--levels", "0", "--k-min", "2", "--k-max", "5",
                "--seed", "0", "--threads", "1", "-o", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "level_pct,n_noise,estimate_micro,estimate_macro"
    level, n_noise, mi, ma = lines[1].split(",")
    assert (mi, ma) == ("4", "4")


def test_sweep_with_schema_preprocessing(tmp_path):
    # wine-shaped raw CSV: label first, features after, no header
    rng = np.random.default_rng(11)
    lines = []
    for i in range(90):
        label = i % 3
        feats = rng.normal(loc=label * 8.0, scale=0.8, size=4)
        lines.append(",".join([str(label + 1)] + [f"{v:.4f}" for v in feats]))
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": ["label"] + ["numeric"] * 4}))
    out = tmp_path / "sweep.json"
    prepared = tmp_path / "prepared.csv"
    assert run(["sweep", "--data", str(raw), "--schema", str(schema),
                "--prepared-out", str(prepared), "--k-min", "2", "--k-max", "6",
                "--seed", "0", "--format", "json", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["argmax_micro"] == 3
    assert payload["argmax_macro"] == 3
    # audit copy is normalized into [0, 1] and keeps the factorized labels
    body = [l for l in prepared.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 91
    values = np.array([[float(v) for v in row.split(",")[:-1]] for row in body[1:]])
    assert values.min() >= 0.0 and values.max() <= 1.0


@pytest.mark.parametrize(
    "schema_text, fault",
    [
        ('{"header": true}', '"columns" must be a list of strings'),
        ('["numeric", "label"]', "expected a JSON object"),
        ('{"columns": ["numeric", 2]}', '"columns" must be a list of strings'),
        ('{"columns": ["numeric", "label"], "header": "no"}', '"header" must be true or false, got \'no\''),
        ('{"columns": ["numeric", "label"], "missing": "NA"}', '"missing" must be a list of strings'),
        ('{"columns": ["numeric", "label"], "delimiter": ";;"}', '"delimiter" must be one character, got \';;\''),
        ('{"columns": ', "Expecting value: line 1 column 13 (char 12)"),
        ('{"columns": ["numeric", "lable"]}', "unknown column kind 'lable'"),
    ],
    ids=["no-columns", "list", "non-string-kind", "string-header", "string-missing", "long-delimiter",
         "truncated", "unknown-kind"],
)
def test_bad_schema_file_is_one_line_error(tmp_path, capsys, schema_text, fault):
    raw = tmp_path / "raw.csv"
    raw.write_text("x,label\n1,a\n2,b\n3,a\n4,b\n")
    schema = tmp_path / "schema.json"
    schema.write_text(schema_text)
    out, prepared = tmp_path / "report.json", tmp_path / "prepared.csv"
    argv = ["score", "--data", str(raw), "--schema", str(schema), "--prepared-out", str(prepared)]
    assert run(argv + ["-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: schema {schema}: {fault}"
    assert not out.exists() and not prepared.exists()


def test_non_integer_env_seed_is_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIL_SEED", "abc")
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == "error: SIL_SEED must be an integer, got 'abc'"
    assert not out.exists()


def test_outputs_embed_config_header(tmp_path):
    out = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "2", "--n", "10", "--seed", "3", "-o", str(out)])
    text = out.read_text()
    assert "# command=gen" in text
    assert "# seed=3" in text
    assert "# version=" in text


STUDY_RERUNS = [
    ["sample-study", "--sizes", "40,80", "--runs", "4", "--nucleus", "250", "--summary", "{summary}"],
    ["nucleus-study", "--sizes", "100,200"],
    ["noise-study", "--levels", "0,20", "--k-max", "5"],
]


def test_study_reruns_byte_identical_across_threads(tmp_path):
    for argv in STUDY_RERUNS:
        outs = []
        for threads in ("1", "3"):
            folder = tmp_path / f"{argv[0]}_{threads}"
            folder.mkdir()
            filled = [a.format(summary=folder / "summary.csv") for a in argv]
            assert run([*filled, "--seed", "5", "--threads", threads, "-o", str(folder / "out.csv")]) == 0
            outs.append({f.name: f.read_bytes() for f in folder.iterdir()})
        # headers record the threads flag? they must not, to stay byte-identical
        assert outs[0] == outs[1], argv[0]


def test_non_finite_result_is_one_error_line_and_no_file(tmp_path, capsys, monkeypatch):
    data = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "2", "--n", "10", "-o", str(data)])
    capsys.readouterr()
    nan_report = SimpleNamespace(to_dict=lambda: {"micro": float("nan")})
    monkeypatch.setattr(cli, "full_report", lambda *args: nan_report)
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(data), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out}: a NaN or infinite result cannot be written as JSON"
    ]
    assert not out.exists()


# the line for a size below 2, then each command's for a size above its bound
SAMPLE_SIZE_ERRORS = {
    "low": "error: --sample must be at least 2, got {}",
    "score": "error: --sample must be at most 120 (the 120 rows), got {}",
    "sweep": "error: --sample must be at most 119 (one below the 120 rows; omit it to score in full), got {}",
}


@pytest.mark.parametrize(
    "command, size",
    [("score", "0"), ("score", "1"), ("score", "121"), ("sweep", "0"), ("sweep", "1")],
)
def test_sample_size_out_of_range_is_one_line_error(tmp_path, capsys, command, size):
    data = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "3", "--n", "40", "-o", str(data)])
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run([command, "--data", str(data), "--sample", size, "-o", str(out)]) == 1
    assert _one_error_line(capsys) == SAMPLE_SIZE_ERRORS["low" if int(size) < 2 else command].format(size)
    assert not out.exists()


@pytest.mark.parametrize("size", ["120", "121"])
def test_sweep_sample_of_row_count_is_one_line_error(tmp_path, capsys, size):
    # a sweep sample of every row is not a silent full scoring
    data = tmp_path / "blobs.csv"
    run(["gen", "blobs", "--k", "3", "--n", "40", "-o", str(data)])
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(data), "--k-max", "4", "--sample", size, "-o", str(out)]) == 1
    assert _one_error_line(capsys) == SAMPLE_SIZE_ERRORS["sweep"].format(size)
    assert not out.exists()


def test_schema_is_recorded(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("1,0.0,5.0\n2,1.0,0.0\n1,0.2,4.0\n2,0.9,1.0\n1,0.1,6.0\n2,1.1,0.5\n")
    configs, micros = [], []
    for kinds in (["numeric", "numeric"], ["numeric", "ignore"]):
        schema = tmp_path / f"schema_{len(configs)}.json"
        schema.write_text(json.dumps({"columns": ["label", *kinds]}))
        out = tmp_path / f"report_{len(configs)}.json"
        assert run(["score", "--data", str(raw), "--schema", str(schema), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        configs.append(payload["config"])
        micros.append(payload["report"]["micro"])
        assert configs[-1]["schema"] == str(schema)
    assert configs[0] != configs[1] and micros[0] != micros[1]


@pytest.mark.parametrize("layout", [["--profile", "varied"], ["--nucleus-extra", "5"]])
def test_gen_stddev_with_varied_layout_is_one_line_error(tmp_path, capsys, layout):
    # the varied layout has its own stddevs, so --stddev would change nothing
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "--k", "12", "--n", "10", *layout, "--stddev", "5", "-o", str(out)]) == 1
    assert _one_error_line(capsys).startswith("error: --stddev sets the even profile only")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise-pct", "--nucleus-extra"])
def test_gen_negative_amount_is_one_line_error(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "--k", "12", flag, "-5", "-o", str(out)]) == 1
    assert _one_error_line(capsys).startswith(f"error: {flag} must be ")
    assert not out.exists()


@pytest.mark.parametrize("pad", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "blobs", "--k", "2", "--n", "5"],
        ["gen", "blobs", "--k", "2", "--n", "5", "--noise-pct", "50"],
        ["noise-study", "--levels", "0,50", "--k-max", "3", "--threads", "1"],
    ],
    ids=["gen-no-noise", "gen", "noise-study"],
)
def test_bad_noise_pad_is_one_line_error(tmp_path, capsys, argv, pad):
    out = tmp_path / "x.csv"
    assert run(argv + ["--noise-pad", pad, "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: noise pad must be a finite number >= 0, got {float(pad)}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "blobs", "--k", "2", "--n", "5", "--noise-pct", "50"],
        ["noise-study", "--levels", "10", "--k-max", "3", "--threads", "1"],
    ],
    ids=["gen", "noise-study"],
)
def test_overflowing_noise_pad_is_one_line_error(tmp_path, capsys, argv):
    # a finite pad whose noise box overflows: no RuntimeWarning (an error
    # in this suite) and no traceback, one line naming the pad
    out = tmp_path / "x.csv"
    assert run(argv + ["--noise-pad", "1e308", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == "error: noise pad must keep the noise box finite, got 1e+308"
    assert not out.exists()


SEED_FLAGS = [(argv, "--seed") for argv in LEAF_COMMANDS] + [
    (["noise-study", "--levels", "0", "--k-max", "3", "--threads", "1"], "--cluster-seed"),
    (LEAF_COMMANDS[-1], "--sample-seed-base"),
]


@pytest.mark.parametrize("argv, flag", SEED_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in SEED_FLAGS])
def test_negative_seed_is_one_line_error(tmp_path, capsys, argv, flag):
    data = tmp_path / "data.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    out = tmp_path / "out.csv"
    filled = [a.format(data=data, summary=tmp_path / "summary.csv") for a in argv]
    assert run(filled + [flag, "-1", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {flag} must be at least 0, got -1"
    assert not out.exists() and not (tmp_path / "summary.csv").exists()


def test_negative_env_seed_is_one_line_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIL_SEED", "-3")
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "--seed", "4", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == "error: SIL_SEED must be at least 0, got -3"
    assert not out.exists()


def test_negative_seed_is_one_line_error_under_env_seed(tmp_path, capsys, monkeypatch):
    # SIL_SEED overrides --seed, but a bad --seed is bad whatever overrides it
    monkeypatch.setenv("SIL_SEED", "5")
    out = tmp_path / "x.csv"
    assert run(["gen", "blobs", "--seed", "-1", "-o", str(out)]) == 1
    assert _one_error_line(capsys) == "error: --seed must be at least 0, got -1"
    assert not out.exists()


# argparse's own errors: each is one line naming the flag or command, and
# --version (None) prints the version and exits 0
ARGPARSE_ENDINGS = [
    (["gen", "blobs", "--bogus", "-o", "out.csv"], "--bogus"),
    *[(argv, "-o/--output") for argv in LEAF_COMMANDS],
    (["gen", "blobs", "--k", "x", "-o", "out.csv"], "--k: invalid int value: 'x'"),
    (["sample-study", "--sizes", "5,abc", "--summary", "{summary}", "-o", "out.csv"], "--sizes"),
    (["frob"], "'frob'"),
    ([], "command"),
    (["--version"], None),
]


@pytest.mark.parametrize(
    "argv, named",
    ARGPARSE_ENDINGS,
    ids=["unknown-flag", *(f"{argv[0]}-no-output" for argv in LEAF_COMMANDS), "k-not-int",
         "sizes-not-int", "unknown-command", "no-command", "version"],
)
def test_argparse_error_is_one_line(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    filled = [a.format(data="data.csv", summary="summary.csv") for a in argv]
    if named is None:
        with pytest.raises(SystemExit) as exit_info:
            run(filled)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"silkit {__version__}\n"
        return
    assert run(filled) == 1
    assert named in _one_error_line(capsys)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "kinds, fault",
    [
        (["ignore", "label"], "table has no feature columns"),
        (["numeric", "label"], "column 'c0' has no present values to impute from"),
    ],
    ids=["no-features", "all-missing"],
)
def test_table_level_schema_error_names_the_file(tmp_path, capsys, kinds, fault):
    raw = tmp_path / "raw.csv"
    raw.write_text("?,a\n?,b\n?,a\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": kinds}))
    out = tmp_path / "report.json"
    assert run(["score", "--data", str(raw), "--schema", str(schema), "-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {raw}: {fault}"
    assert not out.exists()


# Every command on small inputs, with relative paths so the recorded configs
# do not depend on the working directory. The digests are those of the
# outputs written before the config recorder and row writer were shared;
# only the three --schema outputs changed since, by their "schema" entry,
# and nucleus.csv, whose --nucleus-extra run records profile=varied.
GOLDEN_RUNS = [
    ["gen", "blobs", "--k", "3", "--n", "40", "--seed", "1", "-o", "even.csv"],
    ["gen", "blobs", "--k", "3", "--n", "40", "--noise-pct", "20", "--seed", "2", "-o", "noisy.csv"],
    ["gen", "blobs", "--k", "12", "--n", "20", "--nucleus-extra", "200", "--seed", "3", "-o", "nucleus.csv"],
    ["score", "--data", "even.csv", "-o", "score.json"],
    ["score", "--data", "nucleus.csv", "--threads", "1", "-o", "score_t1.json"],
    ["score", "--data", "nucleus.csv", "--sample", "60", "--seed", "4", "-o", "score_balanced.json"],
    ["score", "--data", "nucleus.csv", "--sample", "60", "--strategy", "uniform", "--seed", "4",
     "-o", "score_uniform.json"],
    ["score", "--data", "raw.csv", "--schema", "schema.json", "--prepared-out", "prepared.csv",
     "-o", "score_schema.json"],
    ["cluster", "--data", "even.csv", "--k", "3", "--seed", "1", "-o", "cluster.json"],
    ["cluster", "--data", "raw.csv", "--schema", "schema.json", "--k", "3", "-o", "cluster_schema.json"],
    ["sweep", "--data", "even.csv", "--k-max", "5", "-o", "sweep.csv"],
    ["sweep", "--data", "even.csv", "--k-max", "5", "--format", "json", "-o", "sweep.json"],
    ["sweep", "--data", "nucleus.csv", "--k-max", "4", "--sample", "80", "-o", "sweep_sample.csv"],
    ["sweep", "--data", "even.csv", "--k-max", "4", "--sample", "80", "--strategy", "uniform",
     "-o", "sweep_uniform.csv"],
    ["sweep", "--data", "raw.csv", "--schema", "schema.json", "--k-max", "4", "-o", "sweep_schema.csv"],
    ["nucleus-study", "--sizes", "100,200", "--threads", "2", "-o", "nucleus_study.csv"],
    ["noise-study", "--levels", "0,20", "--k-max", "5", "--threads", "2", "-o", "noise_study.csv"],
    ["sample-study", "--sizes", "20,40", "--runs", "3", "--nucleus", "200", "--threads", "2",
     "-o", "sample_runs.csv", "--summary", "sample_summary.csv"],
]

def _ran_on() -> str:
    # a failing byte pin names both installs, as bytes may differ on another
    # Python or numpy than the one the pins were captured on
    return f"pinned on Python 3.11.7, numpy 2.4.6; ran on Python {sys.version}, numpy {np.__version__}"


GOLDEN_DIGESTS = {
    "cluster.json": "04b847ba37006699fb4af28c84d4355171990516a3601e0bebfda90206eb5287",
    "cluster_schema.json": "3be07a8250715c98fb9eea104df5b9c4ecc8e3cd4add70bb6f77c11c66ae69fc",
    "even.csv": "cd9945a341613f55cf6727368efad7de18b7a65a93811d4e0a59d3c70ef4aca6",
    "noise_study.csv": "f922d1d7202ae4265ab8a386b167081514fc344b112dd18f9314619a98123a63",
    "noisy.csv": "4e0b194642d0e4a295a8aa4d649466740919527a1c06f357fd036e0af22c14b5",
    "nucleus.csv": "8de51717da639e85fc193c6c75d7f00b9fa0aab4fbb00a4756fe63c9e69e5d68",
    "nucleus_study.csv": "cc74745bb5fe064ae1de3d31fa47599ed12b7712505349d0bc0285190135b3ca",
    "prepared.csv": "5a7047f89acb6dc0a8f6f3e981482cd2b93d4bd62be9f8dca78e525f9f812513",
    "sample_runs.csv": "1d96340c4f67eacee1b811eb18ecf85d790a145e62c67bc423a820dc29782e42",
    "sample_summary.csv": "727570f319dbc9d9b274d02b47b9496df36977299a373fd22a081584d1adc5b6",
    "score.json": "372c43f21d97fc01166bb5c001b605f7be2ff225df92bf98745f63cc5e52aeee",
    "score_balanced.json": "57a099bfd618207f3fa67607232459e3a48c554b7486362ee5497b793523e66c",
    "score_schema.json": "d8175b178aa0ec4c2bb747a2e5a66a5f01d302c4fc69a58fd072c63aa38ed961",
    "score_t1.json": "c1bc74a779c3592c2d2b30f88b1fe1faaed8274efb922a6c1d2d56a503449a05",
    "score_uniform.json": "b294abce62b51f684f2724f4c033af6eeba5b76945a07de335958b8646163c2d",
    "sweep.csv": "1f11338aeb39ee34a311e8de2b7dbdb761ef6ee55c817561627c8b10323dd258",
    "sweep.json": "c82d461961f586f4e466e280c6528f92d6ba18885f9d144c6d46de45e2fe78c0",
    "sweep_sample.csv": "971d7aa1eef34adeb26d7f816ef1125fa55781594cac4b5aebeeded300dbdb4f",
    "sweep_schema.csv": "da23902109de83a8a0f3050f0df74d7041a85680cf1b8723adad6564e406f913",
    "sweep_uniform.csv": "71a6c65c812d0242880bdb8cd96458544e992aed9e442dfbb57bf4b283f42ec1",
}


def test_outputs_match_parent_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SIL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    lines = []
    for i in range(60):
        feats = rng.normal(loc=(i % 3) * 8.0, scale=0.8, size=3)
        lines.append(",".join([str(i % 3 + 1)] + [f"{v:.4f}" for v in feats]))
    Path("raw.csv").write_text("\n".join(lines) + "\n")
    Path("schema.json").write_text(json.dumps({"columns": ["label"] + ["numeric"] * 3}))
    for argv in GOLDEN_RUNS:
        assert run(argv) == 0, argv
    digests = {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS, _ran_on()


def _actions_digest(command: str) -> str:
    """sha256 of a leaf parser's actions: each one's option strings, dest,
    metavar, choices, default, required flag and help, in order. A changed
    flag, choice, default or help string shows here; argparse's layout of
    the --help text, which differs between Python versions, does not."""
    parser = build_parser()
    for name in command.split():
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    fields = [
        [a.option_strings, a.dest, a.metavar, a.choices, a.default, a.required, a.help]
        for a in parser._actions
    ]
    return hashlib.sha256(json.dumps(fields, default=repr).encode()).hexdigest()


HELP_DIGESTS = {
    "gen blobs": "3623060b55b9492c80a8b32753fb5848054b030caed3fe08ccf449873ff56ae6",
    "score": "b2d8412ff167e73f0cc8164d5c3851dfb2df9682a4c347c88fe5d9ab8a827d66",
    "cluster": "ab3d36b827771cf0d627004cd0eb23c152ff323e58880c346ef6dd11d6e8ad78",
    "sweep": "1711c859c89cc37e2f00419982ab55175e08ef26750986578214c54f8b06c0c3",
    "nucleus-study": "8fdb3ff3172bacafb58f40e4d03cc0c54e04e348b5a59d605ae786f5671f7491",
    "noise-study": "f6ffb7c9c92012efe5145bd9d134912caaa06ffe9ab485a54f1511da18054f16",
    "sample-study": "71d6971c2a519b7c4b11880e6b94e0adc83da438bd3d285201255483fe20e22e",
}


@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_leaf_help_is_pinned(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run(command.split() + ["--help"])
    assert exit_info.value.code == 0
    assert _actions_digest(command) == HELP_DIGESTS[command], _ran_on()


# Every recorded key shapes the output: for each leaf command, each recorded
# key is changed to another valid value, and the run must either write other
# rows or fail with one error line. The table gives each key's other value.
OTHER_VALUES = {
    "gen": {
        "k": "3", "n": "11", "profile": "varied", "nucleus-extra": "3", "noise-pct": "10",
        "noise-pad": "0.5", "stddev": "2", "seed": "1",
    },
    "score": {"data": "{other}", "labels": "{labels}", "sample": "20", "strategy": "uniform"},
    "cluster": {"data": "{other}", "k": "3", "candidates": "1", "seed": "1"},
    "sweep": {
        "data": "{other}", "k-min": "3", "k-max": "4", "sample": "20", "strategy": "uniform",
        "candidates": "1", "seed": "1",
    },
    "nucleus-study": {"sizes": "200", "seed": "1"},
    "noise-study": {
        "levels": "10", "k-min": "5", "k-max": "3", "noise-pad": "0.5",
    },
    "sample-study": {
        "sizes": "30", "runs": "3", "nucleus": "150", "statistic": "micro",
        "sample-seed-base": "1", "seed": "1",
    },
}
# recorded keys that no other value of theirs can change, and why
EXEMPT_KEYS = {
    "version": "the package version, which no argument sets",
    "command": "the command itself; each command is one entry of LEAF_COMMANDS",
    "argmax-micro": "a result of the sweep, recorded beside its arguments",
    "argmax-macro": "a result of the sweep, recorded beside its arguments",
    "full-score": "a result of the study, recorded beside its arguments",
}
EXEMPT_COMMAND_KEYS = {
    # the score-nucleus benchmark gate reads config.seed from an unsampled
    # score, and SIL_SEED applies to every command, so --seed stays accepted
    ("score", "seed"): "an unsampled score draws nothing; its --seed is only recorded",
    # both seeds shape the blobs, the noise and the clusterings, but a row
    # holds only the argmax k of each aggregation, which is meant to be
    # stable under those draws
    ("noise-study", "seed"): "the rows are k estimates, robust to the blob and noise draws",
    ("noise-study", "cluster-seed"): "the rows are k estimates, robust to the clustering draws",
}


def _rows(path: Path):
    """The output without its recorded config: JSON minus "config", or the
    CSV lines that are not "# key=value" lines."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop("config")
        return payload
    return [line for line in path.read_text().splitlines() if not line.startswith("# ")]


def _with_value(argv: list[str], key: str, value: str) -> list[str]:
    flag = f"--{key}"
    if flag in argv:
        at = argv.index(flag) + 1
        return argv[:at] + [value] + argv[at + 1 :]
    return argv + [flag, value]


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=[argv[0] for argv in LEAF_COMMANDS])
def test_every_recorded_key_shapes_the_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("SIL_SEED", raising=False)
    # eight equal blobs on a ring: 2-means has four near-equal splits, and
    # the clustering seed and candidate count pick among them
    data, other = tmp_path / "data.csv", tmp_path / "other.csv"
    run(["gen", "blobs", "--k", "8", "--n", "10", "-o", str(data)])
    run(["gen", "blobs", "--k", "8", "--n", "10", "--seed", "1", "-o", str(other)])
    labels = tmp_path / "labels.txt"
    n = len(_rows(data)) - 1
    labels.write_text("".join(f"{i % 3}\n" for i in range(n)))
    fill = {"data": data, "other": other, "labels": labels, "summary": tmp_path / "summary.csv"}
    command = argv[0]
    out = tmp_path / ("out.json" if command in ("score", "cluster") else "out.csv")
    base = [a.format(**fill) for a in argv] + ["-o", str(out)]
    assert run(base) == 0
    expected = _rows(out)
    recorded = set(_recorded_config(out))
    others = OTHER_VALUES[command]
    exempt = set(EXEMPT_KEYS) | {key for cmd, key in EXEMPT_COMMAND_KEYS if cmd == command}
    assert recorded - exempt == set(others)
    capsys.readouterr()
    for key, value in others.items():
        out.unlink(missing_ok=True)
        code = run(_with_value(base, key, value.format(**fill)))
        if code == 0:
            assert _rows(out) != expected, f"--{key} {value} changed nothing"
        else:
            assert code == 1 and _one_error_line(capsys), key
            assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", "--data", "{data}", "--strategy", "uniform"],
         "--strategy picks how --sample draws, so it needs --sample"),
        (["sweep", "--data", "{data}", "--k-max", "3", "--strategy", "balanced"],
         "--strategy picks how --sample draws, so it needs --sample"),
        (["gen", "blobs", "--k", "2", "--n", "5", "--noise-pad", "0.5"],
         "--noise-pad sizes the noise box, so it needs --noise-pct above 0"),
        (["noise-study", "--levels", "0", "--k-max", "3", "--threads", "1", "--noise-pad", "0.5"],
         "--noise-pad sizes the noise box, so it needs a level above 0"),
        (["gen", "blobs", "--k", "12", "--n", "5", "--profile", "even", "--nucleus-extra", "3"],
         "--nucleus-extra grows the varied layout's nucleus; it cannot go with --profile even"),
    ],
    ids=["score-strategy", "sweep-strategy", "gen-noise-pad", "noise-study-noise-pad", "gen-profile"],
)
def test_argument_that_shapes_nothing_is_one_line_error(tmp_path, capsys, argv, message):
    data = tmp_path / "data.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert run([a.format(data=data) for a in argv] + ["-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command", [["score"], ["cluster", "--k", "2"], ["sweep", "--k-max", "3"]])
def test_prepared_out_without_schema_is_one_line_error(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    capsys.readouterr()
    out, prepared = tmp_path / "out.json", tmp_path / "prepared.csv"
    argv = [*command, "--data", str(data), "--prepared-out", str(prepared), "-o", str(out)]
    assert run(argv) == 1
    assert _one_error_line(capsys) == (
        "error: --prepared-out writes the --schema preprocessing, so it needs --schema"
    )
    assert not out.exists() and not prepared.exists()


def test_gen_nucleus_extra_records_the_varied_profile(tmp_path):
    implied, explicit = tmp_path / "implied.csv", tmp_path / "explicit.csv"
    argv = ["gen", "blobs", "--k", "12", "--n", "5", "--nucleus-extra", "3"]
    assert run(argv + ["-o", str(implied)]) == 0
    assert run(argv + ["--profile", "varied", "-o", str(explicit)]) == 0
    assert "# profile=varied\n" in implied.read_text()
    assert implied.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "blobs", "--k", "0"], "--k must be at least 1, got 0"),
        (["gen", "blobs", "--n", "0"], "--n must be at least 1, got 0"),
        (["cluster", "--data", "{data}", "--k", "0"], "--k must be at least 1, got 0"),
        (["cluster", "--data", "{data}", "--k", "2", "--candidates", "0"],
         "--candidates must be at least 1, got 0"),
        (["sweep", "--data", "{data}", "--k-max", "3", "--candidates", "0"],
         "--candidates must be at least 1, got 0"),
        (["sample-study", "--nucleus", "0", "--threads", "1", "--summary", "{summary}"],
         "--nucleus must be at least 100, got 0"),
        (["sample-study", "--runs", "0", "--threads", "1", "--summary", "{summary}"],
         "--runs must be at least 1, got 0"),
        (["nucleus-study", "--sizes", "200,50", "--threads", "1"], "--sizes must be at least 100, got 50"),
        (["noise-study", "--levels", "0,100", "--threads", "1"], "--levels must be in [0, 100), got 100.0"),
        (["nucleus-study", "--sizes", ",", "--threads", "1"], "--sizes needs at least one value"),
        (["sample-study", "--sizes", ",", "--nucleus", "100", "--threads", "1", "--summary", "{summary}"],
         "--sizes needs at least one value"),
        (["noise-study", "--levels", ",", "--threads", "1"], "--levels needs at least one value"),
        (["sweep", "--data", "{data}", "--k-min", "1"], "--k-min must be at least 2, got 1"),
        (["sweep", "--data", "{data}", "--k-max", "30"], "--k-max must be at most 29 (one below the 30 rows), got 30"),
        (["sweep", "--data", "{data}", "--k-min", "5", "--k-max", "3"], "--k-max must be at least 5, got 3"),
        (["noise-study", "--levels", "0", "--k-max", "1", "--threads", "1"], "--k-max must be at least 2, got 1"),
        (["noise-study", "--levels", "20,10", "--k-max", "900", "--threads", "1"],
         "--k-max must be at most 888 (one below the 889 rows at --levels 10), got 900"),
        (["cluster", "--data", "{data}", "--k", "31"], "--k must be at most 30 (the 30 rows), got 31"),
        (["score", "--data", "{data}", "--sample", "1"], "--sample must be at least 2, got 1"),
        (["score", "--data", "{data}", "--sample", "31"], "--sample must be at most 30 (the 30 rows), got 31"),
        (["sweep", "--data", "{data}", "--k-max", "3", "--sample", "1"], "--sample must be at least 2, got 1"),
        (["sample-study", "--sizes", "1", "--nucleus", "100", "--threads", "1", "--summary", "{summary}"],
         "--sizes must be at least 2, got 1"),
        (["sample-study", "--sizes", "50,5000", "--nucleus", "100", "--threads", "1", "--summary", "{summary}"],
         "--sizes must be at most 1200 (the 1200 rows at --nucleus 100), got 5000"),
        (["gen", "blobs", "--stddev", "-1"], "--stddev must be finite and above 0, got -1.0"),
        (["gen", "blobs", "--stddev", "nan"], "--stddev must be finite and above 0, got nan"),
        (["gen", "blobs", "--stddev", "inf"], "--stddev must be finite and above 0, got inf"),
    ],
    ids=["gen-k", "gen-n", "cluster-k", "cluster-candidates", "sweep-candidates", "sample-study-nucleus",
         "sample-study-runs", "nucleus-study-sizes", "noise-study-levels", "nucleus-study-no-sizes",
         "sample-study-no-sizes", "noise-study-no-levels", "sweep-k-min", "sweep-k-max-rows",
         "sweep-k-max-below-k-min", "noise-study-k-max", "noise-study-k-max-rows", "cluster-k-rows", "score-sample-low",
         "score-sample-rows", "sweep-sample-low", "sample-study-sizes-low", "sample-study-sizes-rows",
         "gen-stddev-negative", "gen-stddev-nan", "gen-stddev-inf"],
)
def test_bad_flag_value_is_one_line_naming_the_flag(tmp_path, capsys, argv, message):
    # a static bound (an empty list included) is checked as its flag is
    # parsed, and a bound on another flag or on the data in its command;
    # either way the line names the flag as typed, not a library parameter
    data, summary = tmp_path / "data.csv", tmp_path / "summary.csv"
    run(["gen", "blobs", "--k", "2", "--n", "15", "-o", str(data)])
    capsys.readouterr()
    out = tmp_path / "out.csv"
    filled = [a.format(data=data, summary=summary) for a in argv]
    assert run(filled + ["-o", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {message}"
    assert not out.exists() and not summary.exists()


# error lines no other test reaches, and gen's one-cluster layout, which
# succeeds: each case writes its files, runs from their directory, and
# ends in its one error line, or in exit 0 when the message is None
@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"raw.csv": "1,2\n3,4\n5,7\n", "schema.json": '{"columns": ["numeric", "numeric"]}'},
         ["score", "--data", "raw.csv", "--schema", "schema.json"],
         "dataset has no label column; pass --labels"),
        ({"head.csv": "# command=gen\nx0,x1,label\n"}, ["score", "--data", "head.csv"],
         "head.csv: expected a header row and at least one data row"),
        ({"z.csv": "x0,x1,z\n0,0,0\n1,1,1\n"}, ["score", "--data", "z.csv"],
         "z.csv: last column must be 'label', got 'z'"),
        ({"d.csv": "x0,x1,label\n0,0,0\n1,1,1\n2,0,0\n3,1,1\n", "one.txt": "7\n7\n7\n7\n"},
         ["score", "--data", "d.csv", "--labels", "one.txt", "--sample", "3", "--strategy", "balanced"],
         "balanced sampling requires at least two clusters"),
        ({}, ["gen", "blobs", "--k", "1", "--n", "5"], None),
    ],
    ids=["schema-without-label", "header-only", "last-column-not-label", "balanced-one-cluster", "gen-k1"],
)
def test_endings_no_other_test_reaches(tmp_path, capsys, monkeypatch, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    out = Path("out.json" if argv[0] == "score" else "out.csv")
    code = run(argv + ["-o", str(out)])
    if message is None:
        assert code == 0
        rows = _rows(out)
        assert rows[0] == "x0,x1,label" and len(rows) == 6
        assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"0"}
    else:
        assert code == 1
        assert _one_error_line(capsys) == f"error: {message}"
        assert not out.exists()

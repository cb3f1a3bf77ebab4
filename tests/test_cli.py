import json
import os

import numpy as np
import pytest

from silkit.cli import main


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


def test_sweep_k_max_up_to_n_minus_one(tmp_path, capsys):
    data = tmp_path / "ten.csv"
    run(["gen", "blobs", "--k", "2", "--n", "5", "--seed", "3", "-o", str(data)])
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(data), "--k-max", "9", "-o", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    assert run(["sweep", "--data", str(data), "--k-max", "10", "-o", str(out)]) == 1
    assert "k_max <= N-1" in _one_error_line(capsys)
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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "lost all but one cluster" in err[0]
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
    ["noise-study", "--levels", "0", "--k-max", "3", "--threads", "1"],
    ["sample-study", "--sizes", "20", "--runs", "2", "--nucleus", "100", "--threads", "1",
     "--summary", "{summary}"],
]


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


def test_study_reruns_byte_identical_across_threads(tmp_path):
    outs = []
    for threads, name in ((1, "t1"), (3, "t3")):
        runs_f = tmp_path / f"runs_{name}.csv"
        summary_f = tmp_path / f"sum_{name}.csv"
        assert run(["sample-study", "--sizes", "40,80", "--runs", "4", "--nucleus", "250",
                    "--seed", "5", "--threads", str(threads),
                    "-o", str(runs_f), "--summary", str(summary_f)]) == 0
        outs.append((runs_f.read_bytes(), summary_f.read_bytes()))
    # headers record the threads flag? they must not, to stay byte-identical
    assert outs[0] == outs[1]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from silkit.core import Dataset
from silkit.ingest import ColumnSchema, load_csv, read_dataset_csv, write_dataset_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_text(tmp_path, text, kinds, **kwargs):
    return load_csv(write(tmp_path, text), ColumnSchema(tuple(kinds), **kwargs))


def test_load_numeric(tmp_path):
    data = load_text(tmp_path, "1,2\n3,4\n5,6\n", ["numeric", "numeric"])
    assert data.points.shape == (3, 2)
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert data.points[2, 1] == 1.0
    assert data.truth_labels is None


def test_load_wine_shaped(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(178):
        label = (i % 3) + 1
        feats = rng.uniform(0, 10, size=13)
        lines.append(",".join([str(label)] + [f"{v:.3f}" for v in feats]))
    path = write(tmp_path, "\n".join(lines) + "\n")
    data = load_csv(path, ColumnSchema(("label",) + ("numeric",) * 13))
    assert data.n == 178
    assert data.points.shape == (178, 13)
    assert data.truth_labels[:3].tolist() == [0, 1, 2]


def test_load_flags_sentinels(tmp_path):
    # "", "NA" and "?" are missing; the column's present values are 4 and 8
    data = load_text(tmp_path, "1,\n2,4\n3,NA\n4,8\n5,?\n", ["numeric", "numeric"])
    assert data.points[:, 1].tolist() == [0.5, 0.0, 0.5, 1.0, 0.5]
    custom = load_text(tmp_path, "-,1\n4,2\n8,3\n", ["numeric", "numeric"], missing_sentinels=("-",))
    assert custom.points[:, 0].tolist() == [0.5, 0.0, 1.0]


def test_load_ragged_rejected(tmp_path):
    path = write(tmp_path, "1,2\n3\n")
    with pytest.raises(ValueError, match="row 2, column 1: 1 cells, expected 2"):
        load_csv(path, ColumnSchema(("numeric", "numeric")))


def test_load_non_numeric_rejected(tmp_path):
    path = write(tmp_path, "1,a\n")
    with pytest.raises(ValueError, match="not numeric"):
        load_csv(path, ColumnSchema(("numeric", "numeric")))


@pytest.mark.parametrize("text", ["", "x,y\n"], ids=["empty", "header-only"])
def test_load_without_data_rows_rejected(tmp_path, text):
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path, ColumnSchema(("numeric", "numeric"), has_header=True))


def test_load_header_and_ignore(tmp_path):
    text = "id,x,grp\n1,0.5,b\n2,0.7,a\n3,0.6,b\n"
    data = load_text(tmp_path, text, ["ignore", "numeric", "categorical"], has_header=True)
    # x, then the indicators grp=a and grp=b
    assert data.points.shape == (3, 3)
    assert data.points[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert data.points[:, 2].tolist() == [1.0, 0.0, 1.0]


def test_load_header_width_must_match_schema(tmp_path):
    path = write(tmp_path, "x\n1,2\n")
    with pytest.raises(ValueError, match="header row, column 1: 1 cells, expected 2"):
        load_csv(path, ColumnSchema(("numeric", "numeric"), has_header=True))


def test_load_without_features_rejected(tmp_path):
    with pytest.raises(ValueError, match="no feature columns"):
        load_text(tmp_path, "1,a\n2,b\n", ["ignore", "label"])


def test_schema_rejects_two_labels():
    with pytest.raises(ValueError):
        ColumnSchema(("label", "label"))
    with pytest.raises(ValueError):
        ColumnSchema(("numeric", "price"))


def test_impute_simple(tmp_path):
    # present values 0, 1, 5: the mean (2) is not the median (1)
    data = load_text(tmp_path, "0,a\n1,a\nNA,a\n5,a\n", ["numeric", "ignore"])
    assert data.points[:, 0].tolist() == [0.0, 0.2, 0.4, 1.0]


def test_impute_identity_when_complete(tmp_path):
    data = load_text(tmp_path, "1,2\n3,4\n", ["numeric", "numeric"])
    assert data.points.tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_impute_two_missing(tmp_path):
    # present values 0, 1, 8: both missing cells take the mean 3
    data = load_text(tmp_path, "0\nNA\n1\n?\n8\n", ["numeric"])
    assert data.points[:, 0].tolist() == [0.0, 0.375, 0.125, 0.375, 1.0]


def test_one_column_blank_line_is_a_missing_cell(tmp_path):
    # present values 1 and 3: the blank line is row 2 and takes their mean 2
    data = load_text(tmp_path, "x\n1\n\n3\n", ["numeric"], has_header=True)
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]
    # with two columns a blank line is no row
    data = load_text(tmp_path, "1,a\n\n3,b\n", ["numeric", "categorical"])
    assert data.n == 2


def test_impute_all_missing_rejected(tmp_path):
    with pytest.raises(ValueError, match="column 'c0' has no present values"):
        load_text(tmp_path, "NA,1\n?,2\n", ["numeric", "numeric"])
    with pytest.raises(ValueError, match="column 'y' has no present values"):
        load_text(tmp_path, "x,y\n1,NA\n2,?\n", ["numeric", "numeric"], has_header=True)


def test_one_hot_basic(tmp_path):
    data = load_text(tmp_path, "b\na\nb\n", ["categorical"])
    assert data.points.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_one_hot_single_value_column(tmp_path):
    # an indicator that is 1 on every row is a constant column, so it maps to 0
    data = load_text(tmp_path, "z,1\nz,2\n", ["categorical", "numeric"])
    assert data.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_one_hot_width_mixed(tmp_path):
    text = "1,y,2,p,3\n2,x,3,p,4\n3,x,4,q,5\n4,z,5,p,6\n"
    kinds = ["numeric", "categorical", "numeric", "categorical", "numeric"]
    data = load_text(tmp_path, text, kinds)
    assert data.points.shape == (4, 3 + 3 + 2)
    # numeric columns first, then g1=x, g1=y, g1=z, then g2=p, g2=q
    assert data.points[:, 3:].tolist() == [
        [0.0, 1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 1.0, 0.0],
    ]


def test_minmax_simple(tmp_path):
    data = load_text(tmp_path, "1\n3\n5\n", ["numeric"])
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_zero(tmp_path):
    data = load_text(tmp_path, "7,1\n7,2\n7,3\n", ["numeric", "numeric"])
    assert data.points[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_minmax_idempotent_on_spanning(tmp_path):
    data = load_text(tmp_path, "0\n0.5\n1\n", ["numeric"])
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_minmax_range_and_extremes(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4)) * 10
    text = "".join(",".join(repr(v) for v in row) + "\n" for row in x.tolist())
    data = load_text(tmp_path, text, ["numeric"] * 4)
    assert data.points.min() >= 0.0
    assert data.points.max() <= 1.0
    for j in range(4):
        assert data.points[:, j].min() == 0.0
        assert data.points[:, j].max() == 1.0


def test_pipeline_preserves_rows(tmp_path):
    data = load_text(tmp_path, "1,a,\n2,b,5\n3,a,6\n", ["numeric", "categorical", "numeric"])
    assert data.n == 3
    assert data.points.shape[1] == 2 + 2  # two numeric + two indicator columns


def test_pipeline_deterministic(tmp_path):
    path = write(tmp_path, "1,a\n2,b\n3,c\n")
    schema = ColumnSchema(("numeric", "categorical"))
    assert np.array_equal(load_csv(path, schema).points, load_csv(path, schema).points)


_CELL_KINDS = st.sampled_from(["numeric", "categorical"])
_NUMBERS = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(_CELL_KINDS, min_size=1, max_size=4),
    n=st.integers(2, 10),
    header=st.booleans(),
    labelled=st.booleans(),
    data=st.data(),
)
def test_load_csv_prepares_every_column(tmp_path_factory, kinds, n, header, labelled, data):
    columns = []  # one list of cells per schema column; None marks a missing cell
    for kind in kinds:
        if kind == "numeric":
            cells = data.draw(st.lists(st.none() | _NUMBERS, min_size=n, max_size=n))
            cells[0] = cells[0] if cells[0] is not None else 1.0  # one present value
        else:
            cells = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
        columns.append(cells)
    labels = data.draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=n, max_size=n))
    schema_kinds = kinds + ["label"] * labelled
    # a missing cell is written "" or "NA"; a one-column row with "" is a blank line
    missing = st.sampled_from(["", "NA"])
    text_columns = [
        [data.draw(missing) if v is None else repr(v) if isinstance(v, float) else v for v in col]
        for col in columns
    ]
    if labelled:
        text_columns.append(labels)
    lines = [",".join(f"h{i}" for i in range(len(schema_kinds)))] * header
    lines += [",".join(col[r] for col in text_columns) for r in range(n)]
    path = tmp_path_factory.mktemp("prop") / "raw.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = load_csv(path, ColumnSchema(tuple(schema_kinds), has_header=header)).points

    assert ((out >= 0.0) & (out <= 1.0)).all()
    for j in range(out.shape[1]):
        col = out[:, j]
        assert (col.min() == 0.0 and col.max() == 1.0) or (col == 0.0).all()

    numeric = [c for k, c in zip(kinds, columns) if k == "numeric"]
    for j, cells in enumerate(numeric):
        raw = np.array([np.nan if v is None else v for v in cells])
        missing = np.isnan(raw)
        mean = raw[~missing].mean()
        raw[missing] = mean
        lo, span = raw.min(), raw.max() - raw.min()
        expected = (raw - lo) / span if span else np.zeros(n)
        assert np.array_equal(out[:, j], expected)
        if missing.any() and span:
            assert (out[missing, j] == (mean - lo) / span).all()

    j = len(numeric)
    for cells in (c for k, c in zip(kinds, columns) if k == "categorical"):
        values = sorted(set(cells))
        block = out[:, j : j + len(values)]
        j += len(values)
        if len(values) == 1:
            assert (block == 0.0).all()  # a constant indicator maps to 0
            continue
        for v, value in enumerate(values):
            assert np.array_equal(block[:, v], [float(c == value) for c in cells])
        assert (block.sum(axis=1) == 1.0).all()
    assert j == out.shape[1]

    truth = load_csv(path, ColumnSchema(tuple(schema_kinds), has_header=header)).truth_labels
    if labelled:
        assert truth.tolist() == [sorted(set(labels)).index(v) for v in labels]
    else:
        assert truth is None


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(10, 3)), truth_labels=rng.integers(0, 3, 10))
    path = tmp_path / "round.csv"
    write_dataset_csv(path, data, header_lines={"seed": 7})
    back = read_dataset_csv(path)
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.truth_labels, data.truth_labels)
    assert path.read_text().startswith("# seed=7\n")


@settings(max_examples=50, deadline=None)
@given(
    points=st.integers(1, 12).flatmap(
        lambda n: arrays(
            np.float64,
            st.tuples(st.just(n), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    ),
    data=st.data(),
)
def test_dataset_csv_roundtrip_exact(tmp_path_factory, points, data):
    # repr writes the shortest string that reads back as the same float, so
    # every value (signed zero, subnormals, extremes) and label survives
    n = len(points)
    labels = data.draw(arrays(np.int64, n, elements=st.integers(-(2**63), 2**63 - 1)))
    path = tmp_path_factory.mktemp("roundtrip") / "data.csv"
    write_dataset_csv(path, Dataset(points, truth_labels=labels))
    back = read_dataset_csv(path)
    assert back.points.tobytes() == points.tobytes()
    assert np.array_equal(back.truth_labels, labels)

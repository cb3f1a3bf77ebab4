import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from silkit.core import Dataset, Labeling
from silkit.ingest import (
    ColumnSchema,
    RawTable,
    impute_mean,
    load_csv,
    minmax_normalize,
    one_hot,
    read_dataset_csv,
    write_dataset_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_numeric(tmp_path):
    path = write(tmp_path, "1,2\n3,4\n5,6\n")
    table = load_csv(path, ColumnSchema(("numeric", "numeric")))
    assert table.numeric.shape == (3, 2)
    assert table.numeric[2, 1] == 6.0


def test_load_wine_shaped(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(178):
        label = (i % 3) + 1
        feats = rng.uniform(0, 10, size=13)
        lines.append(",".join([str(label)] + [f"{v:.3f}" for v in feats]))
    path = write(tmp_path, "\n".join(lines) + "\n")
    schema = ColumnSchema.all_numeric(14, label_column=0)
    table = load_csv(path, schema)
    assert table.n_rows == 178
    assert table.numeric.shape == (178, 13)
    assert len(set(table.labels.tolist())) == 3


def test_load_flags_sentinels(tmp_path):
    path = write(tmp_path, "1,\n2,5\n")
    table = load_csv(path, ColumnSchema(("numeric", "numeric")))
    assert np.isnan(table.numeric[0, 1])
    assert table.numeric[1, 1] == 5.0


def test_load_ragged_rejected(tmp_path):
    path = write(tmp_path, "1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
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
    path = write(tmp_path, "id,x,grp\n1,0.5,a\n2,0.7,b\n")
    schema = ColumnSchema(("ignore", "numeric", "categorical"), has_header=True)
    table = load_csv(path, schema)
    assert table.numeric_names == ["x"]
    assert table.categorical_names == ["grp"]
    assert table.categorical[0].tolist() == ["a", "b"]


def test_schema_rejects_two_labels():
    with pytest.raises(ValueError):
        ColumnSchema(("label", "label"))
    with pytest.raises(ValueError):
        ColumnSchema(("numeric", "price"))


def test_impute_simple():
    table = RawTable(numeric=np.array([[1.0], [np.nan], [3.0]]), numeric_names=["x"])
    out = impute_mean(table)
    assert out.numeric[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_impute_identity_when_complete():
    table = RawTable(numeric=np.array([[1.0, 2.0], [3.0, 4.0]]), numeric_names=["a", "b"])
    out = impute_mean(table)
    assert np.array_equal(out.numeric, table.numeric)


def test_impute_two_missing():
    table = RawTable(
        numeric=np.array([[4.0], [np.nan], [np.nan], [8.0]]), numeric_names=["x"]
    )
    out = impute_mean(table)
    assert out.numeric[:, 0].tolist() == [4.0, 6.0, 6.0, 8.0]


def test_impute_all_missing_rejected():
    table = RawTable(numeric=np.array([[np.nan], [np.nan]]), numeric_names=["x"])
    with pytest.raises(ValueError, match="no present values"):
        impute_mean(table)


def test_one_hot_basic():
    table = RawTable(
        numeric=np.empty((3, 0)),
        numeric_names=[],
        categorical=[np.array(["a", "b", "a"], dtype=object)],
        categorical_names=["g"],
    )
    out = one_hot(table)
    assert out.numeric_names == ["g=a", "g=b"]
    assert out.numeric[:, 0].tolist() == [1.0, 0.0, 1.0]
    assert out.numeric[:, 1].tolist() == [0.0, 1.0, 0.0]


def test_one_hot_single_value_column():
    table = RawTable(
        numeric=np.empty((2, 0)),
        numeric_names=[],
        categorical=[np.array(["z", "z"], dtype=object)],
        categorical_names=["g"],
    )
    out = one_hot(table)
    assert out.numeric[:, 0].tolist() == [1.0, 1.0]


def test_one_hot_width_mixed():
    table = RawTable(
        numeric=np.ones((4, 3)),
        numeric_names=["a", "b", "c"],
        categorical=[
            np.array(["x", "y", "x", "z"], dtype=object),
            np.array(["p", "p", "q", "p"], dtype=object),
        ],
        categorical_names=["g1", "g2"],
    )
    out = one_hot(table)
    assert out.numeric.shape[1] == 3 + 3 + 2


def test_minmax_simple():
    table = RawTable(numeric=np.array([[1.0], [3.0], [5.0]]), numeric_names=["x"])
    data = minmax_normalize(table)
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_zero():
    table = RawTable(numeric=np.array([[7.0], [7.0], [7.0]]), numeric_names=["x"])
    data = minmax_normalize(table)
    assert data.points[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_minmax_idempotent_on_spanning():
    table = RawTable(numeric=np.array([[0.0], [0.5], [1.0]]), numeric_names=["x"])
    data = minmax_normalize(table)
    assert data.points[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_minmax_range_and_extremes():
    rng = np.random.default_rng(1)
    table = RawTable(numeric=rng.normal(size=(50, 4)) * 10, numeric_names=list("abcd"))
    data = minmax_normalize(table)
    assert data.points.min() >= 0.0
    assert data.points.max() <= 1.0
    for j in range(4):
        assert data.points[:, j].min() == 0.0
        assert data.points[:, j].max() == 1.0


def test_minmax_requires_imputed():
    table = RawTable(numeric=np.array([[1.0], [np.nan]]), numeric_names=["x"])
    with pytest.raises(ValueError, match="impute"):
        minmax_normalize(table)


def test_pipeline_preserves_rows(tmp_path):
    path = write(tmp_path, "1,a,\n2,b,5\n3,a,6\n")
    schema = ColumnSchema(("numeric", "categorical", "numeric"))
    table = load_csv(path, schema)
    data = minmax_normalize(one_hot(impute_mean(table)))
    assert data.n == 3
    assert data.points.shape[1] == 2 + 2  # two numeric + two indicator columns


def test_pipeline_deterministic(tmp_path):
    path = write(tmp_path, "1,a\n2,b\n3,c\n")
    schema = ColumnSchema(("numeric", "categorical"))
    a = minmax_normalize(one_hot(impute_mean(load_csv(path, schema))))
    b = minmax_normalize(one_hot(impute_mean(load_csv(path, schema))))
    assert np.array_equal(a.points, b.points)


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

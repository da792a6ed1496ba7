"""CSV and manifest round-trip behavior."""

import json

import numpy as np
import pytest

from lambda_cpt.datasets import manifest_hash, read_csv, run_manifest, write_csv, write_manifest


def test_float_roundtrip_is_exact(tmp_path):
    values = np.array([1.0 / 3.0, 1e-17, 123456.789012345678, -0.0, 2.5])
    path = tmp_path / "data.csv"
    write_csv(path, {"value": values}, "00ff", "roundtrip")
    back = read_csv(path)["value"]
    np.testing.assert_array_equal(back, values)


def test_columns_come_back_as_python_floats_and_strings(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, {"x": np.array([0.5, -2.0]), "n": [1, 2], "label": ["a", "3"]}, "00", "t")
    data = read_csv(path)
    assert data == {"x": [0.5, -2.0], "n": [1.0, 2.0], "label": ["a", "3"]}
    assert [type(cell) for column in data.values() for cell in column] == [float] * 4 + [str] * 2


def test_comment_block_and_header(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, {"a": [1], "b": [2.5], "label": ["x y"]}, "deadbeef", "demo table")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo table"
    assert lines[1] == "# manifest: deadbeef"
    assert lines[2] == "a,b,label"
    data = read_csv(path)
    assert data["a"][0] == 1.0
    assert data["label"] == ["x y"]


def test_numpy_cells_print_as_their_python_counterparts(tmp_path):
    # Rows as lists mix the types cell by cell; a numpy column iterates as
    # numpy scalars too.
    cells = [
        (np.bool_(True), True),
        (np.bool_(False), False),
        (np.int64(-7), -7),
        (np.int64(2**62), 2**62),
        (np.float64(1.0 / 3.0), 1.0 / 3.0),
        (np.float64(-0.0), -0.0),
        (np.float64(1e-300), 1e-300),
        (np.float64(2.0), 2.0),
    ]
    numpy_path, python_path = tmp_path / "numpy.csv", tmp_path / "python.csv"
    write_csv(numpy_path, {"cell": [np_cell for np_cell, _ in cells]}, "00", "t")
    write_csv(python_path, {"cell": [py_cell for _, py_cell in cells]}, "00", "t")
    assert numpy_path.read_bytes() == python_path.read_bytes()
    assert python_path.read_text().splitlines()[3:] == [
        "1", "0", "-7", str(2**62), "0.33333333333333331", "-0", "1e-300", "2"
    ]
    floats = np.array([0.1, 2.0])
    write_csv(numpy_path, {"x": floats, "n": np.arange(2), "b": np.array([True, False])}, "0", "t")
    write_csv(python_path, {"x": [0.1, 2.0], "n": [0, 1], "b": [True, False]}, "0", "t")
    assert numpy_path.read_bytes() == python_path.read_bytes()


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", {}, "00", "empty")
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", {"a": [1, 2], "b": [1]}, "00", "ragged")
    (tmp_path / "empty.csv").write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_csv(tmp_path / "empty.csv")


def test_manifest_hash_depends_on_inputs_and_version():
    assert manifest_hash({"a": 1}, "0.1.0") != manifest_hash({"a": 2}, "0.1.0")
    assert manifest_hash({"a": 1}, "0.1.0") != manifest_hash({"a": 1}, "0.2.0")
    # Key order must not matter: the canonical form is sorted.
    assert manifest_hash({"a": 1, "b": 2}, "1") == manifest_hash({"b": 2, "a": 1}, "1")


def test_write_manifest(tmp_path):
    path = tmp_path / "run.manifest.json"
    write_manifest(path, run_manifest({"n": 3}, "0.1.0"))
    loaded = json.loads(path.read_text())
    assert loaded["inputs"] == {"n": 3}
    assert loaded["version"] == "0.1.0"
    assert loaded["hash"] == manifest_hash({"n": 3}, "0.1.0")

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

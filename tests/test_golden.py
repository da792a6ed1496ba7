"""Golden regression: every shipped config command against tests/golden/.

tests/golden/ holds the out/ tree the shipped configs write. The commands
run in README order from a scratch working directory holding a copy of
configs/, so each fit step reads the dataset its config names, just
written. Byte equality is not portable (the last bit of a float can differ
between machines), so cells are compared with a tolerance: CSV cells within
1e-10 absolute; fit_report.json numbers and the resolved inputs and version
of every manifest, with the same keys, within 1e-8 relative or 1e-8
absolute, whichever is looser (math.isclose with both bounds), so a number
below 1 in size can pass on the absolute bound alone. A manifest's
wall_time_s varies between runs, and a run's hash is not compared because
the default drive theta comes from an eigensolver whose last bit is not
portable either. Each golden manifest's stored hash must instead be the
hash of its own stored inputs and version.

perfbench/golden/ is the benchmark's own copy of the CSVs and fit reports;
it must stay byte-equal to the files of the same path here.
"""

import inspect
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
from conftest import Recorded, recorded

import lambda_cpt.cli as cli
from lambda_cpt import dynamics
from lambda_cpt.datasets import manifest_hash, read_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CSV_TOL = 1e-10
REPORT_TOL = 1e-8


def shipped_commands() -> list[list[str]]:
    """argv of every `lambda-cpt` line in configs/*.ini, configs in README order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    order = re.findall(r"^- `(\w+)\.ini`", readme, flags=re.MULTILINE)
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.ini"))
    assert sorted(order) == shipped, "README must list every shipped config once"
    commands = []
    for name in order:
        text = (ROOT / "configs" / f"{name}.ini").read_text(encoding="utf-8")
        commands += [m.split() for m in re.findall(r"^#\s+lambda-cpt\s+(\S.*)$", text, re.M)]
    return commands


def assert_report_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_report_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_report_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=REPORT_TOL, abs_tol=REPORT_TOL), (where, got, want)
    else:
        assert got == want, where


def test_shipped_configs_reproduce_golden_outputs(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in shipped_commands():
        assert cli.main(argv) == 0, argv

    out = tmp_path / "out"
    golden_files = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    assert golden_files
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == golden_files
    for rel in golden_files:
        if rel.suffix == ".csv":
            got, want = read_csv(out / rel), read_csv(GOLDEN / rel)
            assert list(got) == list(want), rel
            for name, column in want.items():
                if isinstance(column, list):
                    assert got[name] == column, (rel, name)
                else:
                    np.testing.assert_allclose(
                        got[name], column, rtol=0, atol=CSV_TOL, err_msg=f"{rel}:{name}"
                    )
        else:
            got = json.loads((out / rel).read_text(encoding="utf-8"))
            want = json.loads((GOLDEN / rel).read_text(encoding="utf-8"))
            if rel.name.endswith(".manifest.json"):
                got, want = ({key: m[key] for key in ("inputs", "version")} for m in (got, want))
            assert_report_close(got, want, str(rel))


def test_golden_manifests_hash_their_own_fields():
    manifests = sorted(GOLDEN.rglob("*.manifest.json"))
    assert len(manifests) == len(shipped_commands())
    for path in manifests:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        expected = manifest_hash(manifest["inputs"], manifest["version"])
        assert manifest["hash"] == expected, path.relative_to(GOLDEN)


def test_shipped_period_maps_take_no_lapack_call_and_no_matrix_product(tmp_path, monkeypatch):
    """Every shipped command builds A and M by form, with no LAPACK call and no matrix product.

    Each period array reaching :func:`dynamics._write_maps`, which builds
    the maps into the kernel's working set, is Recorded, so every numpy call
    that builds the real maps A and M is logged: the pulse U comes entry by
    entry, and no eigensolver, solve, inverse or product of matrices runs.
    The engine's source names no ``np.linalg`` call at all.
    """
    assert "linalg" not in inspect.getsource(dynamics)
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Recorded, "log", [])
    write_maps = dynamics._write_maps

    def spy(period, a, m, work):
        return write_maps(recorded(period), a, m, work)

    monkeypatch.setattr(dynamics, "_write_maps", spy)
    for argv in shipped_commands():
        assert cli.main(argv) == 0, argv
    names = {name for name, _ in Recorded.log}
    assert "expm1" in names and "arccos" in names
    lapack = {"eigh", "eigvalsh", "eig", "eigvals", "solve", "inv", "svd", "det", "lstsq"}
    products = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", "kron"}
    assert not names & (lapack | products)


def test_perfbench_golden_is_a_copy():
    copy = ROOT / "perfbench" / "golden"
    files = sorted(p.relative_to(copy) for p in copy.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (copy / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel

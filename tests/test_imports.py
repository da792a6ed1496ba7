"""Every name a package module imports is used in that module, every name
its ``__all__`` lists exists and is used by the package itself, and the
package never imports scipy, not even through the CLI (the tests keep it as
an oracle). Each command loads only the layers it runs: the run schema and
the CSV module load no numpy, esr-lines, comb-predict and the contrast fit
run without it, and no simulation loads the fitting module.

No linter runs on this repository, so this keeps the dead imports, stale
``__all__`` entries and test-only functions that a deletion leaves behind
from piling up.
"""

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lambda_cpt import experiments, rate_model
from lambda_cpt.datasets import write_csv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambda_cpt"


def unused_imports(path: Path) -> list[str]:
    """``module:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in unused_imports(path)] == []


def test_every_exported_name_exists():
    stale = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module in [importlib.import_module(f"lambda_cpt.{path.stem}")]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def reads(node: ast.AST, skip: str | None = None) -> set[str]:
    """Every name node reads as an ast.Name or an ast.Attribute, outside the
    top-level def or class statement that defines ``skip``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == skip:
            continue
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        found |= reads(child)
    return found


# rate_model is the paper's closed-form model, which the acceptance criteria
# check the engine against; comb-predict and the contrast fit run two of its
# names, but most of its pumping model has no caller in the package.
EXEMPT = {"rate_model"}


def test_every_exported_name_is_used_by_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    unused = [
        f"{home}.{name}"
        for home in sorted(trees)
        if home not in EXEMPT
        for name in getattr(importlib.import_module(f"lambda_cpt.{home}"), "__all__", ())
        if not any(
            name in reads(other, skip=name if stem == home else None)
            for stem, other in trees.items()
        )
    ]
    assert unused == []


def fresh_interpreter(probe: str, cwd: Path | None = None) -> str:
    """What probe prints in a new interpreter that imports lambda_cpt from src/."""
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_engine_import_leaves_out_scipy():
    # The engine takes its matrix exponentials with numpy alone.
    probe = (
        "import sys, lambda_cpt.cli, lambda_cpt.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_interpreter(probe) == "[]"


def test_schema_and_writer_import_leaves_out_numpy(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, {"x": [0.5, 1.5], "label": ["a", "b"]}, "00", "t")
    probe = (
        "import sys, lambda_cpt.config; from lambda_cpt.datasets import read_csv; "
        f"data = read_csv({str(path)!r}); print(data['x'], 'numpy' in sys.modules)"
    )
    assert fresh_interpreter(probe) == "[0.5, 1.5] False"


def run_in_fresh_interpreter(argv: list[str], module: str, cwd: Path | None = None) -> str:
    """Exit code of main(argv), and whether module is loaded after it."""
    return fresh_interpreter(
        "import sys; from lambda_cpt.cli import main; "
        f"code = main({argv!r}); print(code, {module!r} in sys.modules)",
        cwd,
    )


def test_esr_lines_runs_without_numpy(tmp_path):
    argv = ["esr-lines", "--out", str(tmp_path)]
    assert run_in_fresh_interpreter(argv, "numpy") == "0 False"
    assert (tmp_path / "esr_lines.csv").is_file()


def test_comb_predict_runs_without_numpy(tmp_path):
    argv = ["comb-predict", "--config", str(ROOT / "configs" / "comb_predict.ini")]
    assert run_in_fresh_interpreter([*argv, "--out", str(tmp_path)], "numpy") == "0 False"
    # Header and rows byte for byte; as in test_golden, the comment block is not compared.
    golden = ROOT / "tests" / "golden" / "geometry" / "comb.csv"
    rows = [path.read_text().splitlines()[2:] for path in (tmp_path / "comb.csv", golden)]
    assert rows[0] == rows[1]


def test_contrast_fit_runs_without_numpy(tmp_path):
    # The shipped composition config fits the golden sweep at the path it names.
    data = tmp_path / "out" / "composition"
    data.mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "golden" / "composition" / "composition.csv", data)
    argv = ["fit", "--config", str(ROOT / "configs" / "composition.ini"), "--out", str(data)]
    assert run_in_fresh_interpreter(argv, "numpy", cwd=tmp_path) == "0 False"
    report = json.loads((data / "fit_report.json").read_text())
    assert report["kind"] == "contrast" and report["a"] == pytest.approx(0.78, abs=1e-12)


def test_experiments_binds_the_closed_form_comb():
    assert experiments.comb_predict is rate_model.comb_predict


def test_spectrum_leaves_out_the_fitting_module(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[sequence]\nn_reps = 4\n[scan]\npoints = 5\n")
    argv = ["cpt-spectrum", "--config", str(cfg), "--out", str(tmp_path)]
    assert run_in_fresh_interpreter(argv, "lambda_cpt.fitting") == "0 False"
    assert (tmp_path / "spectrum.csv").is_file()


def imports_scipy(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            names = [sub.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            return True
    return False


def test_package_never_imports_scipy():
    # Function-level imports included: the fits run on numpy alone.
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if imports_scipy(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == []


# fit.kind -> a small dataset it fits.
STEPS = np.arange(20.0)
FIT_DATASETS = {
    "dips": {
        "delta_2_mhz": np.linspace(-0.06, 0.06, 41),
        "signal_norm": 1.0 - 0.8 * np.exp(-np.linspace(-3.0, 3.0, 41) ** 2),
    },
    "saturation": {"step": STEPS, "p_dark_est": 0.88 - 0.38 * np.exp(-STEPS / 2.0)},
    "contrast": {"ratio": [0.25, 0.5, 1.0, 2.0, 4.0], "measured": [0.1, 0.2, 0.5, 0.8, 0.9]},
}


@pytest.mark.parametrize("kind", sorted(FIT_DATASETS))
def test_fit_command_runs_without_scipy(tmp_path, kind):
    write_csv(tmp_path / "data.csv", FIT_DATASETS[kind], "ab", "t")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(f"[fit]\ninput = {tmp_path / 'data.csv'}\nkind = {kind}\n")
    probe = (
        "import sys; from lambda_cpt.cli import main; "
        f"code = main(['fit', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "'numpy.ma' in sys.modules)"
    )
    assert fresh_interpreter(probe) == "0 [] False"
    assert json.loads((tmp_path / "fit_report.json").read_text())["kind"] == kind

"""Every name a package module imports is used in that module, every name
its ``__all__`` lists exists, the CLI imports no more than its commands
need, and one function imports scipy.

No linter runs on this repository, so this keeps the dead imports and stale
``__all__`` entries that a deletion leaves behind from piling up.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambda_cpt"


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


def fresh_interpreter(probe: str) -> str:
    """What probe prints in a new interpreter that imports lambda_cpt from src/."""
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_the_fitter():
    # Only the fit command needs scipy.optimize, about a third of the import time.
    probe = "import sys, lambda_cpt.cli; print('scipy.optimize' in sys.modules)"
    assert fresh_interpreter(probe) == "False"


def test_engine_import_leaves_out_scipy():
    # The engine takes its matrix exponentials with numpy alone; only fit needs scipy.
    probe = (
        "import sys, lambda_cpt.cli, lambda_cpt.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_interpreter(probe) == "[]"



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


def test_one_function_imports_scipy():
    # The least-squares driver is the package's one use of scipy, and the one
    # function an in-package fitter would replace. A module-level scipy import
    # fails test_engine_import_leaves_out_scipy instead.
    importers = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and imports_scipy(node)
    ]
    assert importers == ["fitting._leastsq"]

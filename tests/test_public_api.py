"""The names the package exports, and those the benchmark's checks import.

`perfbench/checks.py` recomputes every benchmark output through the package's
one-point functions; a name removed from the package would break those checks
without failing any other test.
"""
import ast
import importlib
from pathlib import Path

import icobattery

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def test_all_names_resolve():
    assert [name for name in icobattery.__all__ if not hasattr(icobattery, name)] == []


def test_benchmark_check_imports_resolve():
    # read as text, not imported: the checks module stays as it is
    imported = []
    for node in ast.walk(ast.parse(CHECKS.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "icobattery":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "icobattery"]
    assert imported, "no icobattery import found in the benchmark's checks"
    for module, name in imported:
        owner = importlib.import_module(module)     # raises if the module is gone
        assert name is None or hasattr(owner, name), f"{module}.{name}"

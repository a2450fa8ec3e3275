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


def test_public_names_are_the_grid_api_and_the_circuit_round_trip():
    assert sorted(icobattery.__all__) == sorted([
        "ClosedFormReport", "EnergyReport", "Gate", "ModelParams", "ProtocolResult",
        "QuantumCircuit", "angles_of_time", "battery_hamiltonian", "build_ico_circuit",
        "closed_form_report", "dco_zero_window", "emit_qasm", "parse_qasm",
        "report", "report_grid", "run_ico", "run_ico_sweep"])
    assert len(icobattery.__all__) == 17


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

"""Cyclic indefinite-causal-order quantum battery charging toolkit.

Simulates a qubit battery charged by N qubit chargers under a coherent
superposition of cyclic charging orders, accounts for stored energy,
ergotropy and charging efficiency against a definite-order reference, and
provides a gate-level two-charger circuit with shot sampling and
depolarizing noise.
"""

import importlib

from .analytic import ClosedFormReport, closed_form_report, dco_zero_window
from .model import ModelParams
from .protocol import ProtocolResult, run_ico, run_ico_sweep
from .thermo import EnergyReport, report, report_grid

# The circuit and QASM names load on first access (PEP 562): a sweep runs neither.
_LAZY = {"Gate": "circuit", "QuantumCircuit": "circuit", "angles_of_time": "circuit",
         "build_ico_circuit": "circuit", "emit_qasm": "qasm", "parse_qasm": "qasm"}

__all__ = [
    "ClosedFormReport", "EnergyReport", "Gate", "ModelParams", "ProtocolResult",
    "QuantumCircuit", "angles_of_time", "build_ico_circuit", "closed_form_report",
    "dco_zero_window", "emit_qasm", "parse_qasm", "report", "report_grid", "run_ico",
    "run_ico_sweep",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})

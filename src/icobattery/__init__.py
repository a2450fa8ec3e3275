"""Cyclic indefinite-causal-order quantum battery charging toolkit.

Simulates a qubit battery charged by N qubit chargers under a coherent
superposition of cyclic charging orders, accounts for stored energy,
ergotropy and charging efficiency against a definite-order reference, and
provides a gate-level two-charger circuit with shot sampling and
depolarizing noise.
"""

from .analytic import ClosedFormReport, closed_form_report, dco_zero_window
from .circuit import Gate, QuantumCircuit, angles_of_time, build_ico_circuit
from .model import ModelParams, battery_hamiltonian
from .protocol import ProtocolResult, run_ico, run_ico_sweep
from .qasm import emit_qasm, parse_qasm
from .thermo import EnergyReport, report, report_grid

__all__ = [
    "ClosedFormReport", "EnergyReport", "Gate", "ModelParams", "ProtocolResult",
    "QuantumCircuit", "angles_of_time", "battery_hamiltonian", "build_ico_circuit",
    "closed_form_report", "dco_zero_window", "emit_qasm", "parse_qasm",
    "report", "report_grid", "run_ico", "run_ico_sweep",
]

__version__ = "0.1.0"

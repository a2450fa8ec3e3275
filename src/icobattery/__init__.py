"""Cyclic indefinite-causal-order quantum battery charging toolkit.

Simulates a qubit battery charged by N qubit chargers under a coherent
superposition of cyclic charging orders, accounts for stored energy,
ergotropy and charging efficiency against a definite-order reference, and
provides a gate-level two-charger circuit with shot sampling and
depolarizing noise.
"""

from .analytic import (ClosedFormReport, alpha_coeffs, closed_form_grid, closed_form_report,
                       dco_zero_window, interference_term)
from .circuit import (Gate, NoiseSpec, QuantumCircuit, ShotResult, angles_of_time,
                      build_ico_circuit, estimate, sample)
from .model import ModelParams, battery_hamiltonian, pair_hamiltonian, pair_unitary
from .protocol import ProtocolGrid, ProtocolResult, run_ico, run_ico_grid
from .qasm import emit_qasm, parse_qasm
from .thermo import (EnergyReport, daemonic_ergotropy, ergotropy, passive_state, report,
                     report_grid, stored_energy)

__all__ = [
    "ClosedFormReport", "EnergyReport", "Gate", "ModelParams",
    "NoiseSpec", "ProtocolGrid", "ProtocolResult", "QuantumCircuit", "ShotResult",
    "alpha_coeffs", "angles_of_time", "battery_hamiltonian", "build_ico_circuit",
    "closed_form_grid", "closed_form_report", "daemonic_ergotropy", "dco_zero_window",
    "emit_qasm", "ergotropy", "estimate", "interference_term",
    "pair_hamiltonian", "pair_unitary", "parse_qasm", "passive_state", "report", "report_grid",
    "run_ico", "run_ico_grid", "sample", "stored_energy",
]

__version__ = "0.1.0"

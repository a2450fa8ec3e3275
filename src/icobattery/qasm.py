"""OpenQASM 3 emission and the matching reader.

The emitted text declares a 4-qubit register qs with order (D, Q, C1, C2)
and defines xx/yy as gates over stdgates primitives so the program can be
run on an external OpenQASM 3 simulator.  Angles are printed with repr so
re-parsing reproduces the exact floats; output is byte-stable for a fixed
circuit.
"""
from __future__ import annotations

import re

import numpy as np

from .circuit import Gate, QuantumCircuit

_HEADER = """\
OPENQASM 3.0;
include "stdgates.inc";

// exp(-i theta/2 X(x)X) and exp(-i theta/2 Y(x)Y)
gate xx(theta) a, b { h a; h b; cx a, b; rz(theta) b; cx a, b; h a; h b; }
gate yy(theta) a, b { rx(pi/2) a; rx(pi/2) b; cx a, b; rz(theta) b; cx a, b; rx(-pi/2) a; rx(-pi/2) b; }

// qubit order: qs[0]=D (switch), qs[1]=Q (battery), qs[2]=C1, qs[3]=C2
qubit[4] qs;
"""

_MEASUREMENT = """\
// measurement: D in x basis (H then z), Q in z basis
h qs[0];
bit[2] m;
m[0] = measure qs[0];
m[1] = measure qs[1];
"""

_MEASUREMENT_MARKER = "// measurement:"


def emit_qasm(circuit: QuantumCircuit) -> str:
    """The OpenQASM 3 text of one circuit: emit_qasm_grid at one point, each
    gate taking its angle from a slot of its own."""
    template = [(g.kind, g.qubits, None if g.angle is None else i)
                for i, g in enumerate(circuit.gates)]
    return next(emit_qasm_grid(template, [g.angle for g in circuit.gates], 1))


def emit_qasm_grid(template, angles, points: int):
    """emit_qasm at each of `points` grid points, as an iterator of texts, of
    the gates of `template`, (kind, qubits, slot) triples whose slot is None
    or indexes `angles`, each angle a float or one per point, as
    circuit._ICO_TEMPLATE and circuit._ico_angles give them.  Each gate of
    the template is checked as a Gate, with a stand-in angle, before any text
    is made, and each slot's angles are formatted once."""
    lines, slots = [], [slot for *_, slot in template if slot is not None]
    for kind, qubits, slot in template:
        Gate(kind, qubits, None if slot is None else 0.0)
        lines.append(f"{kind}{'' if slot is None else '(%s)'} "
                     f"{', '.join(f'qs[{q}]' for q in qubits)};\n")
    cells = {slot: list(map(float.__repr__, np.broadcast_to(
        np.asarray(angles[slot], dtype=float), (points,)).tolist())) for slot in set(slots)}
    # a %-template: the header's gate bodies hold braces but no %
    text = _HEADER + ("\n// gates\n" + "".join(lines) if lines else "") + "\n" + _MEASUREMENT
    return map(text.__mod__, zip(*map(cells.__getitem__, slots)) if slots else [()] * points)


_GATE_LINE = re.compile(
    r"^(?P<kind>[a-z]+)\s*(?:\((?P<angle>[^)]+)\))?\s*(?P<args>qs\[\d\](?:\s*,\s*qs\[\d\])*)\s*;$"
)


def parse_qasm(text: str) -> QuantumCircuit:
    """Read back a program produced by emit_qasm (gate list only; the fixed
    measurement block is recognized by its marker and skipped)."""
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith(_MEASUREMENT_MARKER):
            break
        if not line or line.startswith(("//", "OPENQASM", "include", "gate ", "qubit")):
            continue
        m = _GATE_LINE.match(line)
        if m is None:
            raise ValueError(f"unrecognized statement: {line!r}")
        qubits = tuple(int(q) for q in re.findall(r"qs\[(\d)\]", m.group("args")))
        angle = float(m.group("angle")) if m.group("angle") is not None else None
        gates.append(Gate(m.group("kind"), qubits, angle))
    return QuantumCircuit(gates=tuple(gates))

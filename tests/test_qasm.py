import numpy as np
import pytest

from circuit_reference import library_gate_matrix
from icobattery.circuit import (_ICO_TEMPLATE, Gate, QuantumCircuit, _ico_angles, angles_of_time,
                                build_ico_circuit)
from icobattery.model import ModelParams
from icobattery import qasm
from icobattery.qasm import emit_qasm, emit_qasm_grid, parse_qasm


def test_empty_circuit_header_only():
    text = emit_qasm(QuantumCircuit(gates=()))
    assert text.startswith("OPENQASM 3.0;")
    assert "qubit[4] qs;" in text
    assert "// gates" not in text
    assert "measure" in text


def test_round_trip_exact():
    circ = build_ico_circuit(*angles_of_time(ModelParams(2, 1.0, 0.1), 7.31))
    parsed = parse_qasm(emit_qasm(circ))
    assert parsed.gates == circ.gates


def test_byte_stable():
    circ = build_ico_circuit(0.123456789, 2.3456789)
    assert emit_qasm(circ) == emit_qasm(circ)


def test_angle_floats_round_trip():
    gates = (Gate("rz", (0,), 0.1 + 0.2), Gate("cp", (1, 2), -np.pi / 7))
    parsed = parse_qasm(emit_qasm(QuantumCircuit(gates=gates)))
    assert parsed.gates[0].angle == gates[0].angle
    assert parsed.gates[1].angle == gates[1].angle


def test_rejects_garbage():
    with pytest.raises(ValueError, match="unrecognized"):
        parse_qasm("OPENQASM 3.0;\nfoo bar;\n")


CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def rx(a):
    return np.array([[np.cos(a / 2), -1j * np.sin(a / 2)],
                     [-1j * np.sin(a / 2), np.cos(a / 2)]])


def rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


@pytest.mark.parametrize("theta", [0.0, 0.37, -1.9, np.pi])
def test_emitted_gate_definitions_are_sound(theta):
    # the gate bodies written into the QASM header must equal the simulator's
    # xx/yy matrices, so an external OpenQASM 3 simulator reproduces simulate()
    i2 = np.eye(2)
    zz = CX @ np.kron(i2, rz(theta)) @ CX
    xx_body = np.kron(H, H) @ zz @ np.kron(H, H)
    assert np.allclose(xx_body, library_gate_matrix(Gate("xx", (0, 1), theta)), atol=1e-12)
    a = rx(-np.pi / 2)
    b = rx(np.pi / 2)
    yy_body = np.kron(a, a) @ zz @ np.kron(b, b)
    assert np.allclose(yy_body, library_gate_matrix(Gate("yy", (0, 1), theta)), atol=1e-12)


@pytest.mark.parametrize("points", [1, 2, 30])
@pytest.mark.parametrize("t_max, omega, coupling", [(4 * np.pi / 0.1, 1.0, 0.1), (1e6, 2.7, 1.3)])
def test_grid_texts_equal_per_circuit_texts(points, t_max, omega, coupling):
    # the grid starts at t = 0, where the negated half-angles are -0.0
    params = ModelParams(2, omega, coupling)
    times = np.linspace(0.0, t_max, points)
    texts = list(emit_qasm_grid(_ICO_TEMPLATE, _ico_angles(*angles_of_time(params, times)), points))
    assert len(texts) == points
    for t, text in zip(times, texts):
        circ = build_ico_circuit(*angles_of_time(params, t))
        assert text == emit_qasm(circ)
        assert parse_qasm(text).gates == circ.gates


def test_grid_of_fixed_gates_repeats_one_text():
    gates = (Gate("h", (0,)), Gate("cz", (1, 3)))
    texts = list(emit_qasm_grid([(g.kind, g.qubits, None) for g in gates], [], 3))
    assert texts == [emit_qasm(QuantumCircuit(gates=gates))] * 3


@pytest.mark.parametrize("broken", [("swap", (0, 1), None), ("rz", (0, 1), 0),
                                    ("cp", (1, 2), None), ("h", (0,), 0)])
def test_grid_checks_the_gate_template(broken):
    with pytest.raises(ValueError):
        emit_qasm_grid([("h", (0,), None), broken], [np.array([0.3, 0.5])], 2)


def gate_statements(text: str) -> list[str]:
    """The gate lines of an emitted program, between "// gates" and the
    measurement block."""
    return text.split("\n// gates\n")[1].split("\n\n")[0].splitlines()


def statements_of(gates) -> list[str]:
    """The gate lines emit_qasm should print for `gates`, each angle by repr."""
    return [f"{g.kind}{'' if g.angle is None else f'({g.angle!r})'} "
            f"{', '.join(f'qs[{q}]' for q in g.qubits)};" for g in gates]


def test_grid_from_zero_prints_each_signed_zero():
    # at t = 0 the charging half-angles are 0.0 and their negations -0.0:
    # equal values, different bits, so one formatted column must not serve both
    params = ModelParams(2, 1.0, 0.1)
    times = np.linspace(0.0, 4 * np.pi / 0.1, 9)
    texts = list(emit_qasm_grid(_ICO_TEMPLATE, _ico_angles(*angles_of_time(params, times)),
                                len(times)))
    assert "xx(-0.0) " in texts[0] and "xx(0.0) " in texts[0]
    for t, text in zip(times, texts):
        circ = build_ico_circuit(*angles_of_time(params, t))
        assert text.encode() == emit_qasm(circ).encode()
        assert gate_statements(text) == statements_of(circ.gates)
        assert parse_qasm(text).gates == circ.gates


def test_grid_equal_columns_from_separate_arrays():
    # equal columns in separate slots, a float slot, and a slot shared by two gates
    a = np.array([0.0, 0.25, -1.5, 3.0])
    angles = [a, a.copy(), -a, 0.25, np.full(4, 0.25)]
    template = [("rz", (0,), 0), ("cp", (1, 2), 1), ("rz", (3,), 2), ("rz", (1,), 3),
                ("xx", (0, 3), 4), ("yy", (1, 2), 2)]
    texts = list(emit_qasm_grid(template, angles, 4))
    for i, text in enumerate(texts):
        point = [Gate(kind, qubits, float(np.broadcast_to(angles[slot], (4,))[i]))
                 for kind, qubits, slot in template]
        assert text == emit_qasm(QuantumCircuit(gates=tuple(point)))
        assert gate_statements(text) == statements_of(point)
        assert parse_qasm(text).gates == tuple(point)
    assert gate_statements(texts[0])[2] == "rz(-0.0) qs[3];"
    assert gate_statements(texts[0])[5] == "yy(-0.0) qs[1], qs[2];"


def test_grid_checks_every_template_gate(monkeypatch):
    checked = []

    def counting(kind, qubits, angle=None):
        checked.append((kind, tuple(qubits), angle is None))
        return Gate(kind, qubits, angle)

    monkeypatch.setattr(qasm, "Gate", counting)
    angles = _ico_angles(*angles_of_time(ModelParams(2, 1.0, 0.1), np.linspace(0.0, 30.0, 5)))
    list(emit_qasm_grid(_ICO_TEMPLATE, angles, 5))
    assert len(_ICO_TEMPLATE) == 43
    assert checked == [(kind, qubits, slot is None) for kind, qubits, slot in _ICO_TEMPLATE]


@pytest.mark.parametrize("at", [0, 21, 42])
@pytest.mark.parametrize("broken", [("swap", (0, 1), None), ("rz", (0, 1), 0),
                                    ("cp", (1, 2), None), ("h", (0,), 0)])
def test_grid_rejects_a_malformed_template_line_before_any_text(at, broken):
    # the call itself raises: no text of any point is made
    template = list(_ICO_TEMPLATE)
    template[at] = broken
    angles = _ico_angles(*angles_of_time(ModelParams(2, 1.0, 0.1), np.linspace(0.0, 30.0, 5)))
    with pytest.raises(ValueError):
        emit_qasm_grid(template, angles, 5)

"""Slow, independent routes that the fast library paths are tested against."""

import math

import numpy as np

from qpvqe.pauli import PauliSum, _I_POWERS, _string_axes
from qpvqe.statevector import GateOp, StateVector, apply_gate

_SINGLE_QUBIT_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix from Kronecker products of 2x2 Paulis.

    Qubit 0 is the most significant bit.  Independent of the compiled
    plans, so it serves as the dense reference for every fast path.
    """
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in h.items():
        letters = dict(string.items)
        block = np.ones((1, 1), dtype=complex)
        for q in range(h.n_qubits):
            block = np.kron(block, _SINGLE_QUBIT_MATRICES[letters.get(q, "I")])
        out += coeff * block
    return out


def gate_unitary(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full-register unitary of a gate.

    Pauli rotations are cos(angle/2) 1 - i sin(angle/2) P from the dense
    Kronecker matrix of P; every other gate is built column by column
    through the statevector path.
    """
    dim = 1 << n_qubits
    if gate.kind == "PAULI_ROT":
        string = gate.string.embed(n_qubits)
        mat = kron_matrix(PauliSum(n_qubits, {string: 1.0}))
        half = gate.angle / 2.0
        return np.cos(half) * np.eye(dim) - 1j * np.sin(half) * mat
    cols = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        state = StateVector(n_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        apply_gate(state, gate)
        cols[:, index] = state.amplitudes
    return cols


# ---------------------------------------------------------------------------
# The string route: every Pauli string derived and applied one call at a
# time, with float64 sign vectors built by a Kronecker loop.  The compiled
# StringPlan route must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def kron_sign_vector(n_qubits, axes):
    vec = np.ones(1, dtype=np.float64)
    minus = np.array([1.0, -1.0])
    plus = np.array([1.0, 1.0])
    for q in range(n_qubits):
        vec = np.kron(vec, minus if q in axes else plus)
    return vec.reshape((2,) * n_qubits)


def string_pauli_action(string, n_qubits, amps):
    xy, zy, n_y = _string_axes(string)
    tensor = amps.reshape((2,) * n_qubits)
    flipped = np.flip(tensor, axis=xy) if xy else tensor
    scalar = _I_POWERS[(-n_y) & 3]
    if zy:
        out = kron_sign_vector(n_qubits, zy) * flipped
        if scalar != 1.0:
            out = out * scalar
    else:
        out = flipped * scalar if scalar != 1.0 else flipped.copy()
    return np.ascontiguousarray(out).reshape(-1)


def string_pauli_exponential(state, string, angle):
    xy, zy, n_y = _string_axes(string)
    tensor = state.tensor()
    flipped = np.flip(tensor, axis=xy) if xy else tensor
    c = math.cos(angle / 2.0)
    k = -1j * math.sin(angle / 2.0) * _I_POWERS[(-n_y) & 3]
    if zy:
        out = c * tensor + k * (kron_sign_vector(state.n_qubits, zy) * flipped)
    else:
        out = c * tensor + k * flipped
    state.amplitudes = np.ascontiguousarray(out).reshape(-1)
    return state


def string_paulisum_action(h, n_qubits, amps):
    out = np.zeros_like(amps)
    for string, coeff in h.items():
        out += coeff * string_pauli_action(string, n_qubits, amps)
    return out


def string_expectation(h, psi):
    """<psi|H (x) 1|psi> without the library's input checks."""
    amps = psi.amplitudes
    value = 0.0 + 0.0j
    for string, coeff in h.items():
        value += coeff * np.vdot(amps, string_pauli_action(string, psi.n_qubits,
                                                           amps))
    return float(value.real)


def string_apply_ansatz(circuit, theta, state):
    theta = np.asarray(theta, dtype=float)
    for rot in circuit.rotations:
        angle = 2.0 * theta[rot.parameter_index] * rot.coefficient
        if angle != 0.0:
            string_pauli_exponential(state, rot.string, angle)
    return state


def string_value_and_gradient(circuit, theta, h, initial):
    """The adjoint sweep rotating psi and lambda as two separate states."""
    theta = np.asarray(theta, dtype=float)
    n = initial.n_qubits
    psi = string_apply_ansatz(circuit, theta, initial.copy())
    lam = string_paulisum_action(h, n, psi.amplitudes)
    energy = float(np.vdot(psi.amplitudes, lam).real)
    grad = np.zeros(circuit.parameter_count)
    lam_state = StateVector(n, lam)
    for rot in reversed(circuit.rotations):
        angle = 2.0 * theta[rot.parameter_index] * rot.coefficient
        if angle != 0.0:
            string_pauli_exponential(psi, rot.string, -angle)
            string_pauli_exponential(lam_state, rot.string, -angle)
        p_psi = string_pauli_action(rot.string, n, psi.amplitudes)
        grad[rot.parameter_index] += 2.0 * rot.coefficient * float(
            np.vdot(lam_state.amplitudes, p_psi).imag)
    return energy, grad


def shifted_gradient(circuit, theta, h, initial):
    """The parameter-shift gradient from literal circuit executions.

    Each rotation r runs the whole circuit twice with its own angle
    shifted by +-pi/2 (O(R^2) rotations) and contributes
    2 c_r (E(+) - E(-))/2 to its parameter.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(circuit.parameter_count)
    for which, rot in enumerate(circuit.rotations):
        if rot.coefficient == 0.0:
            continue
        values = []
        for shift in (math.pi / 2, -math.pi / 2):
            state = initial.copy()
            for r, other in enumerate(circuit.rotations):
                angle = 2.0 * theta[other.parameter_index] * other.coefficient
                if r == which:
                    angle += shift
                if angle != 0.0:
                    string_pauli_exponential(state, other.string, angle)
            values.append(string_expectation(h, state))
        grad[rot.parameter_index] += \
            2.0 * rot.coefficient * (values[0] - values[1]) / 2.0
    return grad

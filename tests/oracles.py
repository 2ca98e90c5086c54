"""Slow, independent routes that the fast library paths are tested against."""

import math

import numpy as np

from qpvqe.pauli import PauliSum, _I_POWERS, _string_axes, to_matrix
from qpvqe.statevector import GateOp, StateVector, apply_gate


def gate_unitary(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full-register unitary of a gate.

    Pauli rotations are cos(angle/2) 1 - i sin(angle/2) P from the dense
    Kronecker matrix of P; every other gate is built column by column
    through the statevector path.
    """
    dim = 1 << n_qubits
    if gate.kind == "PAULI_ROT":
        mat = to_matrix(PauliSum(n_qubits, {gate.string.embed(n_qubits): 1.0}))
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

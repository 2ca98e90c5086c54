"""Slow, independent routes that the fast library paths are tested against."""

import numpy as np

from qpvqe.pauli import PauliSum, to_matrix
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

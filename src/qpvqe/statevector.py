"""Dense pure-state simulator.

Amplitudes live in a flat complex array of length 2^n with qubit 0 as the
most significant bit; gates act in place through reshaped (2,)*n views, so
a one-qubit gate costs O(2^n).  Multi-controlled gates are supported
natively, and Pauli-string exponentials act directly on amplitude pairs
rather than via any gate decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .pauli import DimensionMismatch, PauliString, StringPlan

GATE_NORM_TOL = 1e-12


class StateVector:
    """2^n complex amplitudes, exclusively owned during mutation."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: Optional[np.ndarray] = None):
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
            self.amplitudes = amps
        else:
            amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
            if amps.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
            self.amplitudes = amps.copy()

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


@dataclass(frozen=True)
class GateOp:
    """One gate of the preparation/measurement programs.

    kinds: "X", "RY" (angle), and "CONTROLLED" (controls as (qubit,
    value) pairs wrapping an X or RY target; a CNOT is the one-control X).
    Ansatz rotations are not gates: they run on compiled ``StringPlan``s.
    """

    kind: str
    targets: Tuple[int, ...] = ()
    controls: Tuple[Tuple[int, int], ...] = ()
    angle: Optional[float] = None

    def __post_init__(self):
        operands = self.operands()
        if len(set(operands)) != len(operands):
            raise ValueError("gate operands must be distinct")
        for _, value in self.controls:
            if value not in (0, 1):
                raise ValueError("control values must be 0 or 1")

    def operands(self) -> Tuple[int, ...]:
        return tuple(self.targets) + tuple(q for q, _ in self.controls)

    def shifted(self, offset: int) -> "GateOp":
        """The same gate on qubits ``offset`` higher."""
        return GateOp(self.kind, tuple(q + offset for q in self.targets),
                      tuple((q + offset, v) for q, v in self.controls),
                      self.angle)


def gate_x(qubit: int) -> GateOp:
    return GateOp("X", targets=(qubit,))


def gate_ry(qubit: int, angle: float) -> GateOp:
    return GateOp("RY", targets=(qubit,), angle=angle)


def gate_cnot(control: int, target: int) -> GateOp:
    return gate_controlled_x(((control, 1),), target)


def gate_controlled_x(controls: Sequence[Tuple[int, int]], target: int) -> GateOp:
    return GateOp("CONTROLLED", targets=(target,), controls=tuple(controls))


def gate_controlled_ry(controls: Sequence[Tuple[int, int]], target: int,
                       angle: float) -> GateOp:
    return GateOp("CONTROLLED", targets=(target,), controls=tuple(controls),
                  angle=angle)


def init_basis(n_qubits: int, bits: Sequence[int] | str) -> StateVector:
    """Computational basis state from an occupation list, qubit 0 first."""
    if isinstance(bits, str):
        bits = [int(b) for b in bits]
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("occupations must be 0 or 1")
        index = (index << 1) | b
    state = StateVector(n_qubits)
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def _check_qubit(state: StateVector, qubit: int):
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for n={state.n_qubits}")


def _flip_axis_inplace(view: np.ndarray, axis: int):
    moved = np.moveaxis(view, axis, 0)
    tmp = moved[0].copy()
    moved[0] = moved[1]
    moved[1] = tmp


def _ry_axis_inplace(view: np.ndarray, axis: int, angle: float):
    moved = np.moveaxis(view, axis, 0)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    v0 = moved[0].copy()
    moved[0] = c * v0 - s * moved[1]
    moved[1] = s * v0 + c * moved[1]


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate in place."""
    theta = gate.angle
    for q in gate.operands():
        _check_qubit(state, q)
    kind = gate.kind
    tensor = state.tensor()
    if kind == "CONTROLLED":
        # Restrict to the slice where every control bit matches its value.
        # Indexing descending control axes keeps lower axes in place.
        view = tensor
        for cq, cv in sorted(gate.controls, reverse=True):
            view = np.moveaxis(view, cq, 0)[cv]
        target = gate.targets[0]
        target_axis = target - sum(1 for q, _ in gate.controls if q < target)
        if theta is None:
            _flip_axis_inplace(view, target_axis)
        else:
            if not np.isfinite(theta):
                raise ValueError("controlled rotation requires a finite angle")
            _ry_axis_inplace(view, target_axis, theta)
    elif kind == "X":
        _flip_axis_inplace(tensor, gate.targets[0])
    elif kind == "RY":
        if theta is None or not np.isfinite(theta):
            raise ValueError("RY requires a finite angle")
        _ry_axis_inplace(tensor, gate.targets[0], theta)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return state


def apply_pauli_exponential(state: StateVector, string: PauliString,
                            angle: float) -> StateVector:
    """Apply exp(-i angle/2 * P) in place.

    Equals cos(angle/2) 1 - i sin(angle/2) P on the amplitudes; the string
    addresses qubits of the state directly and must be nontrivial.  This
    compiles a throwaway ``StringPlan``; repeated rotations should keep
    their plans (see ``AnsatzCircuit.plans``).
    """
    if string is None or string.is_identity:
        raise ValueError("pauli exponential requires a nontrivial string")
    plan = StringPlan(string, state.n_qubits)
    state.amplitudes = plan.rotate(state.tensor(), angle).reshape(-1)
    return state


def run_program(state: StateVector, gates: Sequence[GateOp]) -> StateVector:
    for gate in gates:
        apply_gate(state, gate)
    return state


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch("states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return float(abs(inner_product(a, b)) ** 2)

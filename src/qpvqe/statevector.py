"""Dense pure-state simulator.

Amplitudes live in a flat complex array of length 2^n with qubit 0 as the
most significant bit.  Every action runs on a compiled ``StringPlan``: a
preparation gate is the X plan's ``act`` or the Y plan's ``rotate`` on the
slice of the (2,)*n view where its controls hold, so a gate costs O(2^n)
whatever its control count, and a Pauli-string exponential is its
string's ``rotate``, with no gate decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .pauli import DimensionMismatch, PauliString, StringPlan


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


@dataclass(frozen=True)
class GateOp:
    """One gate of the preparation/measurement programs: X on ``target``
    when ``angle`` is None, else RY(angle), applied where every control
    qubit holds its value (``controls`` are (qubit, value) pairs; a CNOT is
    the one-control X).

    Both are Pauli-string actions on the target: X itself, and
    RY(angle) = exp(-i angle/2 Y), so ``apply_gate`` runs them as the X
    plan's ``act`` or the Y plan's ``rotate`` on the control slice.
    """

    target: int
    controls: Tuple[Tuple[int, int], ...] = ()
    angle: Optional[float] = None

    def __post_init__(self):
        operands = self.operands()
        if len(set(operands)) != len(operands):
            raise ValueError("gate operands must be distinct")
        for _, value in self.controls:
            if value not in (0, 1):
                raise ValueError("control values must be 0 or 1")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("RY requires a finite angle")

    def operands(self) -> Tuple[int, ...]:
        return (self.target,) + tuple(q for q, _ in self.controls)

    def shifted(self, offset: int) -> "GateOp":
        """The same gate on qubits ``offset`` higher."""
        return GateOp(self.target + offset,
                      tuple((q + offset, v) for q, v in self.controls),
                      self.angle)


def gate_x(qubit: int) -> GateOp:
    return GateOp(qubit)


def gate_ry(qubit: int, angle: float) -> GateOp:
    return GateOp(qubit, angle=angle)


def gate_cnot(control: int, target: int) -> GateOp:
    return GateOp(target, ((control, 1),))


def gate_controlled_x(controls: Sequence[Tuple[int, int]], target: int) -> GateOp:
    return GateOp(target, tuple(controls))


def gate_controlled_ry(controls: Sequence[Tuple[int, int]], target: int,
                       angle: float) -> GateOp:
    return GateOp(target, tuple(controls), angle)


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


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate in place."""
    for q in gate.operands():
        _check_qubit(state, q)
    # Restrict to the slice where every control bit matches its value.
    # Indexing descending control axes keeps lower axes in place.
    view = state.tensor()
    for cq, cv in sorted(gate.controls, reverse=True):
        view = np.moveaxis(view, cq, 0)[cv]
    axis = gate.target - sum(1 for q, _ in gate.controls if q < gate.target)
    letter = "X" if gate.angle is None else "Y"
    plan = StringPlan(PauliString.from_map(view.ndim, {axis: letter}),
                      view.ndim)
    view[...] = (plan.act(view) if gate.angle is None
                 else plan.rotate(view, gate.angle))
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

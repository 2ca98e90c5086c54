"""Dense pure-state simulator.

Amplitudes live in a flat complex array of length 2^n with qubit 0 as the
most significant bit.  Every action runs on a compiled ``RowPlan``: a
preparation gate is the target's X plan ``act`` or Y plan ``rotate`` on
the rows where its controls hold, which the target's flip maps onto
themselves, so a gate costs O(2^n) whatever its control count; a
Pauli-string exponential is its string's ``rotate`` on every row, with no
gate decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .pauli import DimensionMismatch, PauliString, RowPlan, SectorRows


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


@dataclass(frozen=True)
class GateOp:
    """One gate of the preparation/measurement programs: X on ``target``
    when ``angle`` is None, else RY(angle), applied where every control
    qubit holds its value (``controls`` are (qubit, value) pairs; a CNOT is
    the one-control X).

    Both are Pauli-string actions on the target: X itself, and
    RY(angle) = exp(-i angle/2 Y), so ``apply_gate`` runs them as the X
    plan's ``act`` or the Y plan's ``rotate`` on the rows where the
    controls hold (``plan``).
    """

    target: int
    controls: Tuple[Tuple[int, int], ...] = ()
    angle: Optional[float] = None
    # The target's plan on the control rows by register size, built on
    # first use by ``plan``, and the gate on shifted qubits by offset, kept
    # with its own plans by ``shifted``.
    _plans: Dict[int, RowPlan] = field(default_factory=dict, init=False,
                                       compare=False, repr=False)
    _shifted: Dict[int, "GateOp"] = field(default_factory=dict, init=False,
                                          compare=False, repr=False)

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

    def plan(self, n_qubits: int) -> RowPlan:
        """The target's X (no angle) or Y string compiled on the rows of a
        ``n_qubits`` register where every control holds its value."""
        plan = self._plans.get(n_qubits)
        if plan is None:
            for q in self.operands():
                if not 0 <= q < n_qubits:
                    raise ValueError(f"qubit {q} out of range for n={n_qubits}")
            rows = np.arange(1 << n_qubits)
            for qubit, value in self.controls:
                rows = rows[(rows >> (n_qubits - 1 - qubit) & 1) == value]
            string = PauliString.from_map(
                n_qubits, {self.target: "X" if self.angle is None else "Y"})
            plan = RowPlan(string, SectorRows(n_qubits, rows))
            self._plans[n_qubits] = plan
        return plan

    def shifted(self, offset: int) -> "GateOp":
        """The same gate on qubits ``offset`` higher, built once per
        offset, so its plans are compiled once too."""
        gate = self._shifted.get(offset)
        if gate is None:
            gate = self._shifted[offset] = GateOp(
                self.target + offset,
                tuple((q + offset, v) for q, v in self.controls), self.angle)
        return gate


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


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate in place."""
    plan = gate.plan(state.n_qubits)
    rows = plan.sector.rows
    amps = state.amplitudes[rows]
    state.amplitudes[rows] = (plan.act(amps) if gate.angle is None
                              else plan.rotate(amps, gate.angle))
    return state


def apply_pauli_exponential(state: StateVector, string: PauliString,
                            angle: float) -> StateVector:
    """Apply exp(-i angle/2 * P) in place.

    Equals cos(angle/2) 1 - i sin(angle/2) P on the amplitudes; the string
    addresses qubits of the state directly and must be nontrivial.  This
    compiles a throwaway ``RowPlan`` on every row; repeated rotations
    should keep their plans (see ``PauliSum.plans``).
    """
    if string is None or string.is_identity:
        raise ValueError("pauli exponential requires a nontrivial string")
    plan = RowPlan(string, SectorRows.full(state.n_qubits))
    state.amplitudes = plan.rotate(state.amplitudes, angle)
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

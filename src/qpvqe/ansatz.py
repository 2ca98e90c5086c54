"""Single-Trotter-step generalized coupled-cluster circuit and gradients.

Each excitation generator's anti-Hermitian Pauli form i*sum_s kappa_s P_s
is compiled into rotations exp(-i theta_k c_s P_s) with real c_s =
-kappa_s; strings inside one generator mutually commute, so a single
Trotter step is exact per generator.  String order within a generator is
frozen lexicographically and generator order follows the input list,
because Trotterized circuits are ordering-dependent.

Rotations run through compiled ``StringPlan``s (see ``qpvqe.pauli``).  A
circuit compiles its strings on first use for each register size it is
applied to and keeps them in ``AnsatzCircuit.plans``; building a circuit
compiles nothing.  The compiled routes are bit-identical to applying the
strings one ``apply_pauli_exponential``/``pauli_action`` call at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .fermion import ExcitationGenerator
from .pauli import (PauliString, PauliSum, StringPlan, expectation,
                    paulisum_action)
from .statevector import StateVector, apply_pauli_exponential

ROTATION_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class Rotation:
    string: PauliString
    coefficient: float
    parameter_index: int


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """A circuit's rotations compiled for one register size."""

    strings: Tuple[StringPlan, ...]      # one per rotation, shared by string
    index: np.ndarray                    # parameter index of each rotation
    coefficient: np.ndarray              # coefficient of each rotation

    def angles(self, theta: np.ndarray) -> List[float]:
        """Rotation angles 2 * theta_k * c in circuit order."""
        return (2.0 * theta[self.index] * self.coefficient).tolist()


@dataclass(frozen=True)
class AnsatzCircuit:
    """Ordered Pauli rotations on working qubits only."""

    n_working_qubits: int
    rotations: Tuple[Rotation, ...]
    parameter_count: int
    # CircuitPlans by register size, built on first use by ``plans``.
    _plans: Dict[int, CircuitPlan] = field(default_factory=dict, init=False,
                                           compare=False, repr=False)

    def __post_init__(self):
        for rot in self.rotations:
            if not 0 <= rot.parameter_index < self.parameter_count:
                raise ValueError("rotation parameter index out of range")
            if rot.string.n_qubits != self.n_working_qubits:
                raise ValueError("rotation string register mismatch")

    def plans(self, n_qubits: int) -> CircuitPlan:
        """The rotations compiled for a ``n_qubits`` register (working
        qubits first, identity on the rest)."""
        compiled = self._plans.get(n_qubits)
        if compiled is None:
            if n_qubits < self.n_working_qubits:
                raise ValueError("state register smaller than the ansatz")
            by_string: Dict[PauliString, StringPlan] = {}
            for rot in self.rotations:
                if rot.string not in by_string:
                    by_string[rot.string] = StringPlan(rot.string, n_qubits)
            compiled = CircuitPlan(
                tuple(by_string[rot.string] for rot in self.rotations),
                np.array([rot.parameter_index for rot in self.rotations],
                         dtype=np.intp),
                np.array([rot.coefficient for rot in self.rotations],
                         dtype=float))
            self._plans[n_qubits] = compiled
        return compiled


def parameter_vector(values: Sequence[float]) -> np.ndarray:
    theta = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def build_uccgsd(generators: Sequence[ExcitationGenerator]) -> AnsatzCircuit:
    """Compile generators into the single-Trotter-step circuit."""
    if not generators:
        raise ValueError("no generators given")
    n_working = generators[0].pauli_form.n_qubits
    rotations: List[Rotation] = []
    for gen in generators:
        if gen.pauli_form.n_qubits != n_working:
            raise ValueError("generators disagree on the working register")
        for string, coeff in gen.pauli_form.sorted_terms():
            if abs(coeff.real) > ROTATION_COEFF_TOL:
                raise ValueError(
                    f"generator {gen.label()} is not anti-Hermitian")
            if max(string.support(), default=0) >= n_working:
                raise ValueError(
                    f"generator {gen.label()} touches ancilla indices")
            rotations.append(Rotation(string, -coeff.imag, gen.parameter_index))
    n_params = 1 + max(g.parameter_index for g in generators)
    return AnsatzCircuit(n_working, tuple(rotations), n_params)


def _checked_theta(circuit: AnsatzCircuit, theta: Sequence[float]) -> np.ndarray:
    theta = parameter_vector(theta)
    if theta.size != circuit.parameter_count:
        raise ValueError(
            f"expected {circuit.parameter_count} parameters, got {theta.size}")
    return theta


def _evolve(strings: Sequence[StringPlan], angles: Sequence[float],
            tensor: np.ndarray) -> np.ndarray:
    """Rotations in order on a fresh array; zero angles are skipped."""
    for plan, angle in zip(strings, angles):
        if angle != 0.0:
            tensor = plan.rotate(tensor, angle)
    return tensor


def apply_ansatz(circuit: AnsatzCircuit, theta: Sequence[float],
                 state: StateVector) -> StateVector:
    """Apply U(theta) (x) 1 in place; ancilla qubits are never touched."""
    theta = _checked_theta(circuit, theta)
    compiled = circuit.plans(state.n_qubits)
    state.amplitudes = _evolve(compiled.strings, compiled.angles(theta),
                               state.tensor()).reshape(-1)
    return state


def apply_ansatz_inverse(circuit: AnsatzCircuit, theta: Sequence[float],
                         state: StateVector) -> StateVector:
    theta = parameter_vector(theta)
    for rot in reversed(circuit.rotations):
        angle = -2.0 * theta[rot.parameter_index] * rot.coefficient
        if angle != 0.0:
            apply_pauli_exponential(state, rot.string, angle)
    return state


def circuit_unitary(circuit: AnsatzCircuit, theta: Sequence[float]) -> np.ndarray:
    """Dense matrix of U(theta), for small-register oracle checks."""
    dim = 1 << circuit.n_working_qubits
    cols = []
    for index in range(dim):
        state = StateVector(circuit.n_working_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        apply_ansatz(circuit, theta, state)
        cols.append(state.amplitudes)
    return np.array(cols).T


def expectation_objective(circuit: AnsatzCircuit, h: PauliSum,
                          initial: StateVector) -> Callable[[np.ndarray], float]:
    """theta -> <init| U^dag (H (x) 1) U |init> as a plain callable."""
    def objective(theta: np.ndarray) -> float:
        return expectation(h, apply_ansatz(circuit, theta, initial.copy()))
    return objective


def value_and_gradient(circuit: AnsatzCircuit, theta: Sequence[float],
                       h: PauliSum, initial: StateVector
                       ) -> Tuple[float, np.ndarray]:
    """Energy and its exact parameter-shift gradient in one double sweep.

    Every rotation r contributes the two-sided shift value
    (E(phi_r + pi/2) - E(phi_r - pi/2))/2, accumulated onto its parameter
    with the chain-rule factor 2*c_r.  The backward sweep evaluates those
    shifted expectations algebraically (equal by the rotation identity
    U(phi +- pi/2) = U(phi) exp(-+ i pi/4 P)), which costs O(R) instead of
    O(R^2) circuit executions; tests pin equality against literal shifted
    executions and finite differences.  The sweep un-rotates psi and
    lambda = H|psi> stacked in one (2, 2, ..., 2) array, one pass per
    rotation for both.
    """
    theta = _checked_theta(circuit, theta)
    n = initial.n_qubits
    compiled = circuit.plans(n)
    strings, angles = compiled.strings, compiled.angles(theta)
    psi = _evolve(strings, angles, initial.tensor())
    lam = paulisum_action(h, n, psi.reshape(-1))
    energy = float(np.vdot(psi, lam).real)
    grad = [0.0] * circuit.parameter_count
    index = compiled.index.tolist()
    coefficient = compiled.coefficient.tolist()
    # psi over the raw H|psi>, deliberately unnormalized
    pair = np.stack((psi, lam.reshape(psi.shape)))
    for r in range(len(strings) - 1, -1, -1):
        plan, angle = strings[r], angles[r]
        if angle != 0.0:
            pair = plan.rotate(pair, -angle)
        # d<H>/dphi_r = Im <lambda_r|P_r|psi_r>; undoing rotation r first
        # changes nothing because U_r commutes with its own string.
        grad[index[r]] += 2.0 * coefficient[r] * float(
            np.vdot(pair[1], plan.act(pair[0])).imag)
    return energy, np.array(grad)


def gradient(circuit: AnsatzCircuit, theta: Sequence[float], h: PauliSum,
             initial: StateVector) -> np.ndarray:
    """Exact analytic gradient of the expectation objective.

    The parameter-shift values come from ``value_and_gradient``'s single
    backward sweep; tests check it against literal shifted executions.
    """
    return value_and_gradient(circuit, theta, h, initial)[1]

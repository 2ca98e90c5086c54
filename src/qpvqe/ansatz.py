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
strings one ``apply_pauli_exponential``/``pauli_action`` call at a time,
and so is the gradient sweep that skips the rotations a
``symmetry_screen`` proves to contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fermion import ExcitationGenerator
from .pauli import (PauliString, PauliSum, StringPlan, paulisum_action,
                    z2_symmetries)
from .statevector import StateVector

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


# Per kept Z2 symmetry S of H: (parameter indices, rotation flags) of the
# rotations that anticommute with S.
SymmetryScreen = Tuple[Tuple[np.ndarray, np.ndarray], ...]


def symmetry_screen(circuit: AnsatzCircuit, h: PauliSum,
                    initial: StateVector) -> Optional[SymmetryScreen]:
    """The screen of the Z2 symmetries S of H (``pauli.z2_symmetries``)
    that some rotation anticommutes with, or None.

    Premise, else None: amplitudes that share the bits no term and no
    rotation flips (the ancilla label) lie in one S eigenspace.  While S's
    rotations all sit at theta exactly 0, nothing moves a branch out of
    it, so each such Im<lambda|P|psi> sums products with an exact-zero
    factor and adds +-0.0 to a gradient entry that is never -0.0.
    """
    n = initial.n_qubits
    compiled = circuit.plans(n)
    h_masks = [plan.mask for _, plan in h.plans(n)]
    masks = [plan.mask for plan in compiled.strings]
    kept = ~int(np.bitwise_or.reduce(h_masks + masks))
    occupied = np.flatnonzero(initial.amplitudes).tolist()
    screen = []
    for symmetry in z2_symmetries(h_masks, n):
        flags = np.array([(m & symmetry).bit_count() & 1 for m in masks],
                         dtype=bool)
        if not flags.any() or any(np.array_equal(flags, f) for _, f in screen):
            continue
        parity = {j & kept: (j & symmetry).bit_count() & 1 for j in occupied}
        if any(parity[j & kept] != (j & symmetry).bit_count() & 1
               for j in occupied):
            return None
        screen.append((compiled.index[flags], flags))
    return tuple(screen) or None


def value_and_gradient(circuit: AnsatzCircuit, theta: Sequence[float],
                       h: PauliSum, initial: StateVector,
                       screen: Optional[SymmetryScreen] = None
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
    rotation for both.  It skips the rotations that ``screen``, built by
    ``symmetry_screen`` for these arguments, flags at theta: same bits.
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
    skip = np.zeros(len(strings), dtype=bool)
    for params, flags in screen or ():
        if not np.any(theta[params]):
            skip |= flags
    # psi over the raw H|psi>, deliberately unnormalized
    pair = np.stack((psi, lam.reshape(psi.shape)))
    for r in np.flatnonzero(~skip)[::-1].tolist():
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

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
So is the optimizer's one forward pass, shared by ``value_and_gradient``
and ``screened_energy``: a ``symmetry_screen`` keeps the Z2 symmetries of
H whose premise the initial state meets, and at each theta the pass runs
on the sector rows they still pin (``RowPlan``s compiled once per
on-set), skips the rotations that contribute exactly zero, and takes
every vdot over the full register.  ``apply_ansatz`` runs the full
register for readouts and checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fermion import ExcitationGenerator
from .pauli import (PauliString, PauliSum, RowPlan, SectorRows, StringPlan,
                    flip_mask, parities, terms_action, z2_symmetries)
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

    # one per rotation, shared by string; a Sector's holds RowPlans and
    # None for each rotation it skips
    strings: Tuple[Optional[StringPlan], ...]
    index: np.ndarray                    # parameter index of each rotation
    coefficient: np.ndarray              # coefficient of each rotation

    @classmethod
    def of(cls, rotations: Sequence["Rotation"],
           strings: Sequence[Optional[StringPlan]]) -> "CircuitPlan":
        return cls(tuple(strings),
                   np.array([rot.parameter_index for rot in rotations],
                            dtype=np.intp),
                   np.array([rot.coefficient for rot in rotations],
                            dtype=float))

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
            compiled = CircuitPlan.of(
                self.rotations,
                [by_string[rot.string] for rot in self.rotations])
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


@dataclass(frozen=True, eq=False)
class Symmetry:
    """One Z2 symmetry S of H and the rotations that anticommute with it."""

    mask: int                # Z mask of S on the register
    params: np.ndarray       # parameter indices of those rotations
    flags: np.ndarray        # per rotation: anticommutes with S


@dataclass(frozen=True, eq=False)
class Sector:
    """The sector rows of one on-set, with the circuit and H compiled on
    them (``RowPlan``s)."""

    rows: np.ndarray             # sorted register indices
    circuit: CircuitPlan         # None for each rotation the sweep skips
    terms: Tuple[Tuple[complex, RowPlan], ...]   # H, in term order
    order: List[int]             # rotations the sweep runs, last first


class SymmetryScreen:
    """The Z2 symmetries of H (``pauli.z2_symmetries``) that meet the
    premise of ``symmetry_screen``, the ancilla labels of the branches of
    the initial state, and the ``Sector``s compiled so far, one per on-set.

    At theta a symmetry is on when all of its parameters are exactly 0;
    one that no rotation anticommutes with is always on.  The rows of an
    on-set are the indices whose label bits (``kept``: bits no term and no
    rotation flips) match a branch and whose parity under every on
    symmetry is that branch's.  Every rotation that runs and every term of
    H commute with the on symmetries and keep the label bits, so they map
    the rows onto themselves, and the full route holds exact +-0 outside
    them.  A run needs at most two on-sets: everything on in the first
    descent, the always-on symmetries after a saddle probe.
    """

    def __init__(self, circuit: AnsatzCircuit, h: PauliSum, n_qubits: int,
                 kept: int, symmetries: Tuple[Symmetry, ...],
                 branches: Dict[int, Tuple[int, ...]]):
        self.circuit = circuit
        self.h = h
        self.n_qubits = n_qubits
        self.kept = kept
        self.symmetries = symmetries
        # label bits -> parity of the branch under each symmetry
        self.branches = branches
        self._sectors: Dict[Tuple[int, ...], Sector] = {}

    def on(self, theta: np.ndarray) -> Tuple[int, ...]:
        """Indices of the symmetries that are on at theta."""
        return tuple(i for i, symmetry in enumerate(self.symmetries)
                     if not np.any(theta[symmetry.params]))

    def sector(self, theta: np.ndarray) -> Sector:
        """The ``Sector`` of theta's on-set, compiled on first use."""
        on = self.on(theta)
        sector = self._sectors.get(on)
        if sector is None:
            sector = self._sectors[on] = _compile_sector(self, on)
        return sector


def _compile_sector(screen: SymmetryScreen, on: Tuple[int, ...]) -> Sector:
    """The rows of on-set ``on`` and the circuit and H compiled on them."""
    n = screen.n_qubits
    index = np.arange(1 << n)
    labels = index & screen.kept
    on_parities = [(i, parities(index, screen.symmetries[i].mask))
                   for i in on]
    selected = np.zeros(index.size, dtype=bool)
    for label, parity in screen.branches.items():
        match = labels == label
        for i, values in on_parities:
            match &= values == parity[i]
        selected |= match
    rows = SectorRows(n, np.flatnonzero(selected))

    circuit = screen.circuit
    skip = np.zeros(len(circuit.rotations), dtype=bool)
    for i in on:
        skip |= screen.symmetries[i].flags
    by_string: Dict[PauliString, RowPlan] = {}
    strings = []
    for rot, skipped in zip(circuit.rotations, skip.tolist()):
        if not skipped and rot.string not in by_string:
            by_string[rot.string] = RowPlan(rot.string, rows)
        strings.append(None if skipped else by_string[rot.string])
    terms = tuple((coeff, RowPlan(string, rows))
                  for string, coeff in screen.h.items())
    return Sector(rows.rows, CircuitPlan.of(circuit.rotations, strings),
                  terms, np.flatnonzero(~skip)[::-1].tolist())


def symmetry_screen(circuit: AnsatzCircuit, h: PauliSum,
                    initial: StateVector) -> SymmetryScreen:
    """The screen of the Z2 symmetries S of H whose premise ``initial``
    meets; see ``SymmetryScreen`` for the rows.

    Premise, per S: amplitudes that share the bits no term and no rotation
    flips (the ancilla label) lie in one S eigenspace.  While S's
    rotations all sit at theta exactly 0, nothing moves a branch out of
    it, so each such Im<lambda|P|psi> sums products with an exact-zero
    factor and adds +-0.0 to a gradient entry that is never -0.0.  An S
    that a branch straddles is left out; with none left, the rows are the
    label rows, which no term and no rotation leaves.
    """
    n = initial.n_qubits
    if n < circuit.n_working_qubits:
        raise ValueError("state register smaller than the ansatz")
    h_masks = [flip_mask(string, n) for string, _ in h.items()]
    masks = [flip_mask(rot.string, n) for rot in circuit.rotations]
    kept = ((1 << n) - 1) & ~int(np.bitwise_or.reduce(h_masks + masks))
    index = np.array([rot.parameter_index for rot in circuit.rotations],
                     dtype=np.intp)
    occupied = np.flatnonzero(initial.amplitudes).tolist()
    branches: Dict[int, List[int]] = {j & kept: [] for j in occupied}
    symmetries = []
    for mask in z2_symmetries(h_masks, n):
        parity = {j & kept: (j & mask).bit_count() & 1 for j in occupied}
        if any(parity[j & kept] != (j & mask).bit_count() & 1
               for j in occupied):
            continue
        for label, bits in branches.items():
            bits.append(parity[label])
        flags = np.array([(m & mask).bit_count() & 1 for m in masks],
                         dtype=bool)
        symmetries.append(Symmetry(mask, index[flags], flags))
    return SymmetryScreen(circuit, h, n, kept, tuple(symmetries),
                          {label: tuple(bits)
                           for label, bits in branches.items()})


def _full_length_vdot(rows: np.ndarray, dim: int):
    """np.vdot of two row arrays, run on 2^n buffers that hold them at
    their rows and exact zeros elsewhere.  BLAS sums a vdot by index
    position, so a vdot of the row arrays themselves would change bits."""
    bra = np.zeros(dim, dtype=complex)
    ket = np.zeros(dim, dtype=complex)

    def vdot(a: np.ndarray, b: np.ndarray) -> complex:
        bra[rows] = a
        ket[rows] = b
        return np.vdot(bra, ket)
    return vdot


def _forward(circuit: AnsatzCircuit, theta: Sequence[float],
             initial: StateVector, screen: SymmetryScreen):
    """The forward pass on the sector rows of theta in ``screen``: the
    sector, the rotation angles, psi = U(theta)|initial> and lambda = H|psi>
    on the rows, the full-length vdot and the energy <psi|H|psi>."""
    theta = _checked_theta(circuit, theta)
    sector = screen.sector(theta)
    angles = sector.circuit.angles(theta)
    psi = _evolve(sector.circuit.strings, angles,
                  initial.amplitudes[sector.rows])
    lam = terms_action(sector.terms, psi)
    vdot = _full_length_vdot(sector.rows, 1 << initial.n_qubits)
    return sector, angles, psi, lam, vdot, float(vdot(psi, lam).real)


def screened_energy(circuit: AnsatzCircuit, theta: Sequence[float],
                    h: PauliSum, initial: StateVector,
                    screen: SymmetryScreen) -> float:
    """<psi|H|psi> by ``value_and_gradient``'s forward pass, bit for bit
    the energy it returns; ``screen`` is ``symmetry_screen`` of these
    arguments."""
    return _forward(circuit, theta, initial, screen)[-1]


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
    lambda = H|psi> stacked in one (2, M) array, one pass per rotation
    for both.

    The elementwise work runs on the sector rows of theta in ``screen``
    (``symmetry_screen`` of these arguments, built here if None) and skips
    the rotations an on symmetry flags; every vdot still runs over the
    full register, so the bits are those of the full-register sweep.
    """
    if screen is None:
        screen = symmetry_screen(circuit, h, initial)
    sector, angles, psi, lam, vdot, energy = _forward(circuit, theta,
                                                      initial, screen)
    compiled = sector.circuit
    strings = compiled.strings
    grad = [0.0] * circuit.parameter_count
    index = compiled.index.tolist()
    coefficient = compiled.coefficient.tolist()
    # psi over the raw H|psi>, deliberately unnormalized
    pair = np.stack((psi, lam))
    for r in sector.order:
        plan, angle = strings[r], angles[r]
        if angle != 0.0:
            pair = plan.rotate(pair, -angle)
        # d<H>/dphi_r = Im <lambda_r|P_r|psi_r>; undoing rotation r first
        # changes nothing because U_r commutes with its own string.
        grad[index[r]] += 2.0 * coefficient[r] * float(
            vdot(pair[1], plan.act(pair[0])).imag)
    return energy, np.array(grad)


def gradient(circuit: AnsatzCircuit, theta: Sequence[float], h: PauliSum,
             initial: StateVector) -> np.ndarray:
    """Exact analytic gradient of the expectation objective.

    The parameter-shift values come from ``value_and_gradient``'s single
    backward sweep; tests check it against literal shifted executions.
    """
    return value_and_gradient(circuit, theta, h, initial)[1]

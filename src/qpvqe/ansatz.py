"""Single-Trotter-step generalized coupled-cluster circuit and gradients.

Each excitation generator's anti-Hermitian Pauli form i*sum_s kappa_s P_s
is compiled into rotations exp(-i theta_k c_s P_s) with real c_s =
-kappa_s; strings inside one generator mutually commute, so a single
Trotter step is exact per generator.  String order within a generator is
frozen lexicographically and generator order follows the input list,
because Trotterized circuits are ordering-dependent.

Rotations run through compiled ``RowPlan``s (see ``qpvqe.pauli``) on the
rows a state can reach, one per branch plus the GF(2) span of the flips
that act, compiled once per span and kept on the circuit or its screen;
building a circuit compiles nothing.  The compiled routes are
bit-identical to applying the strings one
``apply_pauli_exponential``/``pauli_action`` call at a time.  So is the
optimizer's one evaluation, ``value_and_gradient``, which returns the
energy with its gradient from one forward pass: at each theta a
``symmetry_screen`` gives the rows the initial state can reach; the pass
runs on them, skips the rotations that contribute exactly zero, and takes
every vdot over the full register.  ``apply_ansatz`` runs on the same row
machinery with no H: the states of one register, stacked on the rows they
can reach, evolve in one pass and are scattered back into 2^n buffers,
which the readouts (``pauli.expectations``) stack on their own rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fermion import ExcitationGenerator
from .pauli import (PauliString, PauliSum, RowPlan, SectorRows, branches,
                    cached_sector, compile_terms, flip_mask, gf2_reduce,
                    gf2_span, sector_rows, terms_action)
from .statevector import StateVector

ROTATION_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class Rotation:
    string: PauliString
    coefficient: float
    parameter_index: int


@dataclass(frozen=True)
class AnsatzCircuit:
    """Ordered Pauli rotations on working qubits only."""

    n_working_qubits: int
    rotations: Tuple[Rotation, ...]
    parameter_count: int
    # Each rotation's parameter index and coefficient, read by ``angles``,
    # and its X and Z masks on the working register.
    index: np.ndarray = field(init=False, compare=False, repr=False)
    coefficient: np.ndarray = field(init=False, compare=False, repr=False)
    mask: np.ndarray = field(init=False, compare=False, repr=False)
    z_mask: np.ndarray = field(init=False, compare=False, repr=False)
    # The Sectors of ``apply_ansatz`` by (register, span, representatives),
    # and those of ``noise.apply_noisy_ansatz`` on vec(rho) by the same key,
    # each map at most ``pauli.SECTOR_CACHE_SIZE`` (``cached_sector``).
    _sectors: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], "Sector"] = \
        field(default_factory=dict, init=False, compare=False, repr=False)
    _vec_sectors: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], object] \
        = field(default_factory=dict, init=False, compare=False, repr=False)
    # ``noise.noisy_ensemble_energy``'s programs by (prepared state, which
    # angles are nonzero), at most ``pauli.SECTOR_CACHE_SIZE``.
    _noisy_programs: Dict[Tuple[object, bytes], object] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for rot in self.rotations:
            if not 0 <= rot.parameter_index < self.parameter_count:
                raise ValueError("rotation parameter index out of range")
            if rot.string.n_qubits != self.n_working_qubits:
                raise ValueError("rotation string register mismatch")
        object.__setattr__(self, "index", np.array(
            [rot.parameter_index for rot in self.rotations], dtype=np.intp))
        object.__setattr__(self, "coefficient", np.array(
            [rot.coefficient for rot in self.rotations], dtype=float))
        object.__setattr__(self, "mask", np.array(
            [rot.string.x for rot in self.rotations], dtype=np.int64))
        object.__setattr__(self, "z_mask", np.array(
            [rot.string.z for rot in self.rotations], dtype=np.int64))

    def angles(self, theta: np.ndarray) -> List[float]:
        """Rotation angles 2 * theta_k * c in circuit order."""
        return (2.0 * theta[self.index] * self.coefficient).tolist()


def parameter_vector(values: Sequence[float]) -> np.ndarray:
    theta = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def build_uccgsd(generators: Sequence[ExcitationGenerator],
                 n_working_qubits: Optional[int] = None) -> AnsatzCircuit:
    """Compile generators into the single-Trotter-step circuit.

    The working register is the generators' unless ``n_working_qubits``
    names it; with that and no generators the circuit is U = 1.
    """
    n_working = n_working_qubits
    if n_working is None:
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
            rotations.append(Rotation(string, -coeff.imag, gen.parameter_index))
    n_params = 1 + max((g.parameter_index for g in generators), default=-1)
    return AnsatzCircuit(n_working, tuple(rotations), n_params)


def checked_theta(circuit: AnsatzCircuit,
                  theta: Sequence[float]) -> np.ndarray:
    """theta as a finite float vector of the circuit's parameter count."""
    theta = parameter_vector(theta)
    if theta.size != circuit.parameter_count:
        raise ValueError(
            f"expected {circuit.parameter_count} parameters, got {theta.size}")
    return theta


def _evolve(strings: Sequence[Optional[RowPlan]],
            angles: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """Rotations in order on a fresh array; zero angles are skipped."""
    for plan, angle in zip(strings, angles):
        if angle != 0.0:
            rows = plan.rotate(rows, angle)
    return rows


def apply_ansatz(circuit: AnsatzCircuit, theta: Sequence[float],
                 states: Union[StateVector, Sequence[StateVector]]):
    """Apply U(theta) (x) 1 in place to one state or to each of a sequence
    of states, and return ``states``; ancilla qubits are never touched.

    The states of each register size evolve together in one
    ``_evolve_batch`` pass on the rows they can reach.
    """
    theta = checked_theta(circuit, theta)
    angles = circuit.angles(theta)
    by_register: Dict[int, List[StateVector]] = {}
    for state in [states] if isinstance(states, StateVector) else states:
        by_register.setdefault(state.n_qubits, []).append(state)
    for batch in by_register.values():
        _evolve_batch(circuit, angles, batch)
    return states


def _evolve_batch(circuit: AnsatzCircuit, angles: Sequence[float],
                  states: Sequence[StateVector]) -> None:
    """U on states of one register, stacked as a (B, M) array on the rows
    of ``_batch_sector``; each is scattered back into a zero 2^n buffer.
    Every row holds the full register's bits; the rest hold +0."""
    sector = _batch_sector(circuit, angles, states)
    psi = _evolve(sector.strings, angles,
                  np.stack([state.amplitudes[sector.rows] for state in states]))
    for b, state in enumerate(states):
        amplitudes = np.zeros(1 << state.n_qubits, dtype=complex)
        amplitudes[sector.rows] = psi[b]
        state.amplitudes = amplitudes


def _batch_sector(circuit: AnsatzCircuit, angles: Sequence[float],
                  states: Sequence[StateVector]) -> "Sector":
    """The ``Sector`` of the rows the states can reach under U, with no H:
    one representative per branch of their joint support plus the GF(2)
    span of the premise flips and the masks of the rotations that act.
    Kept on the circuit by (register, span, representatives)."""
    n = states[0].n_qubits
    if n < circuit.n_working_qubits:
        raise ValueError("state register smaller than the ansatz")
    masks = circuit.mask << (n - circuit.n_working_qubits)
    occupied = states[0].amplitudes != 0
    for state in states[1:]:
        occupied |= state.amplitudes != 0
    kept = ((1 << n) - 1) & ~int(np.bitwise_or.reduce(masks, initial=0))
    representatives, premise = branches(np.flatnonzero(occupied), kept)
    active = {mask for mask, angle in zip(masks.tolist(), angles)
              if angle != 0.0}
    span = gf2_span(chain(premise, active))
    # a screen with no H whose span no parameter widens
    return cached_sector(
        circuit._sectors, (n, tuple(sorted(span.values())), representatives),
        lambda: _compile_sector(SymmetryScreen(
            circuit, None, n, span, ((),) * circuit.parameter_count,
            representatives), span))


@dataclass(frozen=True, eq=False)
class Sector:
    """The rows of one span, with the circuit and H compiled on them
    (``RowPlan``s)."""

    rows: np.ndarray             # sorted register indices
    # one per rotation, shared by string; None for each one the sweep skips
    strings: Tuple[Optional[RowPlan], ...]
    terms: Tuple[Tuple[complex, RowPlan], ...]   # H, in term order
    order: List[int]             # rotations the sweep runs, last first


class SymmetryScreen:
    """The rows ``initial`` can reach at each theta, and the ``Sector``s
    compiled so far, one per span.

    At theta the flips that act are the X masks of H's terms, the masks of
    the rotations whose parameter is nonzero (-0.0 is zero) and the
    premise flips of ``symmetry_screen``; S is their GF(2) span.  The rows
    are one occupied index per branch label plus S.  Every term and every
    rotation that runs flips by an element of S, so it maps the rows onto
    themselves, and the full route holds exact +-0 outside them.  A
    rotation whose mask is not in S sits at angle 0 and maps the rows
    outside themselves, so the sweep skips it.  The symmetries of H still
    on at theta are the Z masks orthogonal to S (Bravyi et al.,
    arXiv:1701.08213).  A run meets two spans: that of H and the premise
    in the first descent, whose rotations outside it stay at 0, and that
    of every mask after a saddle probe.
    """

    def __init__(self, circuit: AnsatzCircuit, h: Optional[PauliSum],
                 n_qubits: int,
                 flips: Dict[int, int],
                 by_parameter: Tuple[Tuple[int, ...], ...],
                 representatives: Tuple[int, ...]):
        self.circuit = circuit
        self.h = h                           # None: no terms are compiled
        self.n_qubits = n_qubits
        self.flips = flips                   # gf2_span of H and the premise
        # per parameter, the masks of its rotations
        self.by_parameter = by_parameter
        self.representatives = representatives   # one per branch label
        self._sectors: Dict[bytes, Sector] = {}  # by which theta are nonzero
        self._spans: Dict[Tuple[int, ...], Sector] = {}

    def sector(self, theta: np.ndarray) -> Sector:
        """The ``Sector`` of theta's span, compiled on first use."""
        active = theta != 0
        key = active.tobytes()
        sector = self._sectors.get(key)
        if sector is None:
            span = gf2_span(chain(self.flips.values(), *(
                self.by_parameter[p] for p in np.flatnonzero(active))))
            canonical = tuple(sorted(span.values()))
            sector = self._spans.get(canonical)
            if sector is None:
                sector = self._spans[canonical] = _compile_sector(self, span)
            self._sectors[key] = sector
        return sector


def _compile_sector(screen: SymmetryScreen, span: Dict[int, int]) -> Sector:
    """The rows of ``span`` (a ``gf2_span``) and the circuit and H compiled
    on them, in array passes: one reduction of every rotation mask
    against the span, then one ``SectorRows.prepare`` of the masks that
    run."""
    rows = SectorRows(screen.n_qubits,
                      sector_rows(screen.representatives, span))
    circuit = screen.circuit
    shift = screen.n_qubits - circuit.n_working_qubits
    inside = gf2_reduce(circuit.mask << shift, span) == 0
    rows.prepare((circuit.mask[inside] << shift).tolist(),
                 (circuit.z_mask[inside] << shift).tolist())
    strings = rotation_plans(circuit, inside,
                             lambda string: RowPlan(string, rows))
    terms = () if screen.h is None else compile_terms(screen.h, rows)
    return Sector(rows.rows, strings, terms,
                  [r for r in range(len(strings) - 1, -1, -1)
                   if strings[r] is not None])


def rotation_plans(circuit: AnsatzCircuit, inside: np.ndarray,
                   build: Callable[[PauliString], object]) -> tuple:
    """Per rotation, ``build(string)`` where ``inside`` holds, one object
    per distinct string, and None where it does not."""
    built: Dict[PauliString, object] = {}
    plans = []
    for rot, runs in zip(circuit.rotations, inside.tolist()):
        if runs and rot.string not in built:
            built[rot.string] = build(rot.string)
        plans.append(built[rot.string] if runs else None)
    return tuple(plans)


def symmetry_screen(circuit: AnsatzCircuit, h: PauliSum,
                    initial: StateVector) -> SymmetryScreen:
    """The screen of the rows ``initial`` can reach; see ``SymmetryScreen``.

    A branch is the set of nonzero amplitudes that share the bits no term
    and no rotation flips (the ancilla label).  The premise flips are the
    XORs of two amplitudes of one branch, so each branch starts inside its
    representative plus S.  While a rotation's mask is not in S, nothing
    moves a branch onto its image under the rotation, so its
    Im<lambda|P|psi> sums products with an exact-zero factor and adds
    +-0.0 to a gradient entry that is never -0.0.
    """
    n = initial.n_qubits
    if n < circuit.n_working_qubits:
        raise ValueError("state register smaller than the ansatz")
    h_masks = [flip_mask(string, n) for string, _ in h.items()]
    masks = [flip_mask(rot.string, n) for rot in circuit.rotations]
    kept = ((1 << n) - 1) & ~int(np.bitwise_or.reduce(h_masks + masks))
    representatives, premise = branches(np.flatnonzero(initial.amplitudes),
                                        kept)
    by_parameter: List[set] = [set() for _ in range(circuit.parameter_count)]
    for rot, mask in zip(circuit.rotations, masks):
        by_parameter[rot.parameter_index].add(mask)
    return SymmetryScreen(circuit, h, n, gf2_span(h_masks + premise),
                          tuple(map(tuple, by_parameter)), representatives)


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


def value_and_gradient(circuit: AnsatzCircuit, theta: Sequence[float],
                       h: PauliSum, initial: StateVector,
                       screen: SymmetryScreen, bound: float = math.inf
                       ) -> Tuple[float, Optional[np.ndarray]]:
    """Energy and its exact parameter-shift gradient in one double sweep.

    Every rotation r contributes the two-sided shift value
    (E(phi_r + pi/2) - E(phi_r - pi/2))/2, accumulated onto its parameter
    with the chain-rule factor 2*c_r.  The backward sweep
    (``_backward_sweep``) evaluates those shifted expectations
    algebraically (equal by the rotation identity U(phi +- pi/2) =
    U(phi) exp(-+ i pi/4 P)), which costs O(R) instead of O(R^2) circuit
    executions; tests pin equality against literal shifted executions and
    finite differences.  The sweep un-rotates psi and lambda = H|psi>
    stacked in one (2, M) array, one pass per rotation for both.

    When the energy is not at most ``bound`` (NaN included), the gradient
    is None and the backward sweep does not run: the optimizer passes its
    acceptance bound, so a rejected attempt costs only its forward pass.
    Below the bound the gradient is computed from the same psi and lambda
    arrays, so its bits do not depend on ``bound``.

    The elementwise work runs on the rows of theta in ``screen``
    (``symmetry_screen(circuit, h, initial)``, built once per problem) and
    skips the rotations whose mask lies outside their span; every vdot
    still runs over the full register, so the bits are those of the
    full-register sweep.  ``h`` must be the screen's own Hamiltonian,
    whose terms the rows hold.
    """
    if h is not screen.h:
        raise ValueError("the screen was built for another Hamiltonian")
    theta = checked_theta(circuit, theta)
    sector = screen.sector(theta)
    angles = circuit.angles(theta)
    psi = _evolve(sector.strings, angles, initial.amplitudes[sector.rows])
    lam = terms_action(sector.terms, psi)
    vdot = _full_length_vdot(sector.rows, 1 << initial.n_qubits)
    energy = float(vdot(psi, lam).real)
    if not energy <= bound:
        return energy, None
    return energy, _backward_sweep(circuit, sector, angles, psi, lam, vdot)


def _backward_sweep(circuit: AnsatzCircuit, sector: Sector,
                    angles: Sequence[float], psi: np.ndarray,
                    lam: np.ndarray, vdot) -> np.ndarray:
    """The gradient of ``value_and_gradient``: psi and lambda = H|psi>
    un-rotated last rotation first, Im<lambda_r|P_r|psi_r> read at each."""
    strings = sector.strings
    rotations = circuit.rotations
    grad = [0.0] * circuit.parameter_count
    # psi over the raw H|psi>, deliberately unnormalized
    pair = np.stack((psi, lam))
    for r in sector.order:
        plan, angle, rot = strings[r], angles[r], rotations[r]
        if angle != 0.0:
            pair = plan.rotate(pair, -angle)
        # d<H>/dphi_r = Im <lambda_r|P_r|psi_r>; undoing rotation r first
        # changes nothing because U_r commutes with its own string.
        grad[rot.parameter_index] += 2.0 * rot.coefficient * float(
            vdot(pair[1], plan.act(pair[0])).imag)
    return np.array(grad)

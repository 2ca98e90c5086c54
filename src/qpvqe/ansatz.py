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
So is the optimizer's one evaluation, ``value_and_gradient``, which
returns the energy with its gradient from one forward pass: at each theta
a ``symmetry_screen`` gives the rows the initial state can reach, one per
branch plus the GF(2) span of the flips that act (``RowPlan``s compiled
once per span); the pass runs on them, skips the rotations that
contribute exactly zero, and takes every vdot over the full register.
``apply_ansatz`` runs on the same row machinery with no H: the states of
one register, stacked on the rows they can reach, evolve in one pass and
are scattered back into 2^n buffers for the full-register readouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fermion import ExcitationGenerator
from .pauli import (PauliString, PauliSum, RowPlan, SectorRows, StringPlan,
                    flip_mask, gf2_reduce, gf2_span, terms_action)
from .statevector import StateVector

ROTATION_COEFF_TOL = 1e-12
# Sectors ``apply_ansatz`` keeps per circuit; a LiH command needs one per
# register (the pair states, the K-way state and the eigenpairs).
SECTOR_CACHE_SIZE = 32


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
    # and its X mask on the working register.
    index: np.ndarray = field(init=False, compare=False, repr=False)
    coefficient: np.ndarray = field(init=False, compare=False, repr=False)
    mask: np.ndarray = field(init=False, compare=False, repr=False)
    # One StringPlan per rotation (shared by string) by register size,
    # built on first use by ``plans``.
    _plans: Dict[int, Tuple[StringPlan, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    # The Sectors of ``apply_ansatz`` by (register, span, representatives),
    # and those of ``noise.apply_noisy_ansatz`` on vec(rho) by the same key,
    # each map at most SECTOR_CACHE_SIZE (``cached_sector``).
    _sectors: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], "Sector"] = \
        field(default_factory=dict, init=False, compare=False, repr=False)
    _vec_sectors: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], object] \
        = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def angles(self, theta: np.ndarray) -> List[float]:
        """Rotation angles 2 * theta_k * c in circuit order."""
        return (2.0 * theta[self.index] * self.coefficient).tolist()

    def plans(self, n_qubits: int) -> Tuple[StringPlan, ...]:
        """The rotations compiled for a ``n_qubits`` register (working
        qubits first, identity on the rest), in circuit order."""
        compiled = self._plans.get(n_qubits)
        if compiled is None:
            if n_qubits < self.n_working_qubits:
                raise ValueError("state register smaller than the ansatz")
            by_string: Dict[PauliString, StringPlan] = {}
            for rot in self.rotations:
                if rot.string not in by_string:
                    by_string[rot.string] = StringPlan(rot.string, n_qubits)
            compiled = tuple(by_string[rot.string] for rot in self.rotations)
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
            rotations.append(Rotation(string, -coeff.imag, gen.parameter_index))
    n_params = 1 + max(g.parameter_index for g in generators)
    return AnsatzCircuit(n_working, tuple(rotations), n_params)


def checked_theta(circuit: AnsatzCircuit,
                  theta: Sequence[float]) -> np.ndarray:
    """theta as a finite float vector of the circuit's parameter count."""
    theta = parameter_vector(theta)
    if theta.size != circuit.parameter_count:
        raise ValueError(
            f"expected {circuit.parameter_count} parameters, got {theta.size}")
    return theta


def _evolve(strings: Sequence[Optional[StringPlan]],
            angles: Sequence[float], tensor: np.ndarray) -> np.ndarray:
    """Rotations in order on a fresh array; zero angles are skipped."""
    for plan, angle in zip(strings, angles):
        if angle != 0.0:
            tensor = plan.rotate(tensor, angle)
    return tensor


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


def cached_sector(sectors: Dict, key, compile: Callable[[], object]):
    """``sectors[key]``, compiled on first use.  A map holds at most
    SECTOR_CACHE_SIZE sectors; the oldest is dropped first."""
    sector = sectors.get(key)
    if sector is None:
        sector = compile()
        if len(sectors) >= SECTOR_CACHE_SIZE:
            del sectors[next(iter(sectors))]
        sectors[key] = sector
    return sector


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
    on them."""
    rows = SectorRows(screen.n_qubits,
                      sector_rows(screen.representatives, span))

    circuit = screen.circuit
    by_string: Dict[PauliString, Optional[RowPlan]] = {}
    for rot in circuit.rotations:
        if rot.string not in by_string:
            outside = gf2_reduce(flip_mask(rot.string, screen.n_qubits), span)
            by_string[rot.string] = (None if outside
                                     else RowPlan(rot.string, rows))
    strings = tuple(by_string[rot.string] for rot in circuit.rotations)
    terms = () if screen.h is None else tuple(
        (coeff, RowPlan(string, rows)) for string, coeff in screen.h.items())
    return Sector(rows.rows, strings, terms,
                  [r for r in range(len(strings) - 1, -1, -1)
                   if strings[r] is not None])


def sector_rows(representatives: Sequence[int],
                span: Dict[int, int]) -> np.ndarray:
    """The sorted rows of the representatives plus ``span`` (a
    ``gf2_span`` with no element that tells two representatives apart)."""
    rows = np.array(representatives, dtype=np.intp)
    for row in span.values():
        rows = np.concatenate((rows, rows ^ row))
    return np.sort(rows)


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


def branches(occupied: np.ndarray, kept: int
             ) -> Tuple[Tuple[int, ...], List[int]]:
    """One representative per branch, the first of the ``occupied``
    indices that share its bits under ``kept`` (the label), and the
    premise flips: each index XOR its branch's representative."""
    representatives: Dict[int, int] = {}
    premise = [j ^ representatives.setdefault(j & kept, j)
               for j in occupied.tolist()]
    return tuple(representatives.values()), premise


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
                       screen: SymmetryScreen) -> Tuple[float, np.ndarray]:
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
    strings = sector.strings
    angles = circuit.angles(theta)
    psi = _evolve(strings, angles, initial.amplitudes[sector.rows])
    lam = terms_action(sector.terms, psi)
    vdot = _full_length_vdot(sector.rows, 1 << initial.n_qubits)
    energy = float(vdot(psi, lam).real)
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
    return energy, np.array(grad)

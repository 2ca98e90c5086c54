"""Slow, independent routes that the fast library paths are tested against."""

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from qpvqe.ansatz import (_evolve, apply_ansatz, parameter_vector,
                          symmetry_screen, value_and_gradient)
from qpvqe.fermion import FermionTerm, spin_orbital
from qpvqe.noise import (_gather_plan, _noise_channels, channel_superoperator,
                         depolarizing_kraus, thermal_relaxation_kraus)
from qpvqe.observables import ancilla_projector, full_purified_state
from qpvqe.pauli import (PauliString, PauliSum, _I_POWERS, expectation,
                         multiply, paulisum_action)
from qpvqe.statevector import (GateOp, StateVector, apply_gate,
                               apply_pauli_exponential, init_basis)

_SINGLE_QUBIT_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix from Kronecker products of 2x2 Paulis.

    Qubit 0 is the most significant bit.  Independent of the compiled
    plans, so it serves as the dense reference for every fast path.
    """
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in h.items():
        letters = dict(string.items)
        block = np.ones((1, 1), dtype=complex)
        for q in range(h.n_qubits):
            block = np.kron(block, _SINGLE_QUBIT_MATRICES[letters.get(q, "I")])
        out += coeff * block
    return out


def embed_string(string, n_qubits):
    """The same letters on a register of ``n_qubits`` >= the string's."""
    return PauliString.from_map(n_qubits, dict(string.items))


def rotation_unitary(string: PauliString, angle: float,
                     n_qubits: int) -> np.ndarray:
    """cos(angle/2) 1 - i sin(angle/2) P from the dense Kronecker P."""
    mat = kron_matrix(PauliSum(n_qubits, {embed_string(string, n_qubits): 1.0}))
    half = angle / 2.0
    return np.cos(half) * np.eye(1 << n_qubits) - 1j * np.sin(half) * mat


def gate_unitary(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full-register unitary of a gate, column by column through the
    statevector path."""
    dim = 1 << n_qubits
    cols = np.zeros((dim, dim), dtype=complex)
    for index in range(dim):
        state = StateVector(n_qubits)
        state.amplitudes[0] = 0.0
        state.amplitudes[index] = 1.0
        apply_gate(state, gate)
        cols[:, index] = state.amplitudes
    return cols


# ---------------------------------------------------------------------------
# The axis route for preparation gates: swap or mix the two halves of the
# target axis on the control slice, written out element by element.
# ``apply_gate`` runs the same gates as StringPlan actions; it must
# reproduce this route bit for bit on the states preparation programs
# make, and everywhere but for the sign of a zero.
# ---------------------------------------------------------------------------

def _flip_axis_inplace(view, axis):
    moved = np.moveaxis(view, axis, 0)
    tmp = moved[0].copy()
    moved[0] = moved[1]
    moved[1] = tmp


def _ry_axis_inplace(view, axis, angle):
    moved = np.moveaxis(view, axis, 0)
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    v0 = moved[0].copy()
    moved[0] = c * v0 - s * moved[1]
    moved[1] = s * v0 + c * moved[1]


def axis_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate in place on the axis route."""
    for q in gate.operands():
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range for n={state.n_qubits}")
    view = state.tensor()
    for cq, cv in sorted(gate.controls, reverse=True):
        view = np.moveaxis(view, cq, 0)[cv]
    target_axis = gate.target - sum(1 for q, _ in gate.controls
                                    if q < gate.target)
    if gate.angle is None:
        _flip_axis_inplace(view, target_axis)
    else:
        _ry_axis_inplace(view, target_axis, gate.angle)
    return state


# ---------------------------------------------------------------------------
# The string route: every Pauli string derived and applied one call at a
# time, with float64 sign vectors built by a Kronecker loop.  The compiled
# StringPlan route must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def letter_axes(string):
    """X/Y qubits, Z/Y qubits and the Y count, read off the letters."""
    letters = string.items
    xy = tuple(q for q, letter in letters if letter in ("X", "Y"))
    zy = tuple(q for q, letter in letters if letter in ("Z", "Y"))
    return xy, zy, sum(letter == "Y" for _, letter in letters)


def kron_sign_vector(n_qubits, axes):
    vec = np.ones(1, dtype=np.float64)
    minus = np.array([1.0, -1.0])
    plus = np.array([1.0, 1.0])
    for q in range(n_qubits):
        vec = np.kron(vec, minus if q in axes else plus)
    return vec.reshape((2,) * n_qubits)


def string_pauli_action(string, n_qubits, amps):
    xy, zy, n_y = letter_axes(string)
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
    xy, zy, n_y = letter_axes(string)
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


def full_register_apply_ansatz(circuit, theta, state):
    """U(theta) (x) 1 in place on the whole register: every rotation runs
    on its full ``StringPlan``.  ``apply_ansatz`` on the reachable rows
    must reproduce it bit for bit, up to the sign of the exact zeros
    outside those rows."""
    theta = parameter_vector(theta)
    state.amplitudes = _evolve(circuit.plans(state.n_qubits),
                               circuit.angles(theta),
                               state.tensor()).reshape(-1)
    return state


def full_register_value_and_gradient(circuit, theta, h, initial):
    """The compiled adjoint sweep on the whole register, with no symmetry
    screen: every rotation runs on its ``StringPlan``, H|psi> comes from
    ``paulisum_action`` and every vdot is a plain ``np.vdot``.  The
    library's sweep on the sector rows must reproduce it bit for bit."""
    theta = parameter_vector(theta)
    n = initial.n_qubits
    strings = circuit.plans(n)
    angles = circuit.angles(theta)
    psi = _evolve(strings, angles, initial.tensor())
    lam = paulisum_action(h, n, psi.reshape(-1)).reshape(psi.shape)
    energy = float(np.vdot(psi, lam).real)
    grad = [0.0] * circuit.parameter_count
    pair = np.stack((psi, lam))
    for r in range(len(angles) - 1, -1, -1):
        plan, angle, rot = strings[r], angles[r], circuit.rotations[r]
        if angle != 0.0:
            pair = plan.rotate(pair, -angle)
        grad[rot.parameter_index] += 2.0 * rot.coefficient * float(
            np.vdot(pair[1], plan.act(pair[0])).imag)
    return energy, np.array(grad)


def gradient(circuit, theta, h, initial):
    """``value_and_gradient``'s gradient, with a screen built for this one
    call."""
    screen = symmetry_screen(circuit, h, initial)
    return value_and_gradient(circuit, theta, h, initial, screen)[1]


def shifted_gradient(circuit, theta, h, initial):
    """The parameter-shift gradient from literal circuit executions.

    Each rotation r runs the whole circuit twice with its own angle
    shifted by +-pi/2 (O(R^2) rotations) and contributes
    2 c_r (E(+) - E(-))/2 to its parameter.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros(circuit.parameter_count)
    for which, rot in enumerate(circuit.rotations):
        if rot.coefficient == 0.0:
            continue
        values = []
        for shift in (math.pi / 2, -math.pi / 2):
            state = initial.copy()
            for r, other in enumerate(circuit.rotations):
                angle = 2.0 * theta[other.parameter_index] * other.coefficient
                if r == which:
                    angle += shift
                if angle != 0.0:
                    string_pauli_exponential(state, other.string, angle)
            values.append(string_expectation(h, state))
        grad[rot.parameter_index] += \
            2.0 * rot.coefficient * (values[0] - values[1]) / 2.0
    return grad


# ---------------------------------------------------------------------------
# Plain reference routes: the expectation objective, U(theta) as a dense
# matrix and its inverse, the per-state ensemble loop, dense Kraus channels
# and ED residuals.
# ---------------------------------------------------------------------------

def expectation_objective(circuit, h, initial):
    """theta -> <init| U^dag (H (x) 1) U |init> as a plain callable."""
    def objective(theta):
        return expectation(h, apply_ansatz(circuit, theta, initial.copy()))
    return objective


def circuit_unitary(circuit, theta):
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


def apply_ansatz_inverse(circuit, theta, state):
    theta = parameter_vector(theta)
    for rot in reversed(circuit.rotations):
        angle = -2.0 * theta[rot.parameter_index] * rot.coefficient
        if angle != 0.0:
            apply_pauli_exponential(state, rot.string, angle)
    return state


def ensemble_energy_by_states(h, circuit, prep, theta):
    """Reference loop sum_j w_j <D_j|U^dag H U|D_j>."""
    total = 0.0
    for w_j, det in zip(prep.weights.w, prep.refs.determinants):
        state = init_basis(len(det), det)
        apply_ansatz(circuit, theta, state)
        total += w_j * expectation(h, state)
    return total


def embed_kraus(kraus, qubit, n_qubits):
    """Full-register Kraus matrices of a one-qubit channel."""
    out = []
    for k in kraus:
        full = np.ones((1, 1), dtype=complex)
        for q in range(n_qubits):
            full = np.kron(full, k if q == qubit else np.eye(2))
        out.append(full)
    return out


def apply_kraus(rho, kraus):
    out = np.zeros_like(rho.matrix)
    for k in kraus:
        out += k @ rho.matrix @ k.conj().T
    rho.matrix = out
    return rho


TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
PSD_TOL = -1e-8


def check_density_matrix(rho, check_psd=False):
    """Raise ValueError unless rho has unit trace and is Hermitian (and,
    with ``check_psd``, has no eigenvalue below PSD_TOL)."""
    m = rho.matrix
    if abs(rho.trace() - 1.0) > TRACE_TOL:
        raise ValueError(f"trace drifted to {rho.trace()!r}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix lost Hermiticity")
    if check_psd and np.linalg.eigvalsh(m).min() < PSD_TOL:
        raise ValueError("density matrix lost positivity")


def string_noisy_ansatz(rho, circuit, theta, calib):
    """The noisy ansatz as one rotation gate at a time.

    Each rotation runs ``apply_pauli_exponential`` on its string, then on
    the string shifted by n onto the column qubits at -(-1)^{#Y} phi, then
    each operand's one-qubit channel (relaxation after depolarizing, as
    one 4x4 superoperator) gathered from vec(rho) by ``np.moveaxis``.
    """
    theta = np.asarray(theta, dtype=float)
    n = rho.n_qubits
    flat = np.arange(1 << (2 * n)).reshape((2,) * (2 * n))
    for rot in circuit.rotations:
        angle = 2.0 * theta[rot.parameter_index] * rot.coefficient
        if angle == 0.0:
            continue
        apply_pauli_exponential(rho.vec, rot.string, angle)
        column = PauliString.from_map(
            2 * n, {q + n: letter for q, letter in rot.string.items})
        n_y = letter_axes(rot.string)[2]
        apply_pauli_exponential(rho.vec, column,
                                (1.0 if n_y % 2 else -1.0) * angle)
        amps = rho.vec.amplitudes
        for q in rot.string.support():
            row = calib.qubit(q)
            superop = channel_superoperator(thermal_relaxation_kraus(
                calib.gate_time_1q_ns, row.t1_us, row.t2_us))
            if row.err_1q > 0.0:
                superop = superop @ channel_superoperator(
                    depolarizing_kraus(row.err_1q))
            if np.allclose(superop, np.eye(4), atol=1e-15):
                continue
            plan = np.moveaxis(flat, (q, n + q), (0, 1)).reshape(4, -1)
            amps[plan] = superop @ amps[plan]
    return rho


def full_register_noisy_ansatz(rho, circuit, theta, calib):
    """The noisy ansatz on the whole of vec(rho): rotation r runs
    ``circuit.plans(2n)[r]`` on the row qubits, then ``circuit.plans(n)[r]``,
    whose leading Ellipsis addresses the last n axes, on the column qubits
    at -(-1)^{#Y} phi; each channel is one gather -> matmul -> scatter over
    its full ``_gather_plan``.  ``apply_noisy_ansatz`` on the reachable rows
    must reproduce it bit for bit."""
    theta = parameter_vector(theta)
    n = rho.n_qubits
    tensor = rho.vec.tensor()
    for rot, row, column, angle in zip(circuit.rotations, circuit.plans(2 * n),
                                       circuit.plans(n), circuit.angles(theta)):
        if angle == 0.0:
            continue
        tensor = row.rotate(tensor, angle)
        tensor = column.rotate(tensor, -(column.scalar ** 2).real * angle)
        amps = tensor.reshape(-1)
        for superop, qubits in _noise_channels(calib, n, rot.string.support(),
                                               False):
            plan = _gather_plan(calib, n, qubits)
            amps[plan] = superop @ amps[plan]
    rho.vec.amplitudes = tensor.reshape(-1)
    return rho


def ed_residuals(h, ref):
    """||H v_j - E_j v_j||_2 for every returned pair."""
    out = []
    for j in range(len(ref.energies)):
        v = ref.vectors[:, j]
        out.append(np.linalg.norm(paulisum_action(h, h.n_qubits, v)
                                  - ref.energies[j] * v))
    return np.array(out)


# ---------------------------------------------------------------------------
# Jordan-Wigner on PauliString objects: the library route before it moved
# to (x, z) masks, kept as the reference.  Every generator and fermionic sum
# the library maps must equal these in term order and coefficient bits.
# ---------------------------------------------------------------------------

def _ladder_paulisum(mode: int, dagger: bool, n_modes: int) -> PauliSum:
    bit = 1 << (n_modes - 1 - mode)
    z_prefix = ((1 << mode) - 1) << (n_modes - mode)   # Z on modes < mode
    x_string = PauliString(n_modes, bit, z_prefix)
    y_string = PauliString(n_modes, bit, z_prefix | bit)
    sign = -1.0j if dagger else 1.0j
    return PauliSum(n_modes, {x_string: 0.5, y_string: 0.5 * sign})


def string_jordan_wigner(term: FermionTerm, n_modes: int) -> PauliSum:
    """Standard JW image of one fermionic term, expanded and simplified."""
    for mode, _ in term.ladder:
        if not 0 <= mode < n_modes:
            raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    acc: Dict[PauliString, complex] = {PauliString(n_modes): term.coefficient}
    for mode, dagger in term.ladder:
        factor = _ladder_paulisum(mode, dagger, n_modes)
        nxt: Dict[PauliString, complex] = {}
        for s_a, c_a in acc.items():
            for s_b, c_b in factor.items():
                phase, prod = multiply(s_a, s_b)
                nxt[prod] = nxt.get(prod, 0.0) + c_a * c_b * phase
        acc = nxt
    return PauliSum(n_modes, acc)


def string_jordan_wigner_sum(terms: Sequence[FermionTerm],
                             n_modes: int) -> PauliSum:
    out = PauliSum(n_modes)
    for term in terms:
        out = out + string_jordan_wigner(term, n_modes)
    return out


def generator_terms(kind: str, indices: Tuple[int, ...]):
    """The fermionic terms G and -G^dag of one excitation generator."""
    if kind == "single":
        p, q = indices
        terms = []
        for spin in ("a", "b"):
            hi, lo = spin_orbital(q, spin), spin_orbital(p, spin)
            terms.append(FermionTerm(1.0, ((hi, True), (lo, False))))
            terms.append(FermionTerm(-1.0, ((lo, True), (hi, False))))
        return terms
    p, q, r, s = indices
    return [
        FermionTerm(1.0, ((p, True), (q, True), (r, False), (s, False))),
        FermionTerm(-1.0, ((s, True), (r, True), (q, False), (p, False))),
    ]


def number_operator(n_modes):
    """JW image of N = sum_k a_k^dag a_k = sum_k (1 - Z_k)/2."""
    terms = {PauliString(n_modes): 0.5 * n_modes}
    for k in range(n_modes):
        terms[PauliString.from_map(n_modes, {k: "Z"})] = -0.5
    return PauliSum(n_modes, terms)


def sz_operator(n_modes):
    """JW image of S_z = (1/2) sum_p (n_{p,alpha} - n_{p,beta})."""
    if n_modes % 2:
        raise ValueError("interleaved register needs an even mode count")
    terms = {}
    for k in range(n_modes):
        sign = -1.0 if k % 2 == 0 else 1.0  # (1 - Z)/2 with prefactor +-1/2
        terms[PauliString.from_map(n_modes, {k: "Z"})] = 0.25 * sign
    return PauliSum(n_modes, terms)


def symmetry_expectations(state, n_modes):
    """(<N>, <S_z>) of a working-register state."""
    return (expectation(number_operator(n_modes), state),
            expectation(sz_operator(n_modes), state))


# ---------------------------------------------------------------------------
# The operator-product readout route: H re-embedded on the measurement
# register and multiplied by the ancilla factor with ``PauliSum.__mul__``,
# then one ``expectation`` of the product.  The library measures the same
# sums without forming the product; its values must equal these bit for bit.
# ---------------------------------------------------------------------------

def embedded(h, n_qubits):
    """H's strings and coefficients on a register of ``n_qubits``."""
    return PauliSum(n_qubits, {embed_string(s, n_qubits): c
                               for s, c in h.items()})


def with_ancilla_factor(h, n_total, n_working, ancilla_ops):
    """H on the working register times single-qubit Paulis on ancillas."""
    anc = PauliSum(n_total, {PauliString.from_map(
        n_total, {n_working + a: letter for a, letter in ancilla_ops}): 1.0})
    return embedded(h, n_total) * anc


def product_energy_gap(pair, h):
    op = with_ancilla_factor(h, pair.n_working + 1, pair.n_working, [(0, "Z")])
    return 2.0 * expectation(op, pair.state)


def product_transition_amplitude(pair, obs):
    n_total = pair.n_working + 1
    real = expectation(with_ancilla_factor(obs, n_total, pair.n_working,
                                           [(0, "X")]), pair.state)
    imag = expectation(with_ancilla_factor(obs, n_total, pair.n_working,
                                           [(0, "Y")]), pair.state)
    return complex(real, imag)


def product_projector_operator(h, n_working, k, pair):
    """H (x) A and the rescale factor of one equal-branch gap."""
    if k == 2:
        return with_ancilla_factor(h, n_working + 1, n_working, [(0, "Z")]), 2.0
    n_total = n_working + 2

    def z(qubit):
        return PauliSum(n_total, {PauliString.from_map(n_total, {qubit: "Z"}): 1.0})

    if pair == (0, 1):
        anc = z(n_working) * ancilla_projector(n_total, n_working + 1, +1)
    elif pair == (2, 3):
        anc = z(n_working) * ancilla_projector(n_total, n_working + 1, -1)
    else:
        anc = ancilla_projector(n_total, n_working, +1) * z(n_working + 1)
    return embedded(h, n_total) * anc, 4.0


def product_gap_from_full_purified(circuit, theta, refs, h, pair):
    op, scale = product_projector_operator(h, refs.n_qubits, refs.k, pair)
    state = full_purified_state(circuit, theta, refs)
    return scale * expectation(op, state)


def z2_symmetries(masks: Iterable[int], n_qubits: int) -> Tuple[int, ...]:
    """Z masks spanning {v : parity(v & m) = 0 for every X/Y mask m}.

    The GF(2) null space of the masks, the first step of qubit tapering
    (Bravyi et al., arXiv:1701.08213): rows reduced by pivot bit, then each
    free bit f gives f plus the pivots of the rows holding f.
    """
    rows: Dict[int, int] = {}
    for m in masks:
        for pivot, row in rows.items():
            m ^= row if m >> pivot & 1 else 0
        if m:
            pivot = m.bit_length() - 1
            rows = {p: r ^ m if r >> pivot & 1 else r for p, r in rows.items()}
            rows[pivot] = m
    return tuple((1 << f) | sum(1 << pivot for pivot, row in rows.items()
                                if row >> f & 1)
                 for f in range(n_qubits) if f not in rows)

"""Slow, independent routes that the fast library paths are tested against."""

import math

import numpy as np

from qpvqe.ansatz import _evolve, apply_ansatz, parameter_vector
from qpvqe.fermion import number_operator, sz_operator
from qpvqe.noise import (channel_superoperator, depolarizing_kraus,
                         thermal_relaxation_kraus)
from qpvqe.observables import _equal_branch_state, ancilla_projector
from qpvqe.pauli import (PauliString, PauliSum, _I_POWERS, _string_axes,
                         expectation, paulisum_action)
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


def rotation_unitary(string: PauliString, angle: float,
                     n_qubits: int) -> np.ndarray:
    """cos(angle/2) 1 - i sin(angle/2) P from the dense Kronecker P."""
    mat = kron_matrix(PauliSum(n_qubits, {string.embed(n_qubits): 1.0}))
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
# The string route: every Pauli string derived and applied one call at a
# time, with float64 sign vectors built by a Kronecker loop.  The compiled
# StringPlan route must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def kron_sign_vector(n_qubits, axes):
    vec = np.ones(1, dtype=np.float64)
    minus = np.array([1.0, -1.0])
    plus = np.array([1.0, 1.0])
    for q in range(n_qubits):
        vec = np.kron(vec, minus if q in axes else plus)
    return vec.reshape((2,) * n_qubits)


def string_pauli_action(string, n_qubits, amps):
    xy, zy, n_y = _string_axes(string)
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
    xy, zy, n_y = _string_axes(string)
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


def full_register_value_and_gradient(circuit, theta, h, initial):
    """The compiled adjoint sweep on the whole register, with no symmetry
    screen: every rotation runs on its ``StringPlan``, H|psi> comes from
    ``paulisum_action`` and every vdot is a plain ``np.vdot``.  The
    library's sweep on the sector rows must reproduce it bit for bit."""
    theta = parameter_vector(theta)
    n = initial.n_qubits
    compiled = circuit.plans(n)
    strings = compiled.strings
    angles = compiled.angles(theta)
    psi = _evolve(strings, angles, initial.tensor())
    lam = paulisum_action(h, n, psi.reshape(-1)).reshape(psi.shape)
    energy = float(np.vdot(psi, lam).real)
    grad = [0.0] * circuit.parameter_count
    index = compiled.index.tolist()
    coefficient = compiled.coefficient.tolist()
    pair = np.stack((psi, lam))
    for r in range(len(angles) - 1, -1, -1):
        plan, angle = strings[r], angles[r]
        if angle != 0.0:
            pair = plan.rotate(pair, -angle)
        grad[index[r]] += 2.0 * coefficient[r] * float(
            np.vdot(pair[1], plan.act(pair[0])).imag)
    return energy, np.array(grad)


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
        column = PauliString(2 * n, tuple((q + n, letter)
                                          for q, letter in rot.string.items))
        n_y = sum(letter == "Y" for _, letter in rot.string.items)
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


def ed_residuals(h, ref):
    """||H v_j - E_j v_j||_2 for every returned pair."""
    out = []
    for j in range(len(ref.energies)):
        v = ref.vectors[:, j]
        out.append(np.linalg.norm(paulisum_action(h, h.n_qubits, v)
                                  - ref.energies[j] * v))
    return np.array(out)


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
    return PauliSum(n_qubits, {s.embed(n_qubits): c for s, c in h.items()})


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
    labels = ((0, 1) if refs.k == 2 else
              tuple(((j & 1) << 1) | (j >> 1) for j in range(4)))
    state = _equal_branch_state(circuit, theta, refs, labels)
    return scale * expectation(op, state)

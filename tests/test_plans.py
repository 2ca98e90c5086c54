"""Compiled Pauli-string plans against the string route, bit for bit.

The plan route must reproduce the one-string-at-a-time route exactly
(``tobytes`` equality), because roundoff-sized gradients in
symmetry-forbidden directions feed Adam and show up in stored theta
records.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from oracles import (kron_sign_vector, string_apply_ansatz, string_expectation,
                     string_pauli_action, string_pauli_exponential,
                     string_paulisum_action, string_value_and_gradient)
from qpvqe.ansatz import (AnsatzCircuit, Rotation, apply_ansatz, build_uccgsd,
                          symmetry_screen, value_and_gradient)
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import exact_diagonalize, load_hamiltonian
from qpvqe.pauli import (DENSE_BYTES_GUARD, SIGN_CACHE_SIZE, PauliString,
                         PauliSum, RowPlan, SectorRows, StringPlan,
                         _sign_vector,
                         check_dense_bytes, expectation,
                         pauli_action, paulisum_action, to_matrix)
from qpvqe.state_prep import (build_purified_prep, default_weights,
                              select_reference_determinants)
from qpvqe.statevector import StateVector, apply_pauli_exponential, init_basis

H2_HAMS = ("data/hamiltonians/h2_0.70.ham", "data/hamiltonians/h2_2.00.ham")


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_string(rng, n):
    qubits = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    return PauliString.from_map(n, {int(q): "XYZ"[rng.integers(3)]
                                    for q in qubits})


def random_hermitian_sum(rng, n, terms=12):
    acc = {PauliString(n): float(rng.normal())}
    for _ in range(terms):
        s = random_string(rng, n)
        acc[s] = acc.get(s, 0.0) + float(rng.normal())
    return PauliSum(n, acc)


def z_mask(n, axes):
    """Bit mask of the qubits ``axes``, qubit 0 most significant."""
    return sum(1 << (n - 1 - q) for q in axes)


def theta_with_zeros(rng, count):
    theta = rng.uniform(-1.0, 1.0, count)
    theta[rng.random(count) < 0.3] = 0.0
    return theta


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture(scope="module")
def m2_circuit():
    return build_uccgsd(enumerate_sz_excitations(2))


class TestSignVector:
    @pytest.mark.parametrize("axes", [(0,), (1, 3), (0, 2, 4), (4,)])
    def test_int8_matches_kron(self, axes):
        vec = _sign_vector(5, z_mask(5, axes))
        assert vec.dtype == np.int8
        assert np.array_equal(vec, kron_sign_vector(5, axes))

    def test_cache_stays_bounded_over_fresh_operators(self):
        # Alternate operators on 10-12 qubits whose Z/Y axes are all
        # distinct, more of them than the cache holds: it never grows past
        # its bound, and every plan's signs equal a fresh, uncached build.
        rng = np.random.default_rng(5)
        fresh = _sign_vector.__wrapped__
        for count in range(SIGN_CACHE_SIZE + 200):
            n = 10 + count % 3
            axes = tuple(int(q) for q in np.flatnonzero(rng.random(n) < 0.5))
            string = PauliString.from_map(n, {q: "ZY"[q % 2] for q in axes})
            if string.is_identity:
                continue
            plan = StringPlan(string, n)
            assert plan.signs.tobytes() == fresh(n, z_mask(n, axes)).tobytes()
            assert _sign_vector.cache_info().currsize <= SIGN_CACHE_SIZE
        assert _sign_vector.cache_info().currsize == SIGN_CACHE_SIZE


class TestStringKernels:
    def test_pauli_action_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n_string = int(rng.integers(1, 5))
            n = n_string + int(rng.integers(0, 3))
            string = random_string(rng, n_string)
            amps = random_state(rng, n).amplitudes
            assert same_bits(pauli_action(string, n, amps),
                             string_pauli_action(string, n, amps))

    def test_pauli_exponential_bit_identical(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n_string = int(rng.integers(1, 5))
            n = n_string + int(rng.integers(0, 3))
            string = random_string(rng, n_string)
            if string.is_identity:
                continue
            angle = float(rng.uniform(-3.0, 3.0))
            state = random_state(rng, n)
            ours = apply_pauli_exponential(state.copy(), string, angle)
            theirs = string_pauli_exponential(state.copy(), string, angle)
            assert same_bits(ours.amplitudes, theirs.amplitudes)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_paulisum_action_and_expectation_bit_identical(self, extra):
        rng = np.random.default_rng(13 + extra)
        for _ in range(10):
            h = random_hermitian_sum(rng, 4)
            psi = random_state(rng, 4 + extra)
            assert same_bits(paulisum_action(h, psi.n_qubits, psi.amplitudes),
                             string_paulisum_action(h, psi.n_qubits,
                                                    psi.amplitudes))
            assert same_bits(expectation(h, psi), string_expectation(h, psi))


class TestRowPlans:
    def test_row_plan_matches_full_plan_on_its_rows(self):
        # rows closed under the string's flip: a random set and its image
        rng = np.random.default_rng(14)
        for _ in range(60):
            n_string = int(rng.integers(1, 5))
            n = n_string + int(rng.integers(0, 3))
            string = random_string(rng, n_string)
            full = StringPlan(string, n)
            seed_rows = rng.choice(1 << n, size=int(rng.integers(1, 1 << n)))
            rows = np.union1d(seed_rows, seed_rows ^ full.mask)
            plan = RowPlan(string, SectorRows(n, rows))
            pair = np.stack([random_state(rng, n).tensor() for _ in range(2)])
            flat = pair.reshape(2, -1)
            angle = float(rng.uniform(-3.0, 3.0))
            assert same_bits(plan.act(flat[0][rows]),
                             full.act(pair[0]).reshape(-1)[rows])
            assert same_bits(plan.rotate(flat[:, rows], angle),
                             full.rotate(pair, angle).reshape(2, -1)[:, rows])

    def test_rows_a_string_leaves_are_refused(self):
        string = PauliString.from_word(2, "X0")
        with pytest.raises(ValueError, match="outside"):
            RowPlan(string, SectorRows(2, np.array([0, 1])))


class TestCircuitPlans:
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_apply_ansatz_bit_identical_across_registers(self, m2_circuit,
                                                         extra):
        # One circuit object serves registers of N, N+1 and N+2 qubits.
        rng = np.random.default_rng(21)
        for _ in range(4):
            theta = theta_with_zeros(rng, m2_circuit.parameter_count)
            state = random_state(rng, 4 + extra)
            ours = apply_ansatz(m2_circuit, theta, state.copy())
            theirs = string_apply_ansatz(m2_circuit, theta, state.copy())
            assert same_bits(ours.amplitudes, theirs.amplitudes)
        assert any(key[0] == 4 + extra for key in m2_circuit._sectors)

    def test_value_and_gradient_single_state(self, m2_circuit):
        # K = 1: no ancilla, the register is the working register.
        h = load_hamiltonian(H2_HAMS[0])
        rng = np.random.default_rng(22)
        for _ in range(5):
            theta = theta_with_zeros(rng, m2_circuit.parameter_count)
            initial = init_basis(4, "1100")
            ours = value_and_gradient(m2_circuit, theta, h, initial,
                                      symmetry_screen(m2_circuit, h, initial))
            theirs = string_value_and_gradient(m2_circuit, theta, h, initial)
            assert same_bits(ours[0], theirs[0])
            assert same_bits(ours[1], theirs[1])
            assert same_bits(initial.amplitudes, init_basis(4, "1100").amplitudes)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_value_and_gradient_random_registers(self, m2_circuit, extra):
        rng = np.random.default_rng(23 + extra)
        for _ in range(4):
            theta = theta_with_zeros(rng, m2_circuit.parameter_count)
            h = random_hermitian_sum(rng, 4)
            initial = random_state(rng, 4 + extra)
            ours = value_and_gradient(m2_circuit, theta, h, initial,
                                      symmetry_screen(m2_circuit, h, initial))
            theirs = string_value_and_gradient(m2_circuit, theta, h, initial)
            assert same_bits(ours[0], theirs[0])
            assert same_bits(ours[1], theirs[1])

    def test_value_and_gradient_large_register(self):
        # 2^13 amplitudes per state: the stacked pair spans more than one
        # of numpy's 8192-element casting buffers.
        rng = np.random.default_rng(26)
        rotations = []
        for r in range(24):
            string = random_string(rng, 11)
            if not string.is_identity:
                rotations.append(Rotation(string, float(rng.normal()), r % 7))
        circuit = AnsatzCircuit(11, tuple(rotations), 7)
        h = random_hermitian_sum(rng, 11, terms=8)
        initial = random_state(rng, 13)
        theta = theta_with_zeros(rng, 7)
        ours = value_and_gradient(circuit, theta, h, initial,
                                  symmetry_screen(circuit, h, initial))
        theirs = string_value_and_gradient(circuit, theta, h, initial)
        assert same_bits(ours[0], theirs[0])
        assert same_bits(ours[1], theirs[1])

    def test_all_zero_theta_leaves_initial_alone(self, m2_circuit):
        h = load_hamiltonian(H2_HAMS[0])
        initial = init_basis(4, "1010")
        theta = np.zeros(m2_circuit.parameter_count)
        ours = value_and_gradient(m2_circuit, theta, h, initial,
                                  symmetry_screen(m2_circuit, h, initial))
        theirs = string_value_and_gradient(m2_circuit, theta, h, initial)
        assert same_bits(ours[1], theirs[1])
        assert same_bits(initial.amplitudes, init_basis(4, "1010").amplitudes)

    def test_plans_built_lazily(self):
        circuit = build_uccgsd(enumerate_sz_excitations(2))
        assert circuit._plans == {}
        h = load_hamiltonian(H2_HAMS[0])
        assert h._plans == {}
        circuit.plans(6)
        assert list(circuit._plans) == [6]
        with pytest.raises(ValueError):
            circuit.plans(3)

    def test_plans_do_not_change_identity(self, m2_circuit):
        again = build_uccgsd(enumerate_sz_excitations(2))
        m2_circuit.plans(4)
        assert again == m2_circuit and hash(again) == hash(m2_circuit)
        assert "_plans" not in repr(again)


class TestSweepStyle:
    def test_fresh_objects_never_reuse_plans(self):
        # Alternate freshly built circuits and Hamiltonians, dropping the
        # previous ones so their addresses can be reused: a plan cache keyed
        # by object identity would hand a new object an old plan here.
        rng = np.random.default_rng(31)
        refs = select_reference_determinants(load_hamiltonian(H2_HAMS[0]),
                                             2, 0.0, 4)
        initial = build_purified_prep(default_weights(4), refs).prepare()
        seen = []
        for step in range(6):
            circuit = build_uccgsd(enumerate_sz_excitations(2))
            h = load_hamiltonian(H2_HAMS[step % 2])
            assert circuit._plans == {} and h._plans == {}
            theta = theta_with_zeros(rng, circuit.parameter_count)
            ours = value_and_gradient(circuit, theta, h, initial,
                                      symmetry_screen(circuit, h, initial))
            theirs = string_value_and_gradient(circuit, theta, h, initial)
            assert same_bits(ours[0], theirs[0])
            assert same_bits(ours[1], theirs[1])
            plan = circuit.plans(initial.n_qubits)
            assert all(plan is not old for old in seen)
            seen.append(plan)
            del circuit, h
            gc.collect()


class TestDenseGuard:
    @pytest.mark.parametrize("n", [13, 14])
    def test_to_matrix_raises_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                to_matrix(PauliSum.identity(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [13, 14])
    def test_exact_diagonalize_raises_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                exact_diagonalize(PauliSum.identity(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_twelve_qubits_allowed_by_bytes(self):
        check_dense_bytes(1 << 12, 1 << 12)
        with pytest.raises(ValueError):
            check_dense_bytes(1 << 12, (1 << 12) + 1)
        assert (1 << 24) * 16 == DENSE_BYTES_GUARD

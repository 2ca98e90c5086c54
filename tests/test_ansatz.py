import numpy as np
import pytest

from qpvqe.ansatz import (AnsatzCircuit, Rotation, apply_ansatz,
                          apply_ansatz_inverse, build_uccgsd, circuit_unitary,
                          expectation_objective, gradient, value_and_gradient)
from qpvqe.fermion import enumerate_sz_excitations, number_operator, sz_operator
from qpvqe.harness import load_hamiltonian
from qpvqe.pauli import PauliString, PauliSum, expectation, to_matrix
from qpvqe.state_prep import (ReferenceSet, build_purified_prep,
                              default_weights, prepare_purified)
from qpvqe.statevector import StateVector, init_basis

from oracles import shifted_gradient

H2_HAM = "data/hamiltonians/h2_0.70.ham"


@pytest.fixture(scope="module")
def m2_circuit():
    return build_uccgsd(enumerate_sz_excitations(2))


def random_hermitian_sum(rng, n, terms=6):
    acc = {}
    for _ in range(terms):
        qubits = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        s = PauliString.from_map(n, {int(q): "XYZ"[rng.integers(3)]
                                     for q in qubits})
        acc[s] = acc.get(s, 0.0) + float(rng.normal())
    return PauliSum(n, acc)


class TestBuildUccgsd:
    def test_single_generator_rotation_content(self, m2_circuit):
        single = [r for r in m2_circuit.rotations if r.parameter_index == 0]
        # shared spatial single: two strings per spin channel
        assert len(single) == 4
        coeffs = sorted(r.coefficient for r in single)
        assert coeffs == pytest.approx([-0.5, -0.5, 0.5, 0.5])

    def test_zero_parameters_identity(self, m2_circuit):
        state = init_basis(4, "1100")
        before = state.amplitudes.copy()
        apply_ansatz(m2_circuit, np.zeros(m2_circuit.parameter_count), state)
        assert np.array_equal(state.amplitudes, before)

    def test_unitary_at_random_theta(self, m2_circuit):
        rng = np.random.default_rng(1)
        theta = rng.uniform(-1.5, 1.5, m2_circuit.parameter_count)
        u = circuit_unitary(m2_circuit, theta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            build_uccgsd([])

    def test_rotation_string_order_frozen(self, m2_circuit):
        again = build_uccgsd(enumerate_sz_excitations(2))
        assert [(r.string.items, r.coefficient, r.parameter_index)
                for r in m2_circuit.rotations] == \
               [(r.string.items, r.coefficient, r.parameter_index)
                for r in again.rotations]


class TestApplyAnsatz:
    def test_inverse_restores(self, m2_circuit):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1, 1, m2_circuit.parameter_count)
        state = init_basis(4, "1001")
        before = state.amplitudes.copy()
        apply_ansatz(m2_circuit, theta, state)
        apply_ansatz_inverse(m2_circuit, theta, state)
        assert np.max(np.abs(state.amplitudes - before)) < 1e-10

    def test_ancilla_marginal_untouched(self, m2_circuit):
        refs = ReferenceSet(("1100", "1001", "0110", "0011"))
        state = prepare_purified(default_weights(4), refs)
        def ancilla_marginal(s):
            t = s.amplitudes.reshape(16, 4)
            return t.conj().T @ t
        before = ancilla_marginal(state)
        theta = np.random.default_rng(5).uniform(-1, 1, m2_circuit.parameter_count)
        apply_ansatz(m2_circuit, theta, state)
        assert np.max(np.abs(ancilla_marginal(state) - before)) < 1e-12

    def test_symmetry_preservation(self):
        rng = np.random.default_rng(7)
        for m in (2, 3):
            circ = build_uccgsd(enumerate_sz_excitations(m))
            n = 2 * m
            num, sz = number_operator(n), sz_operator(n)
            bits = [1] * (n // 2) + [0] * (n - n // 2)
            state = init_basis(n, bits)
            n_before = expectation(num, state)
            sz_before = expectation(sz, state)
            theta = rng.uniform(-1, 1, circ.parameter_count)
            apply_ansatz(circ, theta, state)
            assert expectation(num, state) == pytest.approx(n_before, abs=1e-10)
            assert expectation(sz, state) == pytest.approx(sz_before, abs=1e-10)

    def test_reference_orthogonality_preserved(self, m2_circuit):
        from qpvqe.statevector import inner_product
        theta = np.random.default_rng(11).uniform(-1, 1,
                                                  m2_circuit.parameter_count)
        dets = ("1100", "1001", "0110", "0011")
        evolved = []
        for det in dets:
            s = init_basis(4, det)
            apply_ansatz(m2_circuit, theta, s)
            evolved.append(s)
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(evolved[i], evolved[j]) - expected) \
                    < 1e-12

    def test_parameter_length_mismatch(self, m2_circuit):
        with pytest.raises(ValueError):
            apply_ansatz(m2_circuit, np.zeros(3), StateVector(4))


class TestGradient:
    def test_constant_objective_zero_gradient(self, m2_circuit):
        h = PauliSum.identity(4, 2.5)
        init = init_basis(4, "1100")
        grad = gradient(m2_circuit, np.zeros(m2_circuit.parameter_count),
                        h, init)
        assert np.max(np.abs(grad)) < 1e-12

    def test_sweep_equals_literal_shifted(self, m2_circuit):
        rng = np.random.default_rng(13)
        h = random_hermitian_sum(rng, 4)
        init = init_basis(4, "0110")
        theta = rng.uniform(-0.8, 0.8, m2_circuit.parameter_count)
        g_sweep = gradient(m2_circuit, theta, h, init)
        g_shift = shifted_gradient(m2_circuit, theta, h, init)
        assert np.max(np.abs(g_sweep - g_shift)) < 1e-12

    def test_matches_finite_differences(self, m2_circuit):
        rng = np.random.default_rng(17)
        h = random_hermitian_sum(rng, 4)
        init = init_basis(4, "1100")
        theta = rng.uniform(-0.7, 0.7, m2_circuit.parameter_count)
        grad = gradient(m2_circuit, theta, h, init)
        objective = expectation_objective(m2_circuit, h, init)
        step = 1e-5
        for i in range(len(theta)):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            fd = (objective(plus) - objective(minus)) / (2 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_value_and_gradient_value(self, m2_circuit):
        rng = np.random.default_rng(19)
        h = random_hermitian_sum(rng, 4)
        init = init_basis(4, "1100")
        theta = rng.uniform(-0.5, 0.5, m2_circuit.parameter_count)
        energy, _ = value_and_gradient(m2_circuit, theta, h, init)
        assert energy == pytest.approx(
            expectation_objective(m2_circuit, h, init)(theta), abs=1e-13)

    def test_gradient_on_purified_register(self, m2_circuit):
        # gradient machinery must handle states wider than the ansatz
        h = load_hamiltonian(H2_HAM)
        refs = ReferenceSet(("1100", "1001", "0110", "0011"))
        prep = build_purified_prep(default_weights(4), refs)
        init = prep.prepare()
        rng = np.random.default_rng(23)
        theta = rng.uniform(-0.5, 0.5, m2_circuit.parameter_count)
        grad = gradient(m2_circuit, theta, h, init)
        objective = expectation_objective(m2_circuit, h, init)
        step = 1e-5
        for i in (0, 3, 6):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += step
            minus[i] -= step
            fd = (objective(plus) - objective(minus)) / (2 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-6)


class TestAncillaGuard:
    def test_generator_on_ancilla_rejected(self):
        bad = PauliSum(6, {PauliString.from_word(6, "X4 Y5"): 0.5j,
                           PauliString.from_word(6, "Y4 X5"): -0.5j})
        from qpvqe.fermion import ExcitationGenerator
        gen = ExcitationGenerator("single", (2, 2), 0, bad)
        circ = build_uccgsd([gen])
        assert circ.n_working_qubits == 6  # register matches the pauli form
        # but an explicitly smaller circuit must refuse such strings
        with pytest.raises(ValueError):
            AnsatzCircuit(4, (Rotation(PauliString.from_word(6, "X4 Y5"),
                                       0.5, 0),), 1)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qpvqe.pauli import PauliString, PauliSum
from qpvqe.statevector import (GateOp, StateVector, apply_gate,
                               apply_pauli_exponential, fidelity, gate_cnot,
                               gate_controlled_ry, gate_controlled_x,
                               gate_ry, gate_x, init_basis, inner_product,
                               run_program)

from oracles import kron_matrix


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def random_string(rng, n, nontrivial=True):
    lo = 1 if nontrivial else 0
    qubits = rng.choice(n, size=int(rng.integers(lo, n + 1)), replace=False)
    return PauliString.from_map(n, {int(q): "XYZ"[rng.integers(3)]
                                    for q in qubits})


class TestInitBasis:
    def test_msb_convention(self):
        s = init_basis(4, "1100")
        assert np.argmax(np.abs(s.amplitudes)) == 12

    def test_all_zero(self):
        s = init_basis(2, "00")
        assert s.amplitudes[0] == 1.0

    def test_six_qubits(self):
        s = init_basis(6, "110000")
        assert np.argmax(np.abs(s.amplitudes)) == 48

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            init_basis(3, "10")


class TestGates:
    def test_ry_on_zero(self):
        s = StateVector(1)
        apply_gate(s, gate_ry(0, 0.8))
        assert s.amplitudes[0] == pytest.approx(np.cos(0.4))
        assert s.amplitudes[1] == pytest.approx(np.sin(0.4))

    def test_cnot(self):
        s = init_basis(2, "10")
        apply_gate(s, gate_cnot(0, 1))
        assert np.argmax(np.abs(s.amplitudes)) == 3

    def test_cnot_control_off(self):
        s = init_basis(2, "01")
        apply_gate(s, gate_cnot(0, 1))
        assert np.argmax(np.abs(s.amplitudes)) == 1

    def test_zero_controlled_x(self):
        s = init_basis(2, "00")
        apply_gate(s, gate_controlled_x(((0, 0),), 1))
        assert np.argmax(np.abs(s.amplitudes)) == 1

    def test_multi_controlled_ry(self):
        s = init_basis(3, "110")
        apply_gate(s, gate_controlled_ry(((0, 1), (1, 1)), 2, np.pi))
        assert np.argmax(np.abs(s.amplitudes)) == 7
        s = init_basis(3, "100")
        apply_gate(s, gate_controlled_ry(((0, 1), (1, 1)), 2, np.pi))
        assert np.argmax(np.abs(s.amplitudes)) == 4

    def test_shifted_moves_every_operand(self):
        gate = gate_controlled_ry(((0, 1), (2, 0)), 1, 0.3)
        assert gate.shifted(3) == gate_controlled_ry(((3, 1), (5, 0)), 4, 0.3)
        assert gate_x(1).shifted(2) == gate_x(3)
        assert gate.shifted(0) == gate
        # shifted past a two-qubit prefix, the gate acts on the trailing
        # qubits as it does on their own register
        rng = np.random.default_rng(5)
        low = random_state(rng, 3)
        high = random_state(rng, 2)
        wide = StateVector(5, np.kron(high.amplitudes, low.amplitudes))
        apply_gate(low, gate)
        apply_gate(wide, gate.shifted(2))
        assert np.allclose(wide.amplitudes,
                           np.kron(high.amplitudes, low.amplitudes),
                           atol=1e-14)

    def test_out_of_range_qubit(self):
        s = StateVector(2)
        with pytest.raises(ValueError):
            apply_gate(s, gate_x(2))

    def test_gates_match_dense_unitaries(self):
        rng = np.random.default_rng(17)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            psi = random_state(rng, n)
            kind = rng.integers(3)
            if kind == 0:
                q = int(rng.integers(n))
                gate = gate_x(q)
                ref = _embed(x, [q], n)
            elif kind == 1:
                q = int(rng.integers(n))
                ang = float(rng.uniform(-3, 3))
                gate = gate_ry(q, ang)
                ry = np.array([[np.cos(ang / 2), -np.sin(ang / 2)],
                               [np.sin(ang / 2), np.cos(ang / 2)]],
                              dtype=complex)
                ref = _embed(ry, [q], n)
            else:
                c, t = rng.choice(n, size=2, replace=False)
                gate = gate_cnot(int(c), int(t))
                ref = _cnot_dense(int(c), int(t), n)
            expected = ref @ psi.amplitudes
            apply_gate(psi, gate)
            assert np.max(np.abs(psi.amplitudes - expected)) < 1e-13


def _embed(mat, qubits, n):
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, mat if q in qubits else np.eye(2))
    return out


def _cnot_dense(c, t, n):
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        if (col >> (n - 1 - c)) & 1:
            row = col ^ (1 << (n - 1 - t))
        else:
            row = col
        out[row, col] = 1.0
    return out


class TestPauliExponential:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(0)
        psi = random_state(rng, 3)
        before = psi.amplitudes.copy()
        apply_pauli_exponential(psi, PauliString.from_word(3, "X0 Y2"), 0.0)
        assert np.allclose(psi.amplitudes, before)

    def test_x_closed_form(self):
        psi = StateVector(1)
        apply_pauli_exponential(psi, PauliString.from_word(1, "X0"), np.pi / 2)
        expected = np.array([1.0, -1.0j]) / np.sqrt(2)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-14

    def test_diagonal_rotation_preserves_moduli(self):
        psi = init_basis(1, "0")
        apply_pauli_exponential(psi, PauliString.from_word(1, "Z0"), 0.7)
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0)

    def test_rejects_identity_string(self):
        psi = StateVector(2)
        with pytest.raises(ValueError):
            apply_pauli_exponential(psi, PauliString(2), 0.3)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_expm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        string = random_string(rng, n)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        psi = random_state(rng, n)
        dense = expm(-0.5j * angle * kron_matrix(PauliSum(n, {string: 1.0})))
        expected = dense @ psi.amplitudes
        apply_pauli_exponential(psi, string, angle)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12


class TestNormAndInverses:
    def test_norm_after_1000_random_gates(self):
        rng = np.random.default_rng(42)
        n = 4
        psi = random_state(rng, n)
        for _ in range(1000):
            kind = rng.integers(4)
            if kind == 0:
                apply_gate(psi, gate_x(int(rng.integers(n))))
            elif kind == 1:
                apply_gate(psi, gate_ry(int(rng.integers(n)),
                                        float(rng.uniform(-3, 3))))
            elif kind == 2:
                c, t = rng.choice(n, size=2, replace=False)
                apply_gate(psi, gate_cnot(int(c), int(t)))
            else:
                apply_pauli_exponential(psi, random_string(rng, n),
                                        float(rng.uniform(-3, 3)))
        assert abs(psi.norm() - 1.0) <= 1e-8

    def test_gate_inverses_restore_state(self):
        rng = np.random.default_rng(9)
        n = 3
        psi = random_state(rng, n)
        before = psi.amplitudes.copy()
        ang = 1.234
        string = PauliString.from_word(3, "Y0 Z2")
        apply_gate(psi, gate_ry(1, ang))
        apply_pauli_exponential(psi, string, ang)
        apply_gate(psi, gate_x(0))
        apply_gate(psi, gate_x(0))
        apply_pauli_exponential(psi, string, -ang)
        apply_gate(psi, gate_ry(1, -ang))
        assert np.max(np.abs(psi.amplitudes - before)) < 1e-12


class TestInnerProductFidelity:
    def test_self_inner_product(self):
        psi = random_state(np.random.default_rng(1), 3)
        assert inner_product(psi, psi) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert inner_product(init_basis(2, "00"), init_basis(2, "01")) == 0.0
        assert fidelity(init_basis(2, "00"), init_basis(2, "01")) == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)))

    def test_identical_states_fidelity(self):
        psi = random_state(np.random.default_rng(3), 2)
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            inner_product(StateVector(1), StateVector(2))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpvqe.harness import load_hamiltonian
from qpvqe.pauli import PauliString, PauliSum, expectation
from qpvqe.state_prep import (PurifiedPrep, ReferenceSet, WeightVector,
                              build_purified_prep, compressed_cascade,
                              default_weights, isometry_network,
                              n_ancilla_for, prepare_purified,
                              select_reference_determinants)
from qpvqe.statevector import StateVector, init_basis, run_program

H2_REFS = ReferenceSet(("1100", "1001", "0110", "0011"))


class TestWeightVector:
    def test_default_weights_k4(self):
        assert default_weights(4).w == pytest.approx((0.4, 0.3, 0.2, 0.1))

    def test_default_weights_k1(self):
        assert default_weights(1).w == (1.0,)

    def test_default_weights_k2(self):
        assert default_weights(2).w == pytest.approx((2 / 3, 1 / 3))

    def test_rejects_equal_weights(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.5))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((1.2, -0.2))

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            default_weights(0)

    def test_min_gap(self):
        assert default_weights(4).min_gap() == pytest.approx(0.1)


class TestCascade:
    def test_k4_first_angle(self):
        angles, _ = compressed_cascade(default_weights(4))
        assert angles[0] == pytest.approx(2 * math.asin(math.sqrt(0.3)),
                                          abs=1e-12)
        assert angles[0] == pytest.approx(1.159279, abs=1e-6)

    def test_k4_amplitudes(self):
        w = default_weights(4)
        _, gates = compressed_cascade(w)
        state = run_program(StateVector(2), gates)
        assert np.max(np.abs(state.amplitudes - np.sqrt(w.w))) < 1e-12

    def test_k1_empty_program(self):
        angles, gates = compressed_cascade(default_weights(1))
        assert gates == []

    def test_gate_counts_linear_in_k(self):
        for k in (2, 4, 8):
            _, gates = compressed_cascade(default_weights(k))
            assert len(gates) == k - 1

    def test_padded_k3(self):
        w = default_weights(3)
        _, gates = compressed_cascade(w)
        state = run_program(StateVector(2), gates)
        expected = np.array([math.sqrt(x) for x in w.w] + [0.0])
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


class TestIsometryNetwork:
    def test_h2_network_reproduces_reference_pairing(self):
        # labels are binary(j); the full program is exercised via prepare
        gates = isometry_network(H2_REFS)
        state = StateVector(6)
        # put labels in equal superposition so every branch is checked
        from qpvqe.statevector import apply_gate, gate_ry
        apply_gate(state, gate_ry(4, math.pi / 2))
        apply_gate(state, gate_ry(5, math.pi / 2))
        run_program(state, gates)
        nz = {format(i, "06b"): a for i, a in enumerate(state.amplitudes)
              if abs(a) > 1e-12}
        assert set(nz) == {"110000", "100101", "011010", "001111"}

    def test_single_reference_plain_x(self):
        gates = isometry_network(ReferenceSet(("1100",)), n_ancilla=0)
        assert all(g.angle is None and not g.controls for g in gates)
        state = run_program(StateVector(4), gates)
        assert np.argmax(np.abs(state.amplitudes)) == 12

    def test_random_k3_extensional(self):
        refs = ReferenceSet(("110000", "000011", "010010"))
        state = prepare_purified(default_weights(3), refs)
        w = default_weights(3)
        for j, det in enumerate(refs.determinants):
            index = (int(det, 2) << 2) + j
            assert state.amplitudes[index] == pytest.approx(
                math.sqrt(w.w[j]), abs=1e-12)


class TestPreparePurified:
    def test_h2_four_branch_amplitudes(self):
        w = default_weights(4)
        state = prepare_purified(w, H2_REFS)
        expected = {
            "110000": math.sqrt(0.4), "100101": math.sqrt(0.3),
            "011010": math.sqrt(0.2), "001111": math.sqrt(0.1)}
        for i, amp in enumerate(state.amplitudes):
            want = expected.get(format(i, "06b"), 0.0)
            assert abs(amp - want) < 1e-12

    def test_k1_no_ancilla(self):
        state = prepare_purified(default_weights(1), ReferenceSet(("11",)))
        assert state.n_qubits == 2
        assert state.amplitudes[3] == pytest.approx(1.0)

    def test_ancilla_spectrum_equals_weights(self):
        w = default_weights(4)
        state = prepare_purified(w, H2_REFS)
        t = state.amplitudes.reshape(16, 4)
        rho = t.conj().T @ t
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.max(np.abs(eigs - np.array(w.w))) < 1e-12

    def test_purification_identity(self):
        # <Phi| A (x) 1 |Phi> = sum_j w_j <D_j| A |D_j> for random Hermitian A
        rng = np.random.default_rng(29)
        w = default_weights(4)
        state = prepare_purified(w, H2_REFS)
        for _ in range(20):
            qubits = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            s = PauliString.from_map(4, {int(q): "XYZ"[rng.integers(3)]
                                         for q in qubits})
            a = PauliSum(4, {s: float(rng.normal())})
            lhs = expectation(a, state)
            rhs = sum(wj * expectation(a, init_basis(4, det))
                      for wj, det in zip(w.w, H2_REFS.determinants))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_weight_reference_k_mismatch(self):
        with pytest.raises(ValueError):
            build_purified_prep(default_weights(3), H2_REFS)


class TestReferenceSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ReferenceSet(("1100", "1100"))

    def test_rejects_mixed_particle_number(self):
        with pytest.raises(ValueError):
            ReferenceSet(("1100", "1110"))

    def test_rejects_mixed_sz(self):
        with pytest.raises(ValueError):
            ReferenceSet(("1100", "1010"))

    def test_sector_properties(self):
        assert H2_REFS.n_particles == 2
        assert H2_REFS.sz == 0.0
        assert H2_REFS.k == 4


class TestDefaultSelection:
    def test_h2_selection_has_hf_first(self):
        h = load_hamiltonian("data/hamiltonians/h2_0.70.ham")
        refs = select_reference_determinants(h, 2, 0.0, 4)
        assert refs.determinants[0] == "1100"
        assert set(refs.determinants) == {"1100", "1001", "0110", "0011"}

    def test_selection_deterministic(self):
        h = load_hamiltonian("data/hamiltonians/h2_0.70.ham")
        a = select_reference_determinants(h, 2, 0.0, 4)
        b = select_reference_determinants(h, 2, 0.0, 4)
        assert a.determinants == b.determinants

    def test_k_exceeds_sector(self):
        h = load_hamiltonian("data/hamiltonians/h2_0.70.ham")
        with pytest.raises(ValueError):
            select_reference_determinants(h, 2, 0.0, 5)

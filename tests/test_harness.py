import numpy as np
import pytest

from qpvqe.harness import (EDReference, HamiltonianFormatError,
                           exact_diagonalize,
                           load_hamiltonian, parse_hamiltonian, parse_manifest,
                           parse_record, record_get, record_get_all,
                           sector_indices, serialize_hamiltonian,
                           write_record)
from qpvqe.pauli import PauliString, PauliSum, paulisum_action, to_matrix

from conftest import data_path
from oracles import (ed_residuals, kron_matrix, number_operator,
                     sz_operator)


class TestParseHamiltonian:
    def test_duplicate_collection(self):
        h = parse_hamiltonian("qubits 2\n0.5 Z0\n0.5 Z0\n")
        assert h.coefficient(PauliString.from_word(2, "Z0")) == 1.0
        assert len(h) == 1

    def test_identity_term(self):
        h = parse_hamiltonian("qubits 1\n-0.25 I\n")
        assert h.coefficient(PauliString(1)) == -0.25

    def test_bad_letter_names_line(self):
        with pytest.raises(HamiltonianFormatError) as err:
            parse_hamiltonian("qubits 2\n0.3 X0 W1\n")
        assert "line 2" in str(err.value)

    def test_bad_index_rejected(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian("qubits 2\n0.3 X5\n")

    def test_bad_coefficient_rejected(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian("qubits 1\nfoo Z0\n")

    def test_missing_header(self):
        with pytest.raises(HamiltonianFormatError):
            parse_hamiltonian("0.5 Z0\n")

    def test_comments_and_blanks(self):
        h = parse_hamiltonian("# c\n\nqubits 1\n0.5 Z0  # inline\n")
        assert len(h) == 1
        # a tab or a run of blanks after the coefficient, and a bare
        # coefficient as the identity
        h = parse_hamiltonian("qubits\t2\n0.5\tZ0\n0.25 \t X0  Z1\n-1\n")
        assert h.terms() == {PauliString.from_word(2, "Z0"): 0.5,
                             PauliString.from_word(2, "X0 Z1"): 0.25,
                             PauliString(2): -1.0}

    def test_roundtrip_identity(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        again = parse_hamiltonian(serialize_hamiltonian(h))
        assert again.terms() == h.terms()

    def test_cancellation_to_zero_sum(self):
        h = parse_hamiltonian("qubits 1\n1 Z0\n-1 Z0\n")
        assert len(h) == 0


class TestSectors:
    def test_sz_interleaved_convention(self):
        # |1100>: alpha on q0, beta on q1
        assert 0b1100 in sector_indices(4, 2, 0.0)
        assert sector_indices(4, 2, 1.0) == [0b1010]
        assert sector_indices(4, 2, -1.0) == [0b0101]

    def test_sector_indices_h2(self):
        idx = sector_indices(4, 2, 0.0)
        assert sorted(format(i, "04b") for i in idx) == \
            ["0011", "0110", "1001", "1100"]

    def test_sector_indices_against_a_loop(self):
        for n in range(11):
            labels = []
            for i in range(1 << n):
                bits = [int(b) for b in format(i, f"0{n}b")] if n else []
                labels.append((sum(bits),
                               0.5 * (sum(bits[0::2]) - sum(bits[1::2]))))
            for n_particles in range(n + 2):
                for sz in (0.0, 0.5, -0.5, 1.0, -1.0, 0.25):
                    idx = sector_indices(n, n_particles, sz)
                    assert idx == [i for i, (count, value) in enumerate(labels)
                                   if count == n_particles
                                   and abs(value - sz) < 1e-9]
                    assert all(type(i) is int for i in idx)

    def test_diagonal_element_against_dense(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        dense = kron_matrix(h)
        basis = (0, 3, 9, 12, 15)
        diagonal = to_matrix(h, basis).diagonal().real
        for index, value in zip(basis, diagonal):
            assert value == pytest.approx(dense[index, index].real, abs=1e-12)


class TestExactDiagonalize:
    def test_z_spectrum(self):
        h = PauliSum(1, {PauliString.from_word(1, "Z0"): 1.0})
        ref = exact_diagonalize(h)
        assert np.allclose(ref.energies, [-1.0, 1.0])

    def test_hopping_single_excitation_block(self):
        h = PauliSum(2, {PauliString.from_word(2, "X0 X1"): 1.0,
                         PauliString.from_word(2, "Y0 Y1"): 1.0})
        full = exact_diagonalize(h)
        # the one-particle block {|01>, |10>} carries the +-2 eigenvalues
        n_mat = to_matrix(number_operator(2))
        single_particle = sorted(
            full.energies[j] for j in range(4)
            if abs(np.vdot(full.vectors[:, j],
                           n_mat @ full.vectors[:, j]).real - 1.0) < 1e-9)
        assert single_particle == pytest.approx([-2.0, 2.0])

    def test_h2_reference_and_residuals(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        ref = exact_diagonalize(h, sector=(2, 0.0), k=4)
        assert np.all(np.diff(ref.energies) >= 0)
        assert np.max(ed_residuals(h, ref)) <= 1e-10
        # orthonormal eigenvectors
        g = ref.vectors.conj().T @ ref.vectors
        assert np.max(np.abs(g - np.eye(4))) < 1e-12

    def test_sector_consistency_of_eigenvectors(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        ref = exact_diagonalize(h, sector=(2, 0.0), k=4)
        n_mat = to_matrix(number_operator(4))
        sz_mat = to_matrix(sz_operator(4))
        for j in range(4):
            v = ref.vectors[:, j]
            assert np.vdot(v, n_mat @ v).real == pytest.approx(2.0, abs=1e-10)
            assert np.vdot(v, sz_mat @ v).real == pytest.approx(0.0, abs=1e-10)

    def test_k_exceeding_sector_dimension(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        with pytest.raises(ValueError):
            exact_diagonalize(h, sector=(2, 0.0), k=5)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_below_one_rejected(self, k):
        # k went straight into a slice: -1 dropped the top level, 0 all.
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        for sector in ((2, 0.0), None):
            with pytest.raises(ValueError, match=f"k={k}"):
                exact_diagonalize(h, sector=sector, k=k)

    def test_sector_matches_full_diagonalization(self):
        h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
        restricted = exact_diagonalize(h, sector=(2, 0.0), k=4)
        full = exact_diagonalize(h)
        picked = []
        for j in range(len(full.energies)):
            v = full.vectors[:, j]
            weight = sum(abs(v[i]) ** 2 for i in sector_indices(4, 2, 0.0))
            if weight > 0.999:
                picked.append(full.energies[j])
        assert np.allclose(sorted(picked)[:4], restricted.energies, atol=1e-10)

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_diagonalize(PauliSum.identity(15))

    def test_subspace_fidelity_degenerate_block(self):
        h = PauliSum.identity(2, 1.0)  # fully degenerate
        ref = exact_diagonalize(h, k=4)
        v = np.zeros(4, dtype=complex)
        v[2] = 1.0
        assert ref.subspace_fidelity(v, 0) == pytest.approx(1.0, abs=1e-12)


class TestManifest:
    def test_parse(self):
        m = parse_manifest("k: 4\npoint: 0.5 a.ham\npoint: 0.6 b.ham\n",
                           base_dir="/x")
        assert m.options["k"] == "4"
        assert m.points[0] == ("0.5", "/x/a.ham")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            parse_manifest("point: a x.ham\npoint: a y.ham\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_manifest("k: 4\n")


class TestRecords:
    def test_roundtrip(self):
        text = write_record([("kind", "spectrum_result"), ("seed", "7"),
                             ("ref", "1100"), ("ref", "0011")])
        fields = parse_record(text)
        assert record_get(fields, "kind") == "spectrum_result"
        assert record_get_all(fields, "ref") == ["1100", "0011"]

    def test_version_enforced(self):
        with pytest.raises(ValueError):
            parse_record("format: 2\nkind: x\n")

import os

import numpy as np
import pytest

from qpvqe.ansatz import build_uccgsd
from qpvqe.fermion import (FermionTerm, enumerate_sz_excitations,
                           jordan_wigner_sum)
from qpvqe.harness import (load_hamiltonian, parse_record, record_get,
                           record_get_all)
from qpvqe.observables import (ancilla_projector, energy_gap,
                               gap_from_full_purified, pair_projector_operator,
                               prepare_pair, supported_projector_pairs,
                               transition_amplitude)
from qpvqe.pauli import PauliString, PauliSum, paulisum_action, to_matrix
from qpvqe.state_prep import ReferenceSet

from conftest import data_path
from oracles import (identity_sum, product_energy_gap,
                     product_gap_from_full_purified,
                     product_transition_amplitude)

BENCH_DATA = os.path.join(os.path.dirname(__file__), "..", "bench", "data")


@pytest.fixture(scope="module")
def hopping_observable():
    return jordan_wigner_sum([
        FermionTerm(1.0, ((0, True), (2, False))),
        FermionTerm(1.0, ((2, True), (0, False))),
        FermionTerm(1.0, ((1, True), (3, False))),
        FermionTerm(1.0, ((3, True), (1, False)))], 4)


class TestPrepareAndGaps:
    def test_pair_state_normalized(self, h2_problem, h2_result):
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 1)])[0]
        assert pair.state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_ancilla_marginal_maximally_mixed(self, h2_problem, h2_result):
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 2)])[0]
        t = pair.state.amplitudes.reshape(16, 2)
        rho = t.conj().T @ t
        assert np.max(np.abs(np.linalg.eigvalsh(rho) - 0.5)) < 1e-12

    def test_conditional_branches_are_eigenstates(self, h2_problem, h2_result):
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(1, 3)])[0]
        t = pair.state.amplitudes.reshape(16, 2)
        for column, index in ((0, 1), (1, 3)):
            branch = t[:, column] * np.sqrt(2.0)
            overlap = abs(np.vdot(h2_result.states[index].amplitudes, branch))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_identical_indices_rejected(self, h2_problem, h2_result):
        with pytest.raises(ValueError):
            prepare_pair(h2_problem.circuit, h2_result.theta_star,
                         h2_problem.refs, [(2, 2)])[0]

    def test_gap_matches_extracted_energies(self, h2_problem, h2_result):
        p = h2_problem
        eps = h2_result.energies
        for i in range(4):
            for j in range(i + 1, 4):
                pair = prepare_pair(p.circuit, h2_result.theta_star,
                                    p.refs, [(i, j)])[0]
                assert energy_gap([pair], p.h)[0] == pytest.approx(
                    eps[i] - eps[j], abs=1e-10)

    def test_swap_negates_gap(self, h2_problem, h2_result):
        p = h2_problem
        fwd = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 3)])[0]
        rev = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(3, 0)])[0]
        gaps = energy_gap([fwd, rev], p.h)
        assert gaps[0] == pytest.approx(-gaps[1], abs=1e-12)

    def test_degenerate_hamiltonian_zero_gap(self, h2_problem, h2_result):
        p = h2_problem
        const = identity_sum(4, -0.75)
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 1)])[0]
        assert energy_gap([pair], const)[0] == pytest.approx(0.0, abs=1e-12)


class TestProjectorGaps:
    def test_matches_pairwise_route(self, h2_problem, h2_result):
        p = h2_problem
        eps = h2_result.energies
        for (i, j) in supported_projector_pairs(4):
            gap, = gap_from_full_purified(p.circuit, h2_result.theta_star,
                                          p.refs, p.h, [(i, j)])
            assert gap == pytest.approx(eps[i] - eps[j], abs=1e-10)

    def test_projector_idempotent(self):
        for sign in (1, -1):
            proj = ancilla_projector(6, 4, sign)
            square = proj * proj
            assert len(square) == len(proj)
            for string, coeff in proj.items():
                assert square.coefficient(string) == pytest.approx(coeff,
                                                                   abs=1e-14)

    def test_projector_matrix_idempotent(self):
        proj = to_matrix(ancilla_projector(2, 1, 1))
        assert np.max(np.abs(proj @ proj - proj)) < 1e-14

    def test_unsupported_pair_rejected(self, h2_problem):
        with pytest.raises(ValueError):
            pair_projector_operator(4, 4, (1, 3))
        with pytest.raises(ValueError):
            pair_projector_operator(4, 3, (0, 1))

    def test_all_degenerate_gaps_vanish(self, h2_problem, h2_result):
        p = h2_problem
        const = identity_sum(4, 1.25)
        for gap in gap_from_full_purified(
                p.circuit, h2_result.theta_star, p.refs, const,
                sorted(supported_projector_pairs(4))):
            assert gap == pytest.approx(0.0, abs=1e-12)


class TestTransitionAmplitudes:
    def test_identity_observable_orthogonality(self, h2_problem, h2_result):
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 1)])[0]
        amp, = transition_amplitude([pair], identity_sum(4))
        assert abs(amp) < 1e-10

    def test_matches_direct_inner_product(self, h2_problem, h2_result,
                                          hopping_observable):
        p = h2_problem
        for (i, j) in ((0, 1), (0, 2), (1, 2), (2, 3)):
            pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs,
                                [(i, j)])[0]
            amp, = transition_amplitude([pair], hopping_observable)
            direct = complex(np.vdot(
                h2_result.states[i].amplitudes,
                paulisum_action(hopping_observable, 4,
                                h2_result.states[j].amplitudes)))
            assert amp == pytest.approx(direct, abs=1e-10)

    def test_hermiticity(self, h2_problem, h2_result, hopping_observable):
        p = h2_problem
        fwd = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(1, 2)])[0]
        rev = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(2, 1)])[0]
        a, b = transition_amplitude([fwd, rev], hopping_observable)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_real_part_is_symmetrized_product(self, h2_problem, h2_result,
                                              hopping_observable):
        # <Psi| O (x) X |Psi> = (<e_i|O|e_j> + <e_j|O|e_i>)/2
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 2)])[0]
        amp, = transition_amplitude([pair], hopping_observable)
        sym = 0.5 * (np.vdot(h2_result.states[0].amplitudes,
                             paulisum_action(hopping_observable, 4,
                                             h2_result.states[2].amplitudes))
                     + np.vdot(h2_result.states[2].amplitudes,
                               paulisum_action(hopping_observable, 4,
                                               h2_result.states[0].amplitudes)))
        assert amp.real == pytest.approx(float(sym.real), abs=1e-12)

    def test_rejects_non_hermitian(self, h2_problem, h2_result):
        p = h2_problem
        pair = prepare_pair(p.circuit, h2_result.theta_star, p.refs, [(0, 1)])[0]
        bad = PauliSum(4, {PauliString.from_word(4, "X0"): 1.0j})
        with pytest.raises(ValueError):
            transition_amplitude([pair], bad)


def hex_parts(value):
    value = complex(value)
    return value.real.hex(), value.imag.hex()


@pytest.fixture(scope="module", params=["h2", "lih"])
def readout_problem(request, hopping_observable):
    """(H, observable, circuit, refs, theta*) of the H2 fixture's run or of
    the stored LiH record, read as the readout commands read it."""
    if request.param == "h2":
        p = request.getfixturevalue("h2_problem")
        theta = request.getfixturevalue("h2_result").theta_star
        return p.h, hopping_observable, p.circuit, p.refs, theta
    with open(os.path.join(BENCH_DATA, "lih_1.60.rec")) as fh:
        fields = parse_record(fh.read())
    h = load_hamiltonian(data_path("hamiltonians", "lih_1.60.ham"))
    circuit = build_uccgsd(enumerate_sz_excitations(
        h.n_qubits // 2, effective=record_get_all(fields, "excitation") or None))
    theta = np.array([float(t) for t in record_get(fields, "theta").split()])
    refs = ReferenceSet(tuple(record_get_all(fields, "ref")))
    hopping = load_hamiltonian(os.path.join(BENCH_DATA, "hopping.ham"))
    return h, hopping, circuit, refs, theta


class TestProductFreeReadout:
    """The readouts measure O (x) A on O's own plans; the operator-product
    route in ``oracles`` is the reference, equal to the last bit."""

    def test_pair_readouts_equal_product_route(self, readout_problem):
        h, obs, circuit, refs, theta = readout_problem
        for i in range(refs.k):
            for j in range(refs.k):
                if i == j:
                    continue
                pair = prepare_pair(circuit, theta, refs, [(i, j)])[0]
                assert hex_parts(energy_gap([pair], h)[0]) == \
                    hex_parts(product_energy_gap(pair, h)), (i, j)
                for o in (h, obs):
                    assert hex_parts(transition_amplitude([pair], o)[0]) == \
                        hex_parts(product_transition_amplitude(pair, o)), (i, j)

    def test_projector_gaps_equal_product_route(self, readout_problem):
        h, _, circuit, refs, theta = readout_problem
        for pair in sorted(supported_projector_pairs(refs.k)):
            assert hex_parts(gap_from_full_purified(
                circuit, theta, refs, h, [pair])[0]) == hex_parts(
                product_gap_from_full_purified(circuit, theta, refs, h, pair))
        two = ReferenceSet(refs.determinants[:2])
        assert hex_parts(gap_from_full_purified(
            circuit, theta, two, h, [(0, 1)])[0]) == hex_parts(
            product_gap_from_full_purified(circuit, theta, two, h, (0, 1)))

"""Readouts on the rows their states reach, against the full register.

``pauli.expectations`` stacks a batch of states on rows that hold their
joint support and that H's and the ancilla operators' flips map onto
themselves, applies each H term once to the stack, scatters the result
into full-length kets and takes every vdot against the state's own 2^n
buffer.  ``oracles.full_register_product_expectation`` runs every term on
every row; each value must equal it bit for bit.  Values are compared by
``tobytes`` after ``+ 0.0``, which folds only the sign of an exact zero.
"""

import os
from itertools import chain

import numpy as np
import pytest

import qpvqe.pauli as pauli
import qpvqe.statevector as statevector
from qpvqe.ansatz import apply_ansatz, build_uccgsd, symmetry_screen
from qpvqe.driver import extract_eigenpairs
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import (load_hamiltonian, parse_record, record_get,
                           record_get_all)
from qpvqe.noise import (DensityMatrix, _compile_vec_sector, apply_noisy_gate,
                         load_calibration)
from qpvqe.observables import (full_purified_state, pair_projector_operator,
                               prepare_pair, supported_projector_pairs)
from qpvqe.pauli import (SECTOR_CACHE_SIZE, DimensionMismatch, PauliString,
                         PauliSum, SectorRows, _register_masks, expectations,
                         flip_mask, gf2_reduce, gf2_span, product_expectation)
from qpvqe.state_prep import (ReferenceSet, build_purified_prep,
                              default_weights, select_reference_determinants)
from qpvqe.statevector import StateVector, gate_controlled_ry, init_basis

from conftest import data_path
from oracles import full_register_product_expectation, per_mask_row_data

BENCH_DATA = os.path.join(os.path.dirname(__file__), "..", "bench", "data")


def bits(values):
    return (np.asarray(values, dtype=float) + 0.0).tobytes()


def assert_matches_oracle(h, states, operators):
    ours = expectations(h, states, operators)
    assert bits(ours) == bits([full_register_product_expectation(h, a, psi)
                               for psi, a in zip(states, operators)])
    return ours


def letter(n_qubits, qubit, name, coeff=1.0):
    return PauliSum(n_qubits, {
        PauliString.from_map(n_qubits, {qubit: name}): coeff})


def normalized(n_qubits, entries):
    amps = np.zeros(1 << n_qubits, dtype=complex)
    for index, value in entries.items():
        amps[index] = value
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def rows_of(h, n_qubits):
    """Row counts of H's kept readout sectors on ``n_qubits``."""
    return [sector.rows.size for (n, _), _, sector, _ in h._sectors
            if n == n_qubits]


@pytest.fixture(scope="module")
def lih_record():
    """H, circuit, theta*, references and the six pair states of the
    stored LiH record, read as the readout commands read it."""
    with open(os.path.join(BENCH_DATA, "lih_1.60.rec")) as fh:
        fields = parse_record(fh.read())
    h = load_hamiltonian(data_path("hamiltonians", "lih_1.60.ham"))
    circuit = build_uccgsd(enumerate_sz_excitations(
        h.n_qubits // 2, effective=record_get_all(fields, "excitation") or None))
    theta = np.array([float(t) for t in record_get(fields, "theta").split()])
    refs = ReferenceSet(tuple(record_get_all(fields, "ref")))
    pairs = [(i, j) for i in range(refs.k) for j in range(i + 1, refs.k)]
    return h, circuit, theta, refs, prepare_pair(circuit, theta, refs, pairs)


def pair_readouts(pairs, letters):
    n = pairs[0].n_working + 1
    return ([pair.state for pair in pairs for _ in letters],
            [letter(n, n - 1, name) for _ in pairs for name in letters])


class TestAgainstFullRegister:
    def test_lih_pair_states(self, lih_record):
        _, _, _, refs, pairs = lih_record
        h = load_hamiltonian(data_path("hamiltonians", "lih_1.60.ham"))
        assert_matches_oracle(h, *pair_readouts(pairs, "ZXY"))
        n = refs.n_qubits + 1
        assert rows_of(h, n) and max(rows_of(h, n)) < 1 << n

    def test_lih_k_way_state(self, lih_record):
        h, circuit, theta, refs, _ = lih_record
        state = full_purified_state(circuit, theta, refs)
        operators = [pair_projector_operator(refs.n_qubits, refs.k, pair)[0]
                     for pair in sorted(supported_projector_pairs(refs.k))]
        assert len(operators) == 3
        assert_matches_oracle(h, [state] * 3, operators)

    def test_observable_on_fewer_qubits_than_the_register(self, lih_record):
        _, _, _, refs, pairs = lih_record
        hopping = load_hamiltonian(os.path.join(BENCH_DATA, "hopping.ham"))
        assert hopping.n_qubits < refs.n_qubits + 1
        assert_matches_oracle(hopping, *pair_readouts(pairs, "XY"))

    def test_extracted_states_h2(self, h2_problem, h2_result):
        p = h2_problem
        energies, states = extract_eigenpairs(p.circuit, h2_result.theta_star,
                                              p.refs, p.h)
        ours = assert_matches_oracle(p.h, states, [None] * len(states))
        assert bits(energies) == bits(ours)

    def test_extracted_states_h4(self):
        # the H4 problem at a symmetry-masked and a fully perturbed theta:
        # the states of a first descent and of a saddle probe
        h = load_hamiltonian(data_path("hamiltonians", "h4_0.90.ham"))
        circuit = build_uccgsd(enumerate_sz_excitations(4))
        refs = select_reference_determinants(h, 4, 0.0, 4)
        rng = np.random.default_rng(29)
        perturbed = 0.1 * rng.standard_normal(circuit.parameter_count)
        masked = perturbed * (rng.random(circuit.parameter_count) < 0.5)
        for theta in (masked, perturbed):
            energies, states = extract_eigenpairs(circuit, theta, refs, h)
            ours = assert_matches_oracle(h, states, [None] * len(states))
            assert bits(energies) == bits(ours)

    def test_branch_with_two_amplitudes(self):
        # H flips qubits 0 and 1 together, so the branch of |0000> and
        # |1000> (ancilla label 00) needs their XOR, a premise flip outside
        # H's span, to hold both; the |0001> branch is a second label.
        h = PauliSum(2, {PauliString.from_word(2, "X0 X1"): 0.7,
                         PauliString.from_word(2, "Z0"): 0.3,
                         PauliString.from_word(2, "Z1"): -0.2})
        psi = normalized(4, {0b0000: 0.6, 0b1000: 0.5j, 0b0001: 0.4})
        operators = [None, letter(4, 3, "Z"), letter(4, 2, "Z", 0.5)]
        ours = assert_matches_oracle(h, [psi] * 3, operators)
        assert ours[0] != 0.0 and ours[1] != 0.0
        assert rows_of(h, 4) == [8]

    def test_operator_flip_no_state_differs_in(self):
        # Every amplitude sits at ancilla 0, so only the operator's own
        # flip (X on the ancilla) brings ancilla 1 into the rows.
        h = PauliSum(2, {PauliString.from_word(2, "X0 X1"): 0.7,
                         PauliString.from_word(2, "Z0"): 0.3})
        psi = normalized(3, {0b000: 0.6, 0b110: 0.8})
        a = PauliSum(3, {PauliString.from_word(3, "X2"): 1.0,
                         PauliString.from_word(3, "Z2"): 0.5})
        value, = assert_matches_oracle(h, [psi], [a])
        assert value != 0.0

    def test_batch_equals_each_readout_alone(self, lih_record):
        h, _, _, _, pairs = lih_record
        states, operators = pair_readouts(pairs, "ZXY")
        batch = expectations(h, states, operators)
        alone = [expectations(h, [psi], [a])[0]
                 for psi, a in zip(states, operators)]
        assert bits(batch) == bits(alone)
        assert bits(batch[::3]) == bits(
            [product_expectation(h, a, psi)
             for psi, a in zip(states[::3], operators[::3])])


class TestErrors:
    def test_unnormalized_state(self):
        h = letter(1, 0, "Z")
        with pytest.raises(ValueError, match="state norm deviates from 1 by"):
            expectations(h, [StateVector(1, [1.0, 1.0])])

    def test_non_hermitian_sum(self):
        bad = letter(1, 0, "X", 1.0j)
        psi = init_basis(1, "0")
        for h, a in ((bad, None), (letter(1, 0, "Z"), bad)):
            with pytest.raises(ValueError, match="expectation requires a "
                               "Hermitian PauliSum"):
                expectations(h, [psi], [a])

    def test_imaginary_residue(self):
        # A on the qubit H acts on: Z X = iY, and <Y> = 1 here
        psi = StateVector(1, np.array([1.0, 1.0j]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="imaginary residue 1.000e\\+00 "
                           "above tolerance"):
            product_expectation(letter(1, 0, "Z"), letter(1, 0, "X"), psi)

    def test_operator_must_span_the_state_register(self):
        # psi = |0>_w |1>_anc; Z on the ancilla gives -1, while a Z built
        # on one qubit would act on the working qubit
        psi = init_basis(2, "01")
        h = letter(1, 0, "Z")
        assert product_expectation(h, letter(2, 1, "Z"), psi) == -1.0
        with pytest.raises(DimensionMismatch):
            product_expectation(h, letter(1, 0, "Z"), psi)

    def test_states_of_other_registers(self):
        h = letter(1, 0, "Z")
        with pytest.raises(DimensionMismatch):
            expectations(h, [init_basis(1, "0"), init_basis(2, "00")])


class TestRowsMap:
    @pytest.fixture
    def h2(self):
        return load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))

    def test_repeat_support_compiles_nothing(self, h2, monkeypatch):
        refs = select_reference_determinants(h2, 2, 0.0, 4)
        prep = build_purified_prep(default_weights(4), refs)
        circuit = build_uccgsd(enumerate_sz_excitations(2))
        rng = np.random.default_rng(31)
        first = circuit_state(circuit, prep, rng)
        expectations(h2, [first])
        spans = []
        real = pauli.gf2_span
        monkeypatch.setattr(pauli, "gf2_span",
                            lambda masks: spans.append(1) or real(masks))
        # the same support, then other supports inside the kept rows
        for psi in [first] + [circuit_state(circuit, prep, rng)
                              for _ in range(5)]:
            assert_matches_oracle(h2, [psi], [None])
        assert spans == [] and len(h2._sectors) == 1

    def test_bounded_and_bit_equal_after_eviction(self, h2):
        # one basis state per ancilla label: every support needs rows of
        # its own
        labels = SECTOR_CACHE_SIZE + 8
        states = [init_basis(10, "1100" + format(label, "06b"))
                  for label in range(labels)]
        for psi in states + states[:4]:
            assert_matches_oracle(h2, [psi], [None])
            assert len(h2._sectors) <= SECTOR_CACHE_SIZE
        assert len(h2._sectors) == SECTOR_CACHE_SIZE


def circuit_state(circuit, prep, rng):
    return apply_ansatz(circuit, rng.uniform(-np.pi, np.pi,
                                             circuit.parameter_count),
                        prep.prepare())


def assert_plan_is_per_mask_compile(plan, string, sector):
    gather, signs, scalar = per_mask_row_data(string, sector)
    for ours, theirs in ((plan.flip, gather), (plan.signs, signs)):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
    assert plan.scalar == scalar


class TestArrayPassCompile:
    """Every plan compiled in array passes (``SectorRows.prepare``) equals
    the one compiled alone: gather, signs and scalar."""

    @pytest.mark.parametrize("name, m_spatial, sector", [
        ("h4_0.90.ham", 4, (4, 0.0)), ("lih_1.60.ham", 5, (2, 0.0))])
    def test_screen_sectors(self, name, m_spatial, sector):
        h = load_hamiltonian(data_path("hamiltonians", name))
        circuit = build_uccgsd(enumerate_sz_excitations(m_spatial))
        refs = select_reference_determinants(h, sector[0], sector[1], 4)
        initial = build_purified_prep(default_weights(4), refs).prepare()
        n = initial.n_qubits
        screen = symmetry_screen(circuit, h, initial)
        theta = 0.1 * np.random.default_rng(5).standard_normal(
            circuit.parameter_count)
        # the first descent's span (H and the premise), then a probe's
        spans = (screen.flips, gf2_span(chain(
            screen.flips.values(), *screen.by_parameter)))
        for at, span in zip((0.0 * theta, theta), spans):
            compiled = screen.sector(at)
            rows = SectorRows(n, compiled.rows)
            for rot, plan in zip(circuit.rotations, compiled.strings):
                inside = not gf2_reduce(flip_mask(rot.string, n), span)
                assert (plan is not None) == inside
                if inside:
                    assert_plan_is_per_mask_compile(plan, rot.string, rows)
            for (_, plan), string in zip(compiled.terms, h.terms()):
                assert_plan_is_per_mask_compile(plan, string, rows)

    def test_readout_sector(self, lih_record):
        _, _, _, _, pairs = lih_record
        h = load_hamiltonian(data_path("hamiltonians", "lih_1.60.ham"))
        expectations(h, *pair_readouts(pairs, "XY"))
        (_, _, sector, terms), = h._sectors
        rows = SectorRows(sector.n_qubits, sector.rows)
        for (_, plan), string in zip(terms, h.terms()):
            assert_plan_is_per_mask_compile(plan, string, rows)

    def test_vec_sector_of_the_noisy_h2_circuit(self):
        circuit = build_uccgsd(enumerate_sz_excitations(2))
        n = 6
        rng = np.random.default_rng(8)
        span = gf2_span(chain(*(
            (flip_mask(rot.string, 2 * n),
             _register_masks(rot.string, n)[0])
            for rot in circuit.rotations if rng.random() < 0.6)))
        compiled = _compile_vec_sector(circuit, n, (0b110000110000,), span)
        rows = SectorRows(2 * n, compiled.rows)
        for rot, halves in zip(circuit.rotations, compiled.halves):
            column = PauliString(2 * n, *_register_masks(rot.string, n))
            inside = not (gf2_reduce(flip_mask(rot.string, 2 * n), span)
                          or gf2_reduce(column.x, span))
            assert (halves is not None) == inside
            if inside:
                assert_plan_is_per_mask_compile(halves[0], rot.string, rows)
                assert_plan_is_per_mask_compile(halves[1], column, rows)


class TestNoisyGatePlans:
    def test_second_application_compiles_nothing(self, monkeypatch):
        calib = load_calibration(data_path("calibration", "ibmq_manila.cal"))
        gate = gate_controlled_ry(((0, 1),), 2, 0.4)
        rho = DensityMatrix(3)
        apply_noisy_gate(rho, gate, calib)
        built = []

        class Counting(SectorRows):
            def __init__(self, n_qubits, rows):
                built.append(n_qubits)
                super().__init__(n_qubits, rows)

        monkeypatch.setattr(statevector, "SectorRows", Counting)
        fresh = gate_controlled_ry(((0, 1),), 2, 0.4)
        apply_noisy_gate(rho, fresh, calib)
        assert built == [6, 6]       # a new gate: its row and column halves
        apply_noisy_gate(rho, gate, calib)
        apply_noisy_gate(rho, fresh, calib)
        assert built == [6, 6]

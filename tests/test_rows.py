"""``apply_ansatz`` on the rows a state can reach, against the full register.

The row route evolves the states of one register together, stacked on the
rows their branches reach, and scatters them into zero 2^n buffers.  On
those rows every amplitude must be the full-register route's bit for bit;
outside them the full route holds exact zeros of either sign and the row
route +0, so states are compared by ``tobytes`` after ``+ 0.0``.
"""

import contextlib
import io
import os

import numpy as np
import pytest

import qpvqe.ansatz as ansatz
from qpvqe.ansatz import apply_ansatz, build_uccgsd
from qpvqe.cli import run_cli
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.pauli import SECTOR_CACHE_SIZE
from qpvqe.state_prep import (ReferenceSet, build_purified_prep,
                              default_weights)
from qpvqe.statevector import StateVector, init_basis

from conftest import data_path
from oracles import full_register_apply_ansatz

LIH_RECORD = os.path.join(os.path.dirname(__file__), "..", "bench", "data",
                          "lih_1.60.rec")
LIH = data_path("hamiltonians", "lih_1.60.ham")


def same_bits(a, b):
    return (np.asarray(a) + 0.0).tobytes() == (np.asarray(b) + 0.0).tobytes()


def fresh_circuit():
    # Rotation masks 1010 (parameters 0, 2, 5), 0101 (0, 1, 6) and
    # 1111 (3, 4).
    return build_uccgsd(enumerate_sz_excitations(2))


def sparse_state(rng, n, count):
    amps = np.zeros(1 << n, dtype=complex)
    rows = rng.choice(1 << n, size=count, replace=False)
    amps[rows] = rng.normal(size=count) + 1j * rng.normal(size=count)
    return StateVector(n, amps / np.linalg.norm(amps))


def theta_with_zeros(rng, count):
    theta = rng.uniform(-np.pi, np.pi, count)
    theta[rng.random(count) < 0.4] = 0.0
    theta[rng.random(count) < 0.2] = -0.0
    return theta


def assert_matches_oracle(circuit, theta, states):
    expected = [full_register_apply_ansatz(circuit, theta, s.copy())
                for s in states]
    ours = [s.copy() for s in states]
    assert apply_ansatz(circuit, theta, ours) is not None
    for mine, theirs in zip(ours, expected):
        assert same_bits(mine.amplitudes, theirs.amplitudes)
    return ours


class TestRowRoute:
    def test_several_branches(self):
        # The purified K = 4 state: four branches, told apart by the
        # ancilla label, each a determinant of its own.
        circuit = fresh_circuit()
        refs = ReferenceSet(("1100", "1001", "0110", "0011"))
        initial = build_purified_prep(default_weights(4), refs).prepare()
        rng = np.random.default_rng(41)
        for _ in range(6):
            assert_matches_oracle(circuit, theta_with_zeros(
                rng, circuit.parameter_count), [initial])
        assert {len(key[2]) for key in circuit._sectors} == {4}

    def test_branch_with_two_amplitudes(self):
        # Each ancilla branch holds two determinants whose XOR, 1111 on the
        # working qubits, is a premise flip.  Only parameter 1 (mask 0101)
        # acts, so without the premise the rows would miss half of them.
        circuit = fresh_circuit()
        amps = np.zeros(32, dtype=complex)
        amps[[0b11000, 0b00110, 0b10011, 0b01101]] = 0.5
        initial = StateVector(5, amps)
        theta = np.zeros(circuit.parameter_count)
        assert_matches_oracle(circuit, theta, [initial])
        theta[1] = 0.7
        assert_matches_oracle(circuit, theta, [initial])
        assert sorted(sector.rows.size
                      for sector in circuit._sectors.values()) == [4, 8]

    def test_zero_and_negative_zero_theta(self):
        # -0.0 is zero: it adds no mask to the span and skips its rotations.
        circuit = fresh_circuit()
        initial = init_basis(6, "110010")
        theta = np.zeros(circuit.parameter_count)
        theta[[0, 3]] = 0.4, -1.1
        negative = theta.copy()
        negative[[1, 2, 4, 5, 6]] = -0.0
        assert_matches_oracle(circuit, theta, [initial])
        assert_matches_oracle(circuit, negative, [initial])
        assert_matches_oracle(circuit, -0.0 * theta, [initial])
        spans = {key[1] for key in circuit._sectors}
        assert spans == {(), (0b010100, 0b101000)}

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_registers_of_n_to_n_plus_two(self, extra):
        circuit = fresh_circuit()
        rng = np.random.default_rng(42 + extra)
        n = 4 + extra
        for count in (1, 2, 3, 1 << n):
            theta = theta_with_zeros(rng, circuit.parameter_count)
            assert_matches_oracle(circuit, theta,
                                  [sparse_state(rng, n, count)])
        assert {key[0] for key in circuit._sectors} == {n}

    def test_batch_equals_each_state_alone(self):
        circuit = fresh_circuit()
        rng = np.random.default_rng(43)
        for _ in range(4):
            theta = theta_with_zeros(rng, circuit.parameter_count)
            states = [sparse_state(rng, n, count) for n, count in
                      ((5, 1), (5, 2), (6, 3), (5, 3), (4, 1), (6, 1))]
            together = assert_matches_oracle(circuit, theta, states)
            for state, batched in zip(states, together):
                alone = apply_ansatz(circuit, theta, state.copy())
                assert same_bits(alone.amplitudes, batched.amplitudes)

    def test_one_state_is_returned_evolved_in_place(self):
        circuit = fresh_circuit()
        state = init_basis(5, "10010")
        theta = np.full(circuit.parameter_count, 0.3)
        assert apply_ansatz(circuit, theta, state) is state
        assert abs(state.amplitudes[0b10010]) < 1.0


class TestSectorMap:
    def test_bounded_and_bit_equal_after_eviction(self):
        circuit = fresh_circuit()
        rng = np.random.default_rng(44)
        theta = np.zeros(circuit.parameter_count)
        theta[1] = 0.9
        first = [init_basis(5, "11000")]
        before = assert_matches_oracle(circuit, theta, first)
        keys = set(circuit._sectors)
        # Distinct keys: registers 5 and 6, every basis state as the one
        # representative, and spans from the masks of parameters 1 and 3.
        for n in (5, 6):
            for j in range(1 << n):
                if len(keys) > SECTOR_CACHE_SIZE + 8:
                    break
                bits = format(j, f"0{n}b")
                other = np.zeros(circuit.parameter_count)
                other[int(rng.choice([1, 3]))] = float(rng.uniform(-1, 1))
                assert_matches_oracle(circuit, other, [init_basis(n, bits)])
                keys |= set(circuit._sectors)
                assert len(circuit._sectors) <= SECTOR_CACHE_SIZE
        assert len(keys) > SECTOR_CACHE_SIZE + 8
        assert not keys.issubset(circuit._sectors)
        after = assert_matches_oracle(circuit, theta, first)
        assert same_bits(before[0].amplitudes, after[0].amplitudes)


class TestBatchedReadouts:
    """Each readout command evolves its states in as few passes as there
    are registers: a spy counts the evolution kernel's calls."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = ansatz._evolve_batch

        def spy(circuit, angles, states):
            calls.append((states[0].n_qubits, len(states)))
            return real(circuit, angles, states)

        monkeypatch.setattr(ansatz, "_evolve_batch", spy)
        return calls

    @pytest.mark.parametrize("command, expected", [
        (["gaps", "--projector"], [(11, 6), (12, 1)]),
        (["amplitudes"], [(11, 6)]),
    ])
    def test_lih_readout_passes(self, passes, command, expected):
        argv = command[:1] + ["--result", LIH_RECORD, "--hamiltonian",
                              LIH] + command[1:]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run_cli(argv) == 0
        assert len(out.getvalue().splitlines()) > 6
        assert passes == expected

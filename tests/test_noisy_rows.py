"""``apply_noisy_ansatz`` on the rows of vec(rho) it can reach, against the
full register.

The row route runs every rotation and channel on the rows of vec(rho)
that the starting support plus the span of the running flips reaches,
and scatters them into a zero 4^n buffer.  The full-register route
(``oracles.full_register_noisy_ansatz``) must come out the same bit for
bit, signs of zero included, so states are compared by raw ``tobytes``.
"""

import numpy as np
import pytest

from qpvqe import noise
from qpvqe.ansatz import build_uccgsd
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.noise import (DensityMatrix, apply_noisy_ansatz, evolve_noisy,
                         load_calibration, noisy_ensemble_energy,
                         zero_noise_calibration)
from qpvqe.pauli import SECTOR_CACHE_SIZE
from qpvqe.statevector import StateVector

from conftest import data_path
from oracles import full_register_noisy_ansatz

TWO_DOUBLE = ["d:0,1,2,3", "d:0,3,1,2"]
CIRCUITS = {"two-double": TWO_DOUBLE, "uccgsd": None}


@pytest.fixture(scope="module")
def manila():
    return load_calibration(data_path("calibration", "ibmq_manila.cal"))


@pytest.fixture(params=["manila", "zero-noise"])
def calibration(request, manila):
    return manila if request.param == "manila" else zero_noise_calibration()


def fresh_circuit(effective=None):
    return build_uccgsd(enumerate_sz_excitations(2, effective=effective))


def assert_matches_oracle(rho, circuit, theta, calib):
    expected = full_register_noisy_ansatz(rho.copy(), circuit, theta, calib)
    ours = rho.copy()
    assert apply_noisy_ansatz(ours, circuit, theta, calib) is ours
    assert ours.vec.amplitudes.tobytes() == expected.vec.amplitudes.tobytes()
    return ours


def theta_with_zeros(rng, count):
    theta = rng.uniform(-np.pi, np.pi, count)
    theta[rng.random(count) < 0.3] = 0.0
    theta[rng.random(count) < 0.2] = -0.0
    return theta


def pure(state):
    return DensityMatrix(state.n_qubits,
                         np.outer(state.amplitudes, state.amplitudes.conj()))


def random_mixed_state(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


class TestRowRoute:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_noisy_preparation_state(self, h2_problem, calibration, name):
        prep = h2_problem.prep
        circuit = fresh_circuit(CIRCUITS[name])
        start = evolve_noisy(prep.program, prep.n_qubits, calibration)
        rng = np.random.default_rng(61)
        for _ in range(8):
            theta = rng.uniform(-np.pi, np.pi, circuit.parameter_count)
            assert_matches_oracle(start, circuit, theta, calibration)
        assert len(circuit._vec_sectors) == 1

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_zero_and_negative_zero_theta(self, h2_problem, manila, name):
        # -0.0 is zero: its rotations are skipped and add nothing to the
        # span.
        prep = h2_problem.prep
        circuit = fresh_circuit(CIRCUITS[name])
        start = evolve_noisy(prep.program, prep.n_qubits, manila)
        rng = np.random.default_rng(62)
        for _ in range(8):
            assert_matches_oracle(start, circuit, theta_with_zeros(
                rng, circuit.parameter_count), manila)
        zero = np.zeros(circuit.parameter_count)
        for theta in (zero, -zero):
            out = assert_matches_oracle(start, circuit, theta, manila)
            assert np.array_equal(out.matrix, start.matrix)

    def test_pure_start_needs_the_paired_flips(self, h2_problem, manila):
        # A pure start holds no entry that a channel reaches by flipping a
        # qubit's row and column bits together: only the span adds them.
        circuit = fresh_circuit(TWO_DOUBLE)
        start = pure(h2_problem.prep.prepare())
        rng = np.random.default_rng(63)
        for _ in range(4):
            theta = rng.uniform(-np.pi, np.pi, circuit.parameter_count)
            out = assert_matches_oracle(start, circuit, theta, manila)
        assert (np.count_nonzero(out.vec.amplitudes)
                > np.count_nonzero(start.vec.amplitudes))

    def test_rows_of_the_noisy_h2_run(self, h2_problem, manila):
        # The noisy-run set-up: 512 of the 4096 entries of vec(rho).
        prep = h2_problem.prep
        circuit = fresh_circuit(TWO_DOUBLE)
        start = evolve_noisy(prep.program, prep.n_qubits, manila)
        out = assert_matches_oracle(start, circuit, [0.3, -0.2], manila)
        sector, = circuit._vec_sectors.values()
        assert sector.rows.size == 512
        assert np.count_nonzero(out.vec.amplitudes) == 512

    def test_dense_mixed_state_reaches_every_row(self, manila):
        circuit = fresh_circuit()
        rng = np.random.default_rng(64)
        for n in (4, 5):
            rho = random_mixed_state(rng, n)
            for _ in range(3):
                assert_matches_oracle(rho, circuit, theta_with_zeros(
                    rng, circuit.parameter_count), manila)
            assert {sector.rows.size for sector in
                    circuit._vec_sectors.values()} == {1 << (2 * n)}
            circuit._vec_sectors.clear()

    def test_narrow_circuit_on_sparse_mixed_state(self, manila):
        # A 4-qubit circuit on a 6-qubit rho: a mixture of sparse pure
        # states, each with its own ancilla pattern.
        circuit = fresh_circuit()
        rng = np.random.default_rng(65)
        n = 6
        m = np.zeros((1 << n, 1 << n), dtype=complex)
        for weight in (0.5, 0.3, 0.2):
            amps = np.zeros(1 << n, dtype=complex)
            rows = rng.choice(1 << n, size=3, replace=False)
            amps[rows] = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            m += weight * np.outer(amps, amps.conj())
        rho = DensityMatrix(n, m)
        for _ in range(6):
            assert_matches_oracle(rho, circuit, theta_with_zeros(
                rng, circuit.parameter_count), manila)
        assert all(sector.rows.size < 1 << (2 * n)
                   for sector in circuit._vec_sectors.values())


class TestSectorMap:
    def test_bounded_and_bit_equal_after_eviction(self, manila):
        circuit = fresh_circuit()
        count = circuit.parameter_count
        rng = np.random.default_rng(66)
        first_rho = pure(StateVector(5, np.eye(32)[0b11000]))
        first_theta = np.full(count, 0.4)
        before = assert_matches_oracle(first_rho, circuit, first_theta,
                                       manila)
        keys = set(circuit._vec_sectors)
        # Every zero pattern of theta, from basis states on several
        # ancilla labels, so that the keys outrun the bound.
        for pattern in range(1 << count):
            theta = rng.uniform(-1.0, 1.0, count)
            theta[[bool(pattern >> p & 1) for p in range(count)]] = 0.0
            j = int(rng.integers(32))
            rho = pure(StateVector(5, np.eye(32)[j]))
            assert_matches_oracle(rho, circuit, theta, manila)
            keys |= set(circuit._vec_sectors)
            assert len(circuit._vec_sectors) <= SECTOR_CACHE_SIZE
        assert len(keys) > SECTOR_CACHE_SIZE + 8
        assert not keys.issubset(circuit._vec_sectors)
        after = assert_matches_oracle(first_rho, circuit, first_theta, manila)
        assert before.vec.amplitudes.tobytes() == after.vec.amplitudes.tobytes()

    def test_one_sector_per_spsa_run(self, h2_problem, manila):
        p = h2_problem
        circuit = fresh_circuit(TWO_DOUBLE)
        rng = np.random.default_rng(67)
        for _ in range(20):
            noisy_ensemble_energy(p.h, circuit, p.prep,
                                  rng.uniform(-0.5, 0.5, 2), manila)
        assert len(circuit._vec_sectors) == 1
        assert len(circuit._noisy_programs) == 1


def reference_energy(h, circuit, prep, theta, calib):
    """The noisy objective with no sampler, evolved on the full register
    from a fresh noisy preparation."""
    rho = full_register_noisy_ansatz(
        evolve_noisy(prep.program, prep.n_qubits, calib), circuit, theta,
        calib)
    total = 0.0
    for coeff, plan in h.plans(prep.n_qubits):
        if plan.flip is None and plan.signs is None:
            total += coeff.real
        else:
            total += coeff.real * float(rho.pauli_trace(plan).real)
    return total


class TestProgramMap:
    """``noisy_ensemble_energy`` keeps its compiled ansatz program on the
    circuit by (prepared state, nonzero angles)."""

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_kept_programs_bit_equal_to_full_register(self, h2_problem,
                                                      manila, name):
        p = h2_problem
        circuit = fresh_circuit(CIRCUITS[name])
        rng = np.random.default_rng(71)
        thetas = [theta_with_zeros(rng, circuit.parameter_count)
                  for _ in range(100)]
        for theta in thetas + thetas[::-1]:  # compiled, then mostly kept
            ours = noisy_ensemble_energy(p.h, circuit, p.prep, theta, manila)
            assert np.float64(ours).tobytes() == np.float64(
                reference_energy(p.h, circuit, p.prep, theta,
                                 manila)).tobytes()
            assert len(circuit._noisy_programs) <= SECTOR_CACHE_SIZE

    def test_keyed_by_the_prepared_state(self, h2_problem, monkeypatch):
        p = h2_problem
        circuit = fresh_circuit(TWO_DOUBLE)
        compiled = []
        real = noise._noisy_program

        def counting(circuit, rho, active, calib):
            compiled.append(rho)
            return real(circuit, rho, active, calib)

        monkeypatch.setattr(noise, "_noisy_program", counting)
        path = data_path("calibration", "ibmq_manila.cal")
        values = []
        for calib in (load_calibration(path), load_calibration(path)):
            for theta in ([0.3, -0.2], [0.1, 0.5], [0.0, 0.4]):
                values.append(noisy_ensemble_energy(p.h, circuit, p.prep,
                                                    theta, calib))
            prepared = calib._derived[("prep", p.prep.n_qubits,
                                       p.prep.program)]
            assert compiled[-1] is prepared
        # one program per calibration's state and set of nonzero angles;
        # each key holds its state, so no freed state's address is reused
        assert len(compiled) == 4
        assert [key[0] for key in circuit._noisy_programs] == compiled
        assert values[:3] == values[3:]


class TestThetaChecked:
    @pytest.mark.parametrize("theta", [[0.3, -0.2, 5.0, 7.0], [0.3],
                                       [0.3, -0.2, 0.0]])
    def test_wrong_length_rejected(self, h2_problem, manila, theta):
        p = h2_problem
        circuit = fresh_circuit(TWO_DOUBLE)
        with pytest.raises(ValueError, match="expected 2 parameters"):
            noisy_ensemble_energy(p.h, circuit, p.prep, theta, manila)
        rho = evolve_noisy(p.prep.program, p.prep.n_qubits, manila)
        before = rho.vec.amplitudes.copy()
        with pytest.raises(ValueError, match="expected 2 parameters"):
            apply_noisy_ansatz(rho, circuit, theta, manila)
        assert rho.vec.amplitudes.tobytes() == before.tobytes()

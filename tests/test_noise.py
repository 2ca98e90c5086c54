import numpy as np
import pytest

from qpvqe.ansatz import AnsatzCircuit, Rotation, build_uccgsd
from qpvqe.driver import SpsaConfig, ensemble_energy
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.noise import (CalibrationError, DensityMatrix, ShotSampler,
                         apply_noisy_ansatz, apply_noisy_gate,
                         channel_superoperator, depolarizing_kraus,
                         evolve_noisy, load_calibration,
                         noisy_ensemble_energy, parse_calibration,
                         spsa_optimize, thermal_relaxation_kraus,
                         totally_mixed_energy, two_qubit_depolarizing_kraus,
                         zero_noise_calibration)
from qpvqe.pauli import DimensionMismatch, PauliString, PauliSum
from qpvqe.statevector import (GateOp, gate_cnot, gate_controlled_ry,
                               gate_controlled_x, gate_ry, gate_x)

from conftest import data_path
from oracles import (apply_kraus, check_density_matrix, embed_kraus,
                     embedded, gate_unitary, identity_sum, kron_matrix,
                     rotation_unitary, string_noisy_ansatz, totally_mixed)

CAL_PATH = data_path("calibration", "ibmq_manila.cal")


@pytest.fixture(scope="module")
def manila():
    return load_calibration(CAL_PATH)


def random_mixed_state(rng, n):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def oracle_noisy_gate(m, u, operands, two_qubit, calib, n):
    """Dense U rho U^dag, then the calibrated channels of a gate on sorted
    ``operands`` as embedded Kraus."""
    m = u @ m @ u.conj().T

    def channel(m, kraus):
        return sum(k @ m @ k.conj().T for k in kraus)

    if two_qubit:
        a, b = operands
        pair = calib.pair(a, b)
        singles = [np.eye(2), np.array([[0, 1], [1, 0]]),
                   np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        p = pair.err_cnot
        kraus = []
        for i in range(4):
            for j in range(4):
                weight = 1 - 15 * p / 16 if i == j == 0 else p / 16
                kraus.append(np.sqrt(weight)
                             * embed_kraus([singles[i]], a, n)[0]
                             @ embed_kraus([singles[j]], b, n)[0])
        m = channel(m, kraus)
        for q in operands:
            row = calib.qubit(q)
            m = channel(m, embed_kraus(thermal_relaxation_kraus(
                pair.time_ns, row.t1_us, row.t2_us), q, n))
        return m
    for q in operands:
        row = calib.qubit(q)
        m = channel(m, embed_kraus(depolarizing_kraus(row.err_1q), q, n))
        m = channel(m, embed_kraus(thermal_relaxation_kraus(
            calib.gate_time_1q_ns, row.t1_us, row.t2_us), q, n))
    return m


GATES_3Q = {
    "x": gate_x(1),
    "ry": gate_ry(2, 0.9),
    "cnot": gate_cnot(2, 0),
    "controlled-x-value-0": gate_controlled_x([(0, 0)], 2),
    "controlled-ry-value-1": gate_controlled_ry([(1, 1)], 0, -1.3),
    "controlled-ry-two-controls": gate_controlled_ry([(0, 0), (2, 1)], 1,
                                                     0.7),
    # (string, angle): exp(-i angle/2 P), run as a one-rotation circuit.
    "rot-no-y": (PauliString.from_word(3, "X0 Z2"), 0.8),
    "rot-one-y": (PauliString.from_word(3, "Y1 X2"), -1.1),
    "rot-two-y": (PauliString.from_word(3, "Y0 Z1 Y2"), 2.3),
    "rot-two-y-narrow": (PauliString.from_word(2, "Y0 Y1"), 0.4),
}


def one_rotation_circuit(string):
    """The circuit whose theta = (angle,) is exp(-i angle/2 P)."""
    return AnsatzCircuit(string.n_qubits, (Rotation(string, 0.5, 0),), 1)


class TestCalibration:
    def test_device_table_values(self, manila):
        q0 = manila.qubit(0)
        assert q0.t1_us == pytest.approx(20.931)
        assert q0.t2_us == pytest.approx(18.130)
        assert q0.err_1q == pytest.approx(6.2809e-4)
        pair01 = manila.pair(0, 1)
        assert pair01.err_cnot == pytest.approx(0.0076)
        assert pair01.time_ns == pytest.approx(277.333)

    def test_zero_noise_sentinel(self):
        calib = parse_calibration(
            "gate_time_1q_ns 10\n"
            "qubit 0 t1_us=inf t2_us=inf err_1q=0\n"
            "pair 0,1 err_cnot=0 time_ns=1\n")
        rho = DensityMatrix(1)
        before = rho.matrix.copy()
        apply_noisy_gate(rho, gate_x(0), calib)
        ideal = gate_unitary(gate_x(0), 1)
        assert np.max(np.abs(rho.matrix - ideal @ before @ ideal.conj().T)) \
            < 1e-12

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(CalibrationError):
            parse_calibration("qubit 0 t1_us=10 t2_us=10 err_1q=1.5\n")

    def test_t2_exceeding_2t1_rejected(self):
        with pytest.raises(CalibrationError):
            parse_calibration("qubit 0 t1_us=10 t2_us=25 err_1q=0\n")

    def test_missing_field_rejected(self):
        with pytest.raises(CalibrationError):
            parse_calibration("qubit 0 t1_us=10 err_1q=0\n")

    @pytest.mark.parametrize("record", [
        "qubit 0 t1_us=nan t2_us=10 err_1q=0",
        "qubit 0 t1_us=10 t2_us=nan err_1q=0",
        "qubit 0 t1_us=-inf t2_us=10 err_1q=0",
        "pair 0,1 err_cnot=0.01 time_ns=inf",
        "pair 0,1 err_cnot=0.01 time_ns=nan",
        "pair 0,1 err_cnot=0.01 time_ns=0",
        "gate_time_1q_ns -35",
        "gate_time_1q_ns inf",
        "gate_time_1q_ns nan",
        "gate_time_1q_ns",
        "gate_time_1q_ns 35 36",
        "qubit",
        "qubit x t1_us=10 t2_us=10 err_1q=0",
        "qubit 0 t1_us=ten t2_us=10 err_1q=0",
        "pair",
        "pair 0 err_cnot=0.01 time_ns=300",
        "pair 0,1,2 err_cnot=0.01 time_ns=300",
    ])
    def test_bad_record_rejected_with_its_line(self, record):
        text = "qubit 0 t1_us=inf t2_us=inf err_1q=0\n" + record + "\n"
        with pytest.raises(CalibrationError, match="^line 2: "):
            parse_calibration(text)

    @pytest.mark.parametrize("records", [
        ["qubit 1 t1_us=20 t2_us=20 err_1q=0"],
        ["pair 0,1 err_cnot=0.5 time_ns=300",
         "pair 0,1 err_cnot=0.01 time_ns=300"],
        ["pair 0,1 err_cnot=0.5 time_ns=300",
         "pair 1,0 err_cnot=0.01 time_ns=300"],
    ], ids=["qubit", "pair", "reversed-pair"])
    def test_duplicate_record_rejected_with_its_line(self, records):
        header = ["qubit 0 t1_us=inf t2_us=inf err_1q=0",
                  "qubit 1 t1_us=10 t2_us=10 err_1q=0.1"]
        lines = header + records
        with pytest.raises(CalibrationError, match=f"^line {len(lines)}: "):
            parse_calibration("\n".join(lines) + "\n")

    def test_qubit_wraparound_and_pair_fallback(self, manila):
        assert manila.qubit(5) == manila.qubit(0)
        fallback = manila.pair(0, 3)
        errs = [manila.pair(a, b).err_cnot for a, b in ((0, 1), (1, 2),
                                                        (2, 3), (3, 4))]
        assert fallback.err_cnot == pytest.approx(np.mean(errs))


class TestChannels:
    def test_kraus_completeness(self):
        for kraus in (depolarizing_kraus(0.17),
                      two_qubit_depolarizing_kraus(0.0438),
                      thermal_relaxation_kraus(300.0, 20.9, 18.1)):
            dim = kraus[0].shape[0]
            acc = sum(k.conj().T @ k for k in kraus)
            assert np.max(np.abs(acc - np.eye(dim))) < 1e-12

    def test_depolarizing_bloch_contraction(self):
        p = 0.3
        rho = DensityMatrix(1, np.array([[0, 0], [0, 1]], dtype=complex))
        apply_kraus(rho, depolarizing_kraus(p))
        z = rho.expectation(PauliSum(1, {PauliString.from_word(1, "Z0"): 1.0}))
        assert z == pytest.approx((1 - p) * (-1.0))

    def test_t1_decay_oracle(self):
        t_ns, t1_us = 400.0, 20.931
        rho = DensityMatrix(1, np.array([[0, 0], [0, 1]], dtype=complex))
        steps = 25
        kraus = thermal_relaxation_kraus(t_ns, t1_us, 2.0 * t1_us)
        for _ in range(steps):
            apply_kraus(rho, kraus)
        expected = np.exp(-steps * t_ns * 1e-3 / t1_us)
        assert rho.matrix[1, 1].real == pytest.approx(expected, abs=1e-12)

    def test_superop_matches_embedded_kraus(self, manila):
        rng = np.random.default_rng(7)
        n = 3
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(n, np.outer(v, v.conj()))
        oracle = rho.copy()
        gate = gate_ry(1, 0.9)
        apply_noisy_gate(rho, gate, manila)
        u = gate_unitary(gate, n)
        m = u @ oracle.matrix @ u.conj().T
        row = manila.qubit(1)
        for kraus in (depolarizing_kraus(row.err_1q),
                      thermal_relaxation_kraus(manila.gate_time_1q_ns,
                                               row.t1_us, row.t2_us)):
            full = embed_kraus(kraus, 1, n)
            m = sum(k @ m @ k.conj().T for k in full)
        assert np.max(np.abs(rho.matrix - m)) < 1e-14

    @pytest.mark.parametrize("name", sorted(GATES_3Q))
    def test_noisy_gate_matches_dense_oracle(self, manila, name):
        rng = np.random.default_rng(sorted(GATES_3Q).index(name))
        n = 3
        m = random_mixed_state(rng, n)
        rho = DensityMatrix(n, m)
        case = GATES_3Q[name]
        if isinstance(case, GateOp):
            apply_noisy_gate(rho, case, manila)
            operands = sorted(case.operands())
            expected = oracle_noisy_gate(
                m, gate_unitary(case, n), operands, len(operands) == 2, manila,
                n)
        else:
            string, angle = case
            apply_noisy_ansatz(rho, one_rotation_circuit(string), [angle],
                               manila)
            expected = oracle_noisy_gate(
                m, rotation_unitary(string, angle, n), string.support(),
                False, manila, n)
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_gate_beyond_register_rejected(self, manila):
        with pytest.raises(ValueError):
            apply_noisy_gate(DensityMatrix(2), gate_x(2), manila)
        rho = DensityMatrix(2)
        with pytest.raises(ValueError):
            apply_noisy_ansatz(rho, one_rotation_circuit(
                PauliString.from_word(3, "X0")), [0.3], manila)
        assert np.array_equal(rho.matrix, DensityMatrix(2).matrix)

    @pytest.mark.parametrize("effective", [["d:0,1,2,3", "d:0,3,1,2"], None],
                             ids=["two-double", "uccgsd"])
    def test_noisy_ansatz_bit_identical_to_rotation_gates(
            self, h2_problem, manila, effective):
        # The compiled-plan route against the string route, one rotation
        # at a time, from the noisy preparation state; one zero parameter
        # exercises the skipped rotations.
        prep = h2_problem.prep
        circuit = build_uccgsd(enumerate_sz_excitations(2, effective=effective))
        theta = np.random.default_rng(23).uniform(-0.7, 0.7,
                                                  circuit.parameter_count)
        theta[0] = 0.0
        start = evolve_noisy(prep.program, prep.n_qubits, manila)
        fast = apply_noisy_ansatz(start.copy(), circuit, theta, manila)
        slow = string_noisy_ansatz(start.copy(), circuit, theta, manila)
        assert fast.vec.amplitudes.tobytes() == slow.vec.amplitudes.tobytes()
        assert not np.array_equal(fast.matrix, start.matrix)

    def test_expectation_matches_dense_trace(self):
        rng = np.random.default_rng(12)
        n = 4
        rho = DensityMatrix(n, random_mixed_state(rng, n))
        for op_qubits in (4, 4, 2, 1):
            terms = {PauliString(op_qubits): float(rng.normal())}
            for _ in range(6):
                qubits = rng.choice(op_qubits,
                                    size=int(rng.integers(1, op_qubits + 1)),
                                    replace=False)
                string = PauliString.from_map(
                    op_qubits, {int(q): "XYZ"[rng.integers(3)]
                                for q in qubits})
                terms[string] = terms.get(string, 0.0) + float(rng.normal())
            op = PauliSum(op_qubits, terms)
            dense = np.einsum("ij,ji->", kron_matrix(embedded(op, n)),
                              rho.matrix)
            assert rho.expectation(op) == pytest.approx(dense.real, abs=1e-12)
        with pytest.raises(DimensionMismatch):
            rho.expectation(identity_sum(n + 1))

    def test_pauli_trace_gathers_are_built_once_per_plan(self):
        # The sign rows and vec(rho) positions live on the rows the plans
        # share, one per Z and X mask, so every state traced with a plan
        # reuses them; each trace is the per-call gather's value bit for
        # bit.
        rng = np.random.default_rng(5)
        n = 3
        dim = 1 << n
        rows = np.arange(dim)
        h = PauliSum(n, {PauliString.from_word(n, w): float(rng.normal())
                         for w in ("I", "X0", "Z1 Z2", "Y0 X2", "X0 Y1 Z2")})
        plans = [plan for _, plan in h.plans(n)]
        sector = plans[0].sector
        assert all(plan.sector is sector for plan in plans)
        first = [sector.trace_positions(plan.mask) for plan in plans]
        for _ in range(3):
            rho = DensityMatrix(n, random_mixed_state(rng, n))
            for plan, positions in zip(plans, first):
                assert sector.trace_positions(plan.mask) is positions
                signs = (np.ones(dim, dtype=np.int8) if plan.signs is None
                         else plan.signs)
                inline = np.conj(plan.scalar) * np.dot(
                    signs, rho.vec.amplitudes[rows * dim + (rows ^ plan.mask)])
                assert rho.pauli_trace(plan) == inline
            assert sorted(sector._traces) == sorted({p.mask for p in plans})
            dense = np.einsum("ij,ji->", kron_matrix(h), rho.matrix)
            assert rho.expectation(h) == pytest.approx(dense.real, abs=1e-12)

    def test_pauli_trace_refuses_a_plan_of_another_register(self):
        # The one-qubit X0 would read Tr((I (x) X) rho) off a two-qubit
        # rho, and a three-qubit plan would index past vec(rho).
        rng = np.random.default_rng(6)
        rho = DensityMatrix(2, random_mixed_state(rng, 2))
        for n in (1, 3):
            (_, plan), = PauliSum(n, {PauliString.from_word(n, "X0"): 1.0}
                                  ).plans(n)
            with pytest.raises(DimensionMismatch):
                rho.pauli_trace(plan)
        (_, plan), = PauliSum(1, {PauliString.from_word(1, "X0"): 1.0}
                              ).plans(2)
        dense = np.einsum("ij,ji->", kron_matrix(PauliSum(
            2, {PauliString.from_word(2, "X0"): 1.0})), rho.matrix)
        assert rho.pauli_trace(plan) == pytest.approx(dense, abs=1e-14)

    def test_trace_preserved_over_1000_gates(self, manila):
        rho = DensityMatrix(3)
        program = [gate_ry(0, 0.3), gate_cnot(0, 1), gate_x(2),
                   gate_cnot(1, 2), gate_ry(2, -0.7)]
        for _ in range(200):
            for gate in program:
                apply_noisy_gate(rho, gate, manila)
        assert abs(rho.trace() - 1.0) <= 1e-9
        check_density_matrix(rho, check_psd=True)

    def test_density_matrix_validation(self):
        rho = DensityMatrix(1)
        rho.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            check_density_matrix(rho)


class TestNoisyEnergy:
    def test_zero_noise_matches_statevector(self, h2_problem):
        p = h2_problem
        rng = np.random.default_rng(41)
        theta = rng.uniform(-0.7, 0.7, p.circuit.parameter_count)
        noisy = noisy_ensemble_energy(p.h, p.circuit, p.prep, theta,
                                      zero_noise_calibration(), sampler=None)
        exact = ensemble_energy(p.h, p.circuit, p.prep, theta)
        assert noisy == pytest.approx(exact, abs=1e-12)

    def test_fresh_calibrations_never_share_state(self, h2_problem):
        # A noisy calibration freed before a zero-noise one is built can
        # hand its memory, and so its id(), to the new object.
        p = h2_problem
        circuit = build_uccgsd(enumerate_sz_excitations(
            2, effective=["d:0,1,2,3", "d:0,3,1,2"]))
        theta = np.random.default_rng(5).uniform(-0.5, 0.5,
                                                 circuit.parameter_count)
        exact = ensemble_energy(p.h, circuit, p.prep, theta)
        stale = 0
        for _ in range(50):
            noisy_ensemble_energy(p.h, circuit, p.prep, theta,
                                  load_calibration(CAL_PATH))
            value = noisy_ensemble_energy(p.h, circuit, p.prep, theta,
                                          zero_noise_calibration())
            stale += abs(value - exact) > 1e-12
        assert stale == 0

    def test_non_finite_theta_rejected(self, h2_problem, manila):
        p = h2_problem
        for bad in (np.nan, np.inf):
            theta = np.full(p.circuit.parameter_count, 0.1)
            theta[1] = bad
            with pytest.raises(ValueError):
                noisy_ensemble_energy(p.h, p.circuit, p.prep, theta, manila)

    def test_totally_mixed_reference(self, h2_problem):
        h = h2_problem.h
        rho = totally_mixed(h.n_qubits)
        value = sum(c.real * rho.expectation(PauliSum(h.n_qubits, {s: 1.0}))
                    for s, c in h.items())
        assert value == pytest.approx(totally_mixed_energy(h), abs=1e-12)

    def test_shot_sampler_exact_sentinel(self):
        sampler = ShotSampler(shots=0)
        assert sampler.sample(0.3721) == 0.3721

    def test_shot_sampler_statistics(self):
        sampler = ShotSampler(shots=10_000, rng=np.random.default_rng(3))
        draws = [sampler.sample(0.5) for _ in range(200)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.01)
        assert np.std(draws) == pytest.approx(
            np.sqrt((1 - 0.25) / 10_000), rel=0.3)

    def test_sampled_energy_reproducible(self, h2_problem, manila):
        p = h2_problem
        theta = np.full(p.circuit.parameter_count, 0.1)
        values = []
        for _ in range(2):
            sampler = ShotSampler(shots=1000, rng=np.random.default_rng(9))
            values.append(noisy_ensemble_energy(p.h, p.circuit, p.prep,
                                                theta, manila, sampler))
        assert values[0] == values[1]


class TestSpsa:
    def test_quadratic_convergence(self):
        target = np.array([0.3, -0.8, 1.2])
        result = spsa_optimize(lambda x: float(np.sum((x - target) ** 2)),
                               np.zeros(3), SpsaConfig(), 500, seed=11)
        assert np.max(np.abs(result.theta_star - target)) < 1e-2

    def test_reproducibility(self):
        objective = lambda x: float(np.sum(x ** 2))
        a = spsa_optimize(objective, np.ones(4), SpsaConfig(), 100, seed=5)
        b = spsa_optimize(objective, np.ones(4), SpsaConfig(), 100, seed=5)
        assert a.trace == b.trace
        assert np.array_equal(a.theta_star, b.theta_star)

    def test_divergence_detected(self):
        objective = lambda x: float("nan")
        with pytest.raises(FloatingPointError):
            spsa_optimize(objective, np.zeros(2), SpsaConfig(), 10, seed=0)

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_no_iterations_rejected(self, iterations):
        with pytest.raises(ValueError, match="at least one iteration"):
            spsa_optimize(lambda x: 0.0, np.zeros(2), SpsaConfig(),
                          iterations, seed=0)

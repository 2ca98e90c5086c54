"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line straight to the terminal (capture is
suspended around the print, so the lines appear under plain ``pytest``
too).  The heavy fixtures (26-point H2 sweep, LiH, H4, the seeded noisy
run) are module-scoped and shared by the criteria that consume them.
Expected runtime is a few minutes, dominated by the H4 optimization.
"""

import contextlib
import os

import numpy as np
import pytest

from qpvqe.ansatz import build_uccgsd
from qpvqe.driver import SpsaConfig, ensemble_energy, error_bound
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import bit_list, parse_record, record_get, sector_indices
from qpvqe.noise import (ShotSampler, load_calibration, noisy_ensemble_energy,
                         spsa_optimize, totally_mixed_energy,
                         zero_noise_calibration)
from qpvqe.observables import (energy_gap, gap_from_full_purified,
                               prepare_pair, supported_projector_pairs,
                               transition_amplitude)
from qpvqe.pauli import PauliString, PauliSum, paulisum_action
from qpvqe.state_prep import (ReferenceSet, WeightVector, build_purified_prep,
                              compressed_cascade, default_weights,
                              prepare_purified)
from qpvqe.statevector import init_basis

from conftest import Problem, data_path
from oracles import (ensemble_energy_by_states, expectation_objective,
                     gradient, symmetry_expectations)

CHEMICAL_ACCURACY_HA = 1.6e-3
H4_TOLERANCE_HA = 5e-3

H2_LABELS = [f"{0.5 + 0.1 * i:.2f}" for i in range(26)]

# The benchmark's lih_spectrum check compares a LiH run with this stored
# record at RECORD_TOL (bench/workloads.py).  It is read, never written.
LIH_RECORD = os.path.join(os.path.dirname(__file__), "..", "bench", "data",
                          "lih_1.60.rec")
RECORD_TOL = 1e-9


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number, name, ok, detail):
    ctx = _CAPTURE.disabled() if _CAPTURE is not None \
        else contextlib.nullcontext()
    with ctx:
        print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})", flush=True)
    assert ok, f"criterion {number} {name}: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy fixtures.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def h2_sweep():
    runs = []
    for label in H2_LABELS:
        problem = Problem(f"h2_{label}.ham", 2, (2, 0.0))
        result = problem.optimize()
        runs.append((label, problem, result))
    return runs


@pytest.fixture(scope="module")
def lih_run():
    problem = Problem("lih_1.60.ham", 5, (2, 0.0), max_iterations=6000)
    return problem, problem.optimize()


@pytest.fixture(scope="module")
def h4_run():
    problem = Problem("h4_0.90.ham", 4, (4, 0.0), max_iterations=6000)
    return problem, problem.optimize()


@pytest.fixture(scope="module")
def noisy_h2():
    problem = Problem("h2_0.70.ham", 2, (2, 0.0))
    calib = load_calibration(data_path("calibration", "ibmq_manila.cal"))
    gens = enumerate_sz_excitations(2, effective=["d:0,1,2,3", "d:0,3,1,2"])
    circuit = build_uccgsd(gens)
    sampler = ShotSampler(shots=10_000, rng=np.random.default_rng(42))

    def objective(theta):
        return noisy_ensemble_energy(problem.h, circuit, problem.prep, theta,
                                     calib, sampler)

    result = spsa_optimize(objective, np.zeros(circuit.parameter_count),
                           SpsaConfig(), 400, seed=42)
    return problem, circuit, result


def random_reference_set(rng, n_qubits, k):
    while True:
        n_particles = int(rng.integers(1, n_qubits))
        sz_pool = sector_indices(n_qubits, n_particles, 0.0) \
            if n_particles % 2 == 0 else []
        if len(sz_pool) < k:
            continue
        picks = rng.choice(len(sz_pool), size=k, replace=False)
        dets = tuple("".join(str(b) for b in bit_list(sz_pool[i], n_qubits))
                     for i in picks)
        return ReferenceSet(dets)


def random_weights(rng, k):
    raw = np.sort(rng.uniform(0.05, 1.0, size=k))[::-1]
    raw += np.arange(k, 0, -1) * 0.01  # enforce strict gaps
    return WeightVector(tuple(raw / raw.sum()))


def random_hermitian(rng, n, terms=8):
    acc = {}
    for _ in range(terms):
        qubits = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        s = PauliString.from_map(n, {int(q): "XYZ"[rng.integers(3)]
                                     for q in qubits})
        acc[s] = acc.get(s, 0.0) + float(rng.normal())
    return PauliSum(n, acc)


# ---------------------------------------------------------------------------
# Criteria.
# ---------------------------------------------------------------------------

def test_criterion_1_one_shot_equivalence():
    rng = np.random.default_rng(1001)
    circuits = {2: build_uccgsd(enumerate_sz_excitations(2)),
                3: build_uccgsd(enumerate_sz_excitations(3))}
    worst = 0.0
    for _ in range(200):
        m = int(rng.choice([2, 3]))
        n = 2 * m
        circuit = circuits[m]
        k = int(rng.integers(2, 5))
        refs = random_reference_set(rng, n, k)
        weights = random_weights(rng, k)
        prep = build_purified_prep(weights, refs)
        h = random_hermitian(rng, n)
        theta = rng.uniform(-np.pi, np.pi, circuit.parameter_count)
        one_shot = ensemble_energy(h, circuit, prep, theta)
        loop = ensemble_energy_by_states(h, circuit, prep, theta)
        worst = max(worst, abs(one_shot - loop))
    report(1, "one-shot equivalence", worst <= 1e-12,
           f"max |purified - weighted loop| = {worst:.2e} over 200 instances")


def test_criterion_2_gok_lower_bound(h2_sweep, lih_run, h4_run):
    rng = np.random.default_rng(2002)
    worst_violation = -np.inf
    checked = 0
    problems = [(label, p) for label, p, _ in h2_sweep]
    problems.append(("lih", lih_run[0]))
    problems.append(("h4", h4_run[0]))
    for label, problem in problems:
        floor = float(np.dot(problem.weights.w, problem.ed.energies))
        count = 1000 if problem.h.n_qubits <= 8 else 200
        for _ in range(count):
            theta = rng.uniform(-np.pi, np.pi,
                                problem.circuit.parameter_count)
            value = ensemble_energy(problem.h, problem.circuit, problem.prep,
                                    theta)
            worst_violation = max(worst_violation, floor - value)
            checked += 1
    report(2, "GOK lower bound", worst_violation <= 1e-10,
           f"max floor-overshoot = {worst_violation:.2e} over {checked} draws")


def test_criterion_3_h2_spectrum(h2_sweep):
    worst_err = 0.0
    worst_fid = 1.0
    for label, problem, result in h2_sweep:
        errors = np.abs(result.energies - problem.ed.energies)
        worst_err = max(worst_err, float(np.max(errors)))
        for j, state in enumerate(result.states):
            worst_fid = min(worst_fid, problem.ed.subspace_fidelity(
                state.amplitudes, j))
    ok = worst_err <= CHEMICAL_ACCURACY_HA and worst_fid >= 0.99
    report(3, "H2 spectrum reproduction", ok,
           f"26 bond lengths, K=4: max |eps-E| = {worst_err * 1e3:.2e} mHa, "
           f"min fidelity = {worst_fid:.6f}")


def test_criterion_4_lih_h4_desk_scale(lih_run, h4_run):
    lih_problem, lih_result = lih_run
    h4_problem, h4_result = h4_run
    lih_err = float(np.max(np.abs(lih_result.energies
                                  - lih_problem.ed.energies)))
    h4_err = float(np.max(np.abs(h4_result.energies
                                 - h4_problem.ed.energies)))
    ok = lih_err <= CHEMICAL_ACCURACY_HA and h4_err <= H4_TOLERANCE_HA
    report(4, "LiH / H4 desk scale", ok,
           f"LiH max err = {lih_err * 1e3:.2e} mHa (<= 1.6), "
           f"H4 max err = {h4_err * 1e3:.2e} mHa (<= 5)")


def test_criterion_5_error_bound_certificate(h2_sweep, lih_run, h4_run):
    runs = [(label, p, r) for label, p, r in h2_sweep]
    runs.append(("lih", *lih_run))
    runs.append(("h4", *h4_run))
    worst_slack = np.inf
    for label, problem, result in runs:
        e_w, bound = error_bound(result.energies, problem.weights,
                                 problem.ed.energies)
        assert e_w >= -1e-10
        total = float(np.sum(np.abs(result.energies - problem.ed.energies)))
        worst_slack = min(worst_slack, bound + 1e-10 - total)
    report(5, "error-bound certificate", worst_slack >= 0.0,
           f"{len(runs)} converged runs, min (bound - sum|err|) = "
           f"{worst_slack:.2e} Ha")


def test_criterion_6_gaps_and_amplitudes(h2_sweep, lih_run, h4_run):
    runs = [(label, p, r) for label, p, r in h2_sweep[::5]]
    runs.extend([("lih", *lih_run), ("h4", *h4_run)])
    hop = None
    worst = 0.0
    for label, problem, result in runs:
        n = problem.h.n_qubits
        from qpvqe.fermion import FermionTerm, jordan_wigner_sum
        hop = jordan_wigner_sum([
            FermionTerm(1.0, ((0, True), (2, False))),
            FermionTerm(1.0, ((2, True), (0, False))),
            FermionTerm(1.0, ((1, True), (3, False))),
            FermionTerm(1.0, ((3, True), (1, False)))], n)
        k = problem.k
        eps = result.energies
        for i in range(k):
            for j in range(i + 1, k):
                pair = prepare_pair(problem.circuit, result.theta_star,
                                    problem.refs, [(i, j)])[0]
                gap = energy_gap(pair, problem.h)
                worst = max(worst, abs(gap - (eps[i] - eps[j])))
                for obs in (problem.h, hop):
                    amp = transition_amplitude(pair, obs)
                    direct = complex(np.vdot(
                        result.states[i].amplitudes,
                        paulisum_action(obs, n, result.states[j].amplitudes)))
                    worst = max(worst, abs(amp - direct))
        for pair_indices in supported_projector_pairs(k):
            i, j = pair_indices
            gap_p = gap_from_full_purified(problem.circuit, result.theta_star,
                                           problem.refs, problem.h,
                                           pair_indices)
            pair = prepare_pair(problem.circuit, result.theta_star,
                                problem.refs, [(i, j)])[0]
            worst = max(worst, abs(gap_p - energy_gap(pair, problem.h)))
    report(6, "gap and amplitude extraction", worst <= 1e-10,
           f"max deviation across runs/pairs/routes = {worst:.2e} Ha")


def test_criterion_7_state_preparation_exactness():
    weights = default_weights(4)
    refs = ReferenceSet(("1100", "1001", "0110", "0011"))
    state = prepare_purified(weights, refs)
    expected = np.zeros(64, dtype=complex)
    for j, det in enumerate(refs.determinants):
        expected[(int(det, 2) << 2) + j] = np.sqrt(weights.w[j])
    amp_err = float(np.max(np.abs(state.amplitudes - expected)))
    counts_ok = all(
        len(compressed_cascade(default_weights(k))[1]) == k - 1
        for k in (2, 4, 8))
    ok = amp_err <= 1e-12 and counts_ok
    report(7, "state-preparation exactness", ok,
           f"max amplitude deviation = {amp_err:.2e}; cascade gate counts "
           f"K-1 for K in {{2,4,8}}: {counts_ok}")


def test_criterion_8_noisy_behavior(noisy_h2):
    problem, circuit, result = noisy_h2
    exact_ensemble = float(np.dot(problem.weights.w, problem.ed.energies))
    mixed = totally_mixed_energy(problem.h)
    trailing = float(np.mean(result.trace[-100:]))
    rng = np.random.default_rng(88)
    theta = rng.uniform(-0.5, 0.5, circuit.parameter_count)
    dm_value = noisy_ensemble_energy(problem.h, circuit, problem.prep, theta,
                                     zero_noise_calibration(), sampler=None)
    sv_value = ensemble_energy(problem.h, circuit, problem.prep, theta)
    consistency = abs(dm_value - sv_value)
    ok = exact_ensemble < trailing < mixed and consistency <= 1e-12
    report(8, "noisy behavior", ok,
           f"trailing-100 mean {trailing:.4f} in ({exact_ensemble:.4f}, "
           f"{mixed:.4f}); zero-noise DM vs SV = {consistency:.2e}")


def test_criterion_9_symmetry_invariants(h2_sweep, lih_run, h4_run):
    runs = [(label, p, r) for label, p, r in h2_sweep]
    runs.extend([("lih", *lih_run), ("h4", *h4_run)])
    worst = 0.0
    for label, problem, result in runs:
        n = problem.h.n_qubits
        for state in result.states:
            n_val, sz_val = symmetry_expectations(state, n)
            worst = max(worst, abs(n_val - problem.refs.n_particles),
                        abs(sz_val - problem.refs.sz))
    report(9, "symmetry invariants", worst <= 1e-10,
           f"max |<N>,<Sz> deviation| = {worst:.2e} over "
           f"{len(runs)} runs x K states")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(1010)
    circuit = build_uccgsd(enumerate_sz_excitations(2))
    worst = 0.0
    for _ in range(5):
        h = random_hermitian(rng, 4)
        init = init_basis(4, [int(b) for b in
                              format(rng.integers(16), "04b")])
        theta = rng.uniform(-1.0, 1.0, circuit.parameter_count)
        grad = gradient(circuit, theta, h, init)
        objective = expectation_objective(circuit, h, init)
        step = 1e-5
        for index in range(circuit.parameter_count):
            plus, minus = theta.copy(), theta.copy()
            plus[index] += step
            minus[index] -= step
            fd = (objective(plus) - objective(minus)) / (2 * step)
            worst = max(worst, abs(grad[index] - fd))
    report(10, "gradient correctness", worst <= 1e-6,
           f"max |parameter-shift - finite difference| = {worst:.2e}")


def test_lih_run_matches_the_stored_benchmark_record(lih_run):
    # The benchmark's record gate, so a roundoff drift of theta fails
    # here too and not only in the benchmark.
    _, result = lih_run
    with open(LIH_RECORD) as handle:
        fields = parse_record(handle.read())
    assert result.iterations_used == int(record_get(fields, "iterations"))
    theta = np.array([float(x) for x in record_get(fields, "theta").split()])
    assert result.theta_star.shape == theta.shape
    assert np.max(np.abs(result.theta_star - theta)) <= RECORD_TOL
    energies = np.array([float(record_get(fields, f"energy {j}"))
                         for j in range(len(result.energies))])
    assert np.max(np.abs(result.energies - energies)) <= RECORD_TOL

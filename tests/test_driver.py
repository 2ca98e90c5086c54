import numpy as np
import pytest

from qpvqe import ansatz, driver
from qpvqe.ansatz import build_uccgsd
from qpvqe.driver import (QpvqeConfig, attach_certificate, ensemble_energy,
                          error_bound, extract_eigenpairs, optimize)
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import exact_diagonalize, load_hamiltonian
from qpvqe.pauli import PauliString, PauliSum
from qpvqe.state_prep import (ReferenceSet, WeightVector, build_purified_prep,
                              default_weights, select_reference_determinants)
from qpvqe.statevector import inner_product

from oracles import (ensemble_energy_by_states, gradient, kron_matrix,
                     symmetry_expectations)

from conftest import data_path

CHEMICAL_ACCURACY_HA = 1.6e-3


class TestEnsembleEnergy:
    def test_theta_zero_gives_weighted_diagonals(self, h2_problem):
        p = h2_problem
        theta = np.zeros(p.circuit.parameter_count)
        value = ensemble_energy(p.h, p.circuit, p.prep, theta)
        dense = kron_matrix(p.h)
        expected = sum(w * dense[int(det, 2), int(det, 2)].real
                       for w, det in zip(p.weights.w, p.refs.determinants))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_one_shot_equals_per_state_loop(self, h2_problem):
        p = h2_problem
        rng = np.random.default_rng(31)
        for _ in range(25):
            theta = rng.uniform(-1.2, 1.2, p.circuit.parameter_count)
            one_shot = ensemble_energy(p.h, p.circuit, p.prep, theta)
            loop = ensemble_energy_by_states(p.h, p.circuit, p.prep, theta)
            assert one_shot == pytest.approx(loop, abs=1e-12)

    def test_gok_lower_bound(self, h2_problem):
        p = h2_problem
        floor = float(np.dot(p.weights.w, p.ed.energies))
        rng = np.random.default_rng(37)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi, p.circuit.parameter_count)
            assert ensemble_energy(p.h, p.circuit, p.prep, theta) \
                >= floor - 1e-10


class TestOptimize:
    def test_h2_spectrum_within_chemical_accuracy(self, h2_problem, h2_result):
        errors = np.abs(h2_result.energies - h2_problem.ed.energies)
        assert np.max(errors) <= CHEMICAL_ACCURACY_HA

    def test_trace_monotone_up_to_tolerance(self, h2_result):
        trace = np.array(h2_result.ensemble_trace)
        assert np.all(np.diff(trace) <= 1e-7)

    def test_converged_flag_and_iterations(self, h2_result):
        assert h2_result.converged
        assert h2_result.iterations_used == len(h2_result.ensemble_trace) - 1

    def test_energies_ascending(self, h2_result):
        assert not h2_result.ordering_violated
        assert np.all(np.diff(h2_result.energies) >= -1e-9)

    def test_k1_reduces_to_ground_state_vqe(self, h2_problem):
        p = h2_problem
        refs = ReferenceSet((p.refs.determinants[0],))
        prep = build_purified_prep(default_weights(1), refs)
        config = QpvqeConfig(max_iterations=3000)
        result = optimize(p.h, p.circuit, prep, config)
        assert abs(result.energies[0] - p.ed.energies[0]) \
            <= CHEMICAL_ACCURACY_HA

    def test_determinism(self, h2_problem):
        p = h2_problem
        a = optimize(p.h, p.circuit, p.prep, p.config)
        b = optimize(p.h, p.circuit, p.prep, p.config)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.ensemble_trace == b.ensemble_trace
        assert np.array_equal(a.energies, b.energies)

    def test_one_value_and_gradient_call_per_evaluation(self, monkeypatch,
                                                        h2_problem):
        # The proposal and every backtrack attempt are one call each, and
        # nothing re-evaluates the accepted theta.
        p = h2_problem
        calls = []
        real = driver.value_and_gradient

        def spy(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(driver, "value_and_gradient", spy)
        result = optimize(p.h, p.circuit, p.prep, p.config)
        assert len(calls) == result.evaluations
        # the run backtracks, so the count covers backtrack attempts
        assert result.evaluations > result.iterations_used + 1

    @pytest.mark.parametrize("name, m_spatial, probe", [
        ("h2_0.70.ham", 2, False), ("h2_0.70.ham", 2, True),
        ("lih_1.60.ham", 5, False)], ids=["h2", "h2-probe", "lih"])
    def test_one_backward_sweep_per_accepted_step_and_descent_start(
            self, monkeypatch, name, m_spatial, probe):
        # A rejected attempt stops after its forward pass, so the sweeps
        # are the descents' starting points and their accepted steps.
        h = load_hamiltonian(data_path("hamiltonians", name))
        circuit = build_uccgsd(enumerate_sz_excitations(m_spatial))
        prep = build_purified_prep(default_weights(4),
                                   select_reference_determinants(h, 2, 0.0, 4))
        sweeps, descents = [], []
        real_sweep, real_descent = ansatz._backward_sweep, driver._adam_descent

        def spy_sweep(*args):
            sweeps.append(args)
            return real_sweep(*args)

        def spy_descent(*args, **kwargs):
            descents.append(args)
            return real_descent(*args, **kwargs)

        monkeypatch.setattr(ansatz, "_backward_sweep", spy_sweep)
        monkeypatch.setattr(driver, "_adam_descent", spy_descent)
        if probe:  # force one saddle probe after the first descent
            monkeypatch.setattr(driver, "_is_ascending", lambda e: False)
            monkeypatch.setattr(driver, "SADDLE_PROBES", 1)
        result = optimize(h, circuit, prep, QpvqeConfig())
        assert len(descents) == (2 if probe else 1)
        # the trace holds each descent's start and each accepted step
        assert len(sweeps) == len(result.ensemble_trace)
        # attempts were rejected, and none of them swept
        assert result.evaluations > len(sweeps)

    def test_gradient_small_at_optimum(self, h2_problem, h2_result):
        p = h2_problem
        grad = gradient(p.circuit, h2_result.theta_star, p.h, p.prep.prepare())
        assert np.max(np.abs(grad)) <= 1e-4


class TestExtractEigenpairs:
    def test_orthonormality(self, h2_result):
        states = h2_result.states
        for i in range(len(states)):
            for j in range(len(states)):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(states[i], states[j]) - expected) \
                    <= 1e-10

    def test_symmetry_sector_preserved(self, h2_problem, h2_result):
        for state in h2_result.states:
            n_val, sz_val = symmetry_expectations(state, 4)
            assert n_val == pytest.approx(h2_problem.refs.n_particles,
                                          abs=1e-10)
            assert sz_val == pytest.approx(h2_problem.refs.sz, abs=1e-10)

    def test_energies_match_state_expectations(self, h2_problem, h2_result):
        from qpvqe.pauli import expectation
        for energy, state in zip(h2_result.energies, h2_result.states):
            assert energy == pytest.approx(expectation(h2_problem.h, state),
                                           abs=1e-10)

    def test_fidelities_against_ed_subspace(self, h2_problem, h2_result):
        for j, state in enumerate(h2_result.states):
            fid = h2_problem.ed.subspace_fidelity(state.amplitudes, j)
            assert fid >= 0.99


class TestErrorBound:
    def test_direct_substitution(self):
        # w = (0.4, 0.3, 0.2, 0.1) with e_w = 1e-3 Ha gives 2e-3/0.1 = 0.02
        w = default_weights(4)
        energies = np.array([-1.0 + 2.5e-3, -0.5, 0.0, 0.5])
        exact = np.array([-1.0, -0.5, 0.0, 0.5])
        e_w, bound = error_bound(energies, w, exact)
        assert e_w == pytest.approx(1e-3)
        assert bound == pytest.approx(0.02)

    def test_exact_convergence_zero_bound(self):
        w = default_weights(3)
        exact = np.array([-1.0, 0.0, 1.0])
        e_w, bound = error_bound(exact.copy(), w, exact)
        assert e_w == pytest.approx(0.0, abs=1e-15)
        assert bound == pytest.approx(0.0, abs=1e-13)

    def test_negative_e_w_raises(self):
        w = default_weights(2)
        with pytest.raises(AssertionError):
            error_bound(np.array([-2.0, 0.0]), w, np.array([-1.0, 0.0]))

    def test_certificate_on_converged_run(self, h2_problem, h2_result):
        attach_certificate(h2_result, h2_problem.weights,
                           h2_problem.ed.energies)
        assert h2_result.e_w >= -1e-10
        total = float(np.sum(np.abs(h2_result.energies
                                    - h2_problem.ed.energies)))
        assert total <= h2_result.bound + 1e-10

    def test_permuted_energies_still_bounded(self):
        # the certified inequality holds even for swapped converged states
        w = default_weights(2)
        exact = np.array([-1.0, 0.0])
        swapped = np.array([0.0, -1.0])
        e_w, bound = error_bound(swapped, w, exact)
        assert np.sum(np.abs(swapped - exact)) <= bound + 1e-10


class TestConfig:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            QpvqeConfig(convergence_threshold=0.0)

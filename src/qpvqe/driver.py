"""Three-step spectral solver: purified ensemble objective, optimization,
eigenpair extraction, and the weighted error-bound certificate.

The ensemble energy is a single expectation of H (x) 1 on the evolved
purified state; no per-state loop ever runs inside the objective.  The
noiseless path minimizes it with Adam on exact parameter-shift gradients
under a monotone accept/backtrack rule (see the constants below), so the
recorded trace never rises by more than the monotone tolerance and the
1e-9 Ha trailing-window criterion is met honestly rather than by a frozen
trace.  An evaluation is one ``value_and_gradient`` call: the proposal and
every backtrack attempt make one, and the accepted attempt's gradient
drives the next step, so ``SpectrumResult.evaluations`` counts those
calls.  Each run builds one symmetry screen, which makes evaluations
cheaper only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .ansatz import (AnsatzCircuit, SymmetryScreen, apply_ansatz,
                     symmetry_screen, value_and_gradient)
from .pauli import PauliSum, expectation
from .state_prep import PurifiedPrep, ReferenceSet, WeightVector
from .statevector import StateVector, init_basis

DEFAULT_THRESHOLD_HA = 1e-9
CONVERGENCE_WINDOW = 10


# Adam under a monotone accept/backtrack rule, with the moment decays and
# eps of Kingma & Ba (arXiv:1412.6980).  A proposed step that would raise
# the objective by more than MONOTONE_TOL is retried within the same
# iteration at LR_DECAY_FACTOR times the learning rate (up to
# MAX_BACKTRACKS), so every recorded iteration is an accepted, monotone
# step.  The rate recovers by LR_GROWTH after accepted steps while real
# progress is still being made (trailing window spread above 1000x the
# convergence threshold); in the convergence tail it only shrinks, which
# lets the trailing-window criterion bite honestly.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
MONOTONE_TOL = 1e-7
LR_DECAY_FACTOR = 0.5
LR_GROWTH = 1.5
MAX_BACKTRACKS = 50
# Saddle probes: a converged run whose extracted energies are not
# ascending sits in a permuted stationary configuration (a saddle of the
# weighted cost, reachable when reference diagonal ordering disagrees with
# the true eigenstate ordering).  Each of up to SADDLE_PROBES probes
# perturbs theta* by a seeded Gaussian of scale PROBE_SCALE and
# re-descends; strictly better outcomes are adopted.
SADDLE_PROBES = 4
PROBE_SCALE = 0.1


@dataclass(frozen=True)
class SpsaConfig:
    a: float = 0.2
    c: float = 0.15
    big_a: float = 10.0
    alpha: float = 0.602
    gamma: float = 0.101


@dataclass(frozen=True)
class QpvqeConfig:
    """Settings of one noiseless optimization.  K and the weights come from
    the purified preparation passed to ``optimize``."""

    lr: float = 0.05                     # Adam's largest learning rate
    max_iterations: int = 5000
    convergence_threshold: float = DEFAULT_THRESHOLD_HA
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails the float checks
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max iterations must be at least 1, got {self.max_iterations}")
        if not 0 < self.convergence_threshold < math.inf:
            raise ValueError("convergence threshold must be positive and "
                             f"finite, got {self.convergence_threshold}")


@dataclass
class SpectrumResult:
    theta_star: np.ndarray
    energies: Optional[np.ndarray]          # Hartree, by weight index
    states: Optional[List[StateVector]]
    ensemble_trace: List[float]
    iterations_used: int
    converged: bool
    e_w: Optional[float] = None
    bound: Optional[float] = None
    ed_energies: Optional[np.ndarray] = None
    evaluations: int = 0                    # value_and_gradient calls
    ordering_violated: bool = False


def ensemble_energy(h: PauliSum, circuit: AnsatzCircuit, prep: PurifiedPrep,
                    theta: Sequence[float]) -> float:
    """<Phi(w)| [U^dag H U] (x) 1 |Phi(w)> via one expectation on the full
    register, independent of the optimizer's screened forward pass: U runs
    on the rows the state reaches with no H, and the expectation on the
    whole register."""
    return expectation(h, apply_ansatz(circuit, theta, prep.prepare()))


def _window_spread(trace: List[float], window: int) -> float:
    """Spread of the trailing ``window`` steps; infinite until there are
    that many."""
    if len(trace) <= window:
        return math.inf
    tail = trace[-(window + 1):]
    return max(tail) - min(tail)


def _adam_descent(h: PauliSum, circuit: AnsatzCircuit, initial: StateVector,
                  theta0: np.ndarray, config: QpvqeConfig,
                  callback: Optional[Callable[[int, float], None]] = None,
                  iteration_offset: int = 0, *,
                  screen: SymmetryScreen
                  ) -> Tuple[np.ndarray, List[float], bool, int]:
    """One monotone Adam descent; returns (theta, trace, converged, evals)."""
    lr = config.lr
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)

    energy, grad = value_and_gradient(circuit, theta, h, initial, screen)
    if not np.isfinite(energy):
        raise FloatingPointError("objective diverged at iteration 0")
    trace = [energy]
    evaluations = 1
    converged = False

    for iteration in range(1, config.max_iterations + 1):
        m_new = BETA1 * m + (1 - BETA1) * grad
        v_new = BETA2 * v + (1 - BETA2) * grad * grad
        m_hat = m_new / (1 - BETA1 ** iteration)
        v_hat = v_new / (1 - BETA2 ** iteration)
        direction = m_hat / (np.sqrt(v_hat) + EPS)

        # The proposal, then up to MAX_BACKTRACKS retries at a decayed rate.
        for attempt in range(MAX_BACKTRACKS + 1):
            theta_new = theta - lr * direction
            energy_new, grad_new = value_and_gradient(circuit, theta_new, h,
                                                      initial, screen)
            evaluations += 1
            if attempt == 0 and not np.isfinite(energy_new):
                raise FloatingPointError(
                    f"objective diverged at iteration {iteration}")
            if energy_new <= energy + MONOTONE_TOL:
                break
            lr *= LR_DECAY_FACTOR
        else:
            break  # no acceptable step at any rate; stationary point

        theta, energy, grad = theta_new, energy_new, grad_new
        m, v = m_new, v_new
        trace.append(energy)
        if callback is not None:
            callback(iteration_offset + iteration, energy)
        spread = _window_spread(trace, CONVERGENCE_WINDOW)
        if spread < config.convergence_threshold:
            converged = True
            break
        if spread > 1000.0 * config.convergence_threshold:
            lr = min(lr * LR_GROWTH, config.lr)
    return theta, trace, converged, evaluations


def _is_ascending(energies: np.ndarray, slack: float = 1e-9) -> bool:
    return bool(np.all(np.diff(energies) >= -slack))


def optimize(h: PauliSum, circuit: AnsatzCircuit, prep: PurifiedPrep,
             config: QpvqeConfig,
             callback: Optional[Callable[[int, float], None]] = None
             ) -> SpectrumResult:
    """Minimize the ensemble energy with monotone Adam and extract eigenpairs.

    Each descent terminates when the trace changes by less than the
    threshold over a trailing 10-iteration window, or at max_iterations.
    Theta starts at zero (the weighted reference ensemble).  If the
    extracted energies come out non-ascending, the run sits in a permuted
    stationary configuration; seeded saddle probes then perturb and
    re-descend, adopting strictly better outcomes.  Everything is
    deterministic in (config, seed); the recorded trace concatenates all
    descents that were evaluated, adopted or not.
    One symmetry screen built here serves every descent: each evaluation
    runs on the rows the state can reach, with the full register's bits.
    In the first descent only rotations inside the span of H's flips ever
    act, and the sweep skips every other one; after a saddle probe every
    rotation acts and it skips none.
    """
    initial = prep.prepare()
    screen = symmetry_screen(circuit, h, initial)
    theta = np.zeros(circuit.parameter_count)
    theta, trace, converged, evaluations = _adam_descent(
        h, circuit, initial, theta, config, callback, screen=screen)
    energies, states = extract_eigenpairs(circuit, theta, prep.refs, h)

    best_energy = trace[-1]
    for probe_index in range(SADDLE_PROBES):
        if _is_ascending(energies):
            break
        rng = np.random.default_rng([config.seed, probe_index])
        theta_try = theta + PROBE_SCALE * rng.standard_normal(theta.size)
        theta_new, trace_new, converged_new, evals_new = _adam_descent(
            h, circuit, initial, theta_try, config, callback,
            iteration_offset=len(trace) - 1, screen=screen)
        trace.extend(trace_new)
        evaluations += evals_new
        if trace_new[-1] < best_energy - max(config.convergence_threshold,
                                             1e-12):
            theta, converged = theta_new, converged_new
            best_energy = trace_new[-1]
            energies, states = extract_eigenpairs(circuit, theta, prep.refs, h)

    return SpectrumResult(theta_star=theta, energies=energies, states=states,
                          ensemble_trace=trace, iterations_used=len(trace) - 1,
                          converged=converged, evaluations=evaluations,
                          ordering_violated=not _is_ascending(energies))


def extract_eigenpairs(circuit: AnsatzCircuit, theta_star: Sequence[float],
                       refs: ReferenceSet, h: PauliSum
                       ) -> Tuple[np.ndarray, List[StateVector]]:
    """K working-register evolutions U(theta*)|D_j>, in one
    ``apply_ansatz`` call, and their energies.

    Energies are reported in weight order without silent re-sorting; a
    converged run is weakly ascending because the weights force it.
    """
    states = apply_ansatz(circuit, theta_star, [
        init_basis(len(det), det) for det in refs.determinants])
    return np.array([expectation(h, state) for state in states]), states


def error_bound(energies: Sequence[float], weights: WeightVector,
                ed_energies: Sequence[float]) -> Tuple[float, float]:
    """Certificate e_w = sum w_j (eps_j - E_j) and 2 e_w / min|w_i - w_j|.

    Raises when e_w is negative beyond tolerance (a broken variational
    chain) or when the certified inequality itself fails.
    """
    energies = np.asarray(energies, dtype=float)
    exact = np.asarray(ed_energies, dtype=float)
    if energies.shape != exact.shape or len(energies) != len(weights):
        raise ValueError("energy vectors disagree on K")
    e_w = float(np.dot(weights.w, energies - exact))
    if e_w < -1e-10:
        raise AssertionError(f"e_w = {e_w:.3e} < 0: variational chain broken")
    bound = 2.0 * e_w / weights.min_gap()
    total_err = float(np.sum(np.abs(energies - exact)))
    if total_err > bound + 1e-10:
        raise AssertionError(
            f"certificate violated: sum|eps-E| = {total_err:.3e} > {bound:.3e}")
    return e_w, bound


def attach_certificate(result: SpectrumResult, weights: WeightVector,
                       ed_energies: Sequence[float]) -> SpectrumResult:
    e_w, bound = error_bound(result.energies, weights, ed_energies)
    result.e_w = e_w
    result.bound = bound
    result.ed_energies = np.asarray(ed_energies, dtype=float)
    return result

"""Gap and transition-amplitude extraction from ancilla-augmented states.

Pair states live on N+1 qubits with the ancilla as the last (least
significant) qubit: (U|D_i>|0> + U|D_j>|1>)/sqrt(2).  They use exact 1/2
branch weights on purpose; the strict-decrease rule on WeightVector is an
optimization-stage requirement, so measurement states get their own
constructors here and cannot be fed back into the optimizer.

Every readout is <Psi| O (x) A |Psi>, O on the working register and A a
small sum on the ancillas.  ``pauli.product_expectation`` sums
c_h c_a <Psi| P_h (P_a Psi)> on O's own cached plans, O-major and A-minor:
the order in which the product O (x) A lists its terms, so every value is
bit-identical to measuring the product, which is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .ansatz import AnsatzCircuit, apply_ansatz
from .pauli import PauliString, PauliSum, product_expectation
from .state_prep import ReferenceSet, isometry_network
from .statevector import (StateVector, apply_gate, gate_ry, run_program)


@dataclass
class PairState:
    state: StateVector          # N working qubits + 1 trailing ancilla
    n_working: int
    i: int
    j: int


def _ancilla_pauli(n_total: int, qubit: int, letter: str) -> PauliSum:
    """One Pauli letter on ``qubit`` of an ``n_total``-qubit register."""
    return PauliSum(n_total, {PauliString.from_map(n_total, {qubit: letter}): 1.0})


def ancilla_projector(n_total: int, qubit: int, sign: int) -> PauliSum:
    """(1 + sign*Z_qubit)/2 as a PauliSum; idempotent by construction."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return PauliSum(n_total, {
        PauliString(n_total): 0.5,
        PauliString.from_map(n_total, {qubit: "Z"}): 0.5 * sign,
    })


def prepare_pair(circuit: AnsatzCircuit, theta_star: Sequence[float],
                 refs: ReferenceSet, i: int, j: int) -> PairState:
    """(U|D_i>|0> + U|D_j>|1>)/sqrt(2): the equal-branch state of the two
    references, labelled 0 and 1."""
    if i == j:
        raise ValueError("pair needs two distinct reference indices")
    pair_refs = ReferenceSet((refs.determinants[i], refs.determinants[j]))
    return PairState(_equal_branch_state(circuit, theta_star, pair_refs,
                                         (0, 1)), refs.n_qubits, i, j)


def energy_gap(pair: PairState, h: PauliSum) -> float:
    """eps_i - eps_j = 2 <Psi_ij| H (x) Z_a |Psi_ij>."""
    z = _ancilla_pauli(pair.n_working + 1, pair.n_working, "Z")
    return 2.0 * product_expectation(h, z, pair.state)


def transition_amplitude(pair: PairState, obs: PauliSum) -> complex:
    """<eps_i| O |eps_j>: real part from O (x) X_a, imaginary from O (x) Y_a."""
    if not obs.is_hermitian():
        raise ValueError("transition amplitudes need a Hermitian observable")
    real, imag = (product_expectation(
        obs, _ancilla_pauli(pair.n_working + 1, pair.n_working, letter),
        pair.state) for letter in "XY")
    return complex(real, imag)


# ---------------------------------------------------------------------------
# Gap extraction from one equal-branch multi-state preparation.
#
# The measurement state pairs eigenstate j with the bit-REVERSED binary
# label (eps_0:|00>, eps_1:|10>, eps_2:|01>, eps_3:|11>), so the first
# ancilla distinguishes the (0,1) pair and the projector-weighted operators
# below read exactly as: (0,1) -> Z (x) (1+Z)/2, (2,3) -> Z (x) (1-Z)/2,
# (0,2) -> (1+Z)/2 (x) Z.
# ---------------------------------------------------------------------------

_SUPPORTED_PAIRS_K4 = {(0, 1), (2, 3), (0, 2)}


def supported_projector_pairs(k: int) -> set:
    if k == 2:
        return {(0, 1)}
    if k == 4:
        return set(_SUPPORTED_PAIRS_K4)
    return set()


def _equal_branch_state(circuit: AnsatzCircuit, theta_star: Sequence[float],
                        refs: ReferenceSet, labels: Sequence[int]
                        ) -> StateVector:
    n = refs.n_qubits
    c = 1 if refs.k == 2 else 2
    state = StateVector(n + c)
    for a in range(c):
        apply_gate(state, gate_ry(n + a, math.pi / 2))
    run_program(state, isometry_network(refs, labels=labels, n_ancilla=c))
    apply_ansatz(circuit, theta_star, state)
    return state


def pair_projector_operator(n_working: int, k: int, pair: Tuple[int, int]
                            ) -> Tuple[PauliSum, float]:
    """Ancilla operator A and rescale factor of one gap on the equal-branch
    state: the gap is scale * <H (x) A>."""
    pair = tuple(pair)
    if k == 2:
        if pair != (0, 1):
            raise ValueError("K=2 supports only the (0, 1) gap")
        return _ancilla_pauli(n_working + 1, n_working, "Z"), 2.0
    if k == 4:
        if pair not in _SUPPORTED_PAIRS_K4:
            raise ValueError(f"unsupported pair {pair} for K=4")
        n_total = n_working + 2
        if pair == (0, 2):
            anc = (ancilla_projector(n_total, n_working, +1)
                   * _ancilla_pauli(n_total, n_working + 1, "Z"))
        else:  # (0, 1) and (2, 3)
            anc = (_ancilla_pauli(n_total, n_working, "Z") * ancilla_projector(
                n_total, n_working + 1, +1 if pair == (0, 1) else -1))
        return anc, 4.0
    raise ValueError("projector gaps are implemented for K in {2, 4}")


def gap_from_full_purified(circuit: AnsatzCircuit, theta_star: Sequence[float],
                           refs: ReferenceSet, h: PauliSum,
                           pair: Tuple[int, int]) -> float:
    """Gap eps_i - eps_j measured on the equal-branch K-way state."""
    k = refs.k
    anc, scale = pair_projector_operator(refs.n_qubits, k, pair)
    if k == 2:
        labels: Sequence[int] = (0, 1)
    else:
        # bit-reversed two-bit labels: j -> (j & 1) << 1 | (j >> 1)
        labels = tuple(((j & 1) << 1) | (j >> 1) for j in range(4))
    state = _equal_branch_state(circuit, theta_star, refs, labels)
    return scale * product_expectation(h, anc, state)

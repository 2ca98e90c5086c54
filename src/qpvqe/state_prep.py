"""Purified ensemble-state preparation.

The target is sum_j sqrt(w_j) |D_j>_q (x) |l_j>_a on N working qubits plus
c = ceil(log2 K) ancillas, built from a binary RY cascade over the
compressed (ancilla) register followed by a bit-flip network that maps
each label |l_j> = |binary(j)> to its reference determinant.  The
compressed register itself serves as the ancilla register: no copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .pauli import PauliSum, matrix_diagonal
from .statevector import (GateOp, StateVector, gate_controlled_ry,
                          gate_controlled_x, gate_cnot, gate_ry, gate_x,
                          run_program)
from .harness import sector_indices, bit_list

WEIGHT_SUM_TOL = 1e-12
PREP_AMPLITUDE_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Strictly decreasing positive weights summing to 1.

    Distinctness is required by the error-bound certificate; equal-branch
    measurement states are built elsewhere and deliberately do not reuse
    this type.
    """

    w: Tuple[float, ...]

    def __post_init__(self):
        if not self.w:
            raise ValueError("weight vector is empty")
        if abs(sum(self.w) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {sum(self.w)!r}, not 1")
        for j, wj in enumerate(self.w):
            if wj <= 0.0:
                raise ValueError(f"weight {j} is not positive")
            if j + 1 < len(self.w) and not wj > self.w[j + 1]:
                raise ValueError("weights must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.w)

    def min_gap(self) -> float:
        return min(self.w[i] - self.w[i + 1] for i in range(len(self.w) - 1)) \
            if len(self.w) > 1 else self.w[0]


def default_weights(k: int) -> WeightVector:
    """(K, K-1, ..., 1) normalized to 1."""
    if k < 1:
        raise ValueError("K must be at least 1")
    total = k * (k + 1) / 2
    return WeightVector(tuple((k - j) / total for j in range(k)))


@dataclass(frozen=True)
class ReferenceSet:
    """K distinct determinants with common particle number and S_z."""

    determinants: Tuple[str, ...]

    def __post_init__(self):
        dets = self.determinants
        if not dets:
            raise ValueError("reference set is empty")
        n = len(dets[0])
        if any(len(d) != n or set(d) - {"0", "1"} for d in dets):
            raise ValueError("determinants must be equal-length bitstrings")
        if len(set(dets)) != len(dets):
            raise ValueError("determinants must be pairwise distinct")
        counts = {sum(int(b) for b in d) for d in dets}
        if len(counts) != 1:
            raise ValueError("determinants must share a particle number")
        szs = {sum(int(b) for b in d[0::2]) - sum(int(b) for b in d[1::2])
               for d in dets}
        if len(szs) != 1:
            raise ValueError("determinants must share an S_z value")

    @property
    def n_qubits(self) -> int:
        return len(self.determinants[0])

    @property
    def k(self) -> int:
        return len(self.determinants)

    @property
    def n_particles(self) -> int:
        return sum(int(b) for b in self.determinants[0])

    @property
    def sz(self) -> float:
        d = self.determinants[0]
        return 0.5 * (sum(int(b) for b in d[0::2]) - sum(int(b) for b in d[1::2]))


def select_reference_determinants(h: PauliSum, n_particles: int, sz: float,
                                  k: int) -> ReferenceSet:
    """K sector determinants with the smallest diagonal <D|H|D>.

    The diagonal is ``matrix_diagonal(h, basis)``, which sums only the
    Hamiltonian's X/Y-free strings and builds no sector matrix.  Ties
    break lexicographically on the bitstring, so the choice is fully
    deterministic.
    """
    indices = sector_indices(h.n_qubits, n_particles, sz)
    if k > len(indices):
        raise ValueError(f"K={k} exceeds sector dimension {len(indices)}")
    diagonal = matrix_diagonal(h, indices).real.tolist()
    keyed = sorted(
        (energy, "".join(str(b) for b in bit_list(i, h.n_qubits)))
        for energy, i in zip(diagonal, indices))
    return ReferenceSet(tuple(bits for _, bits in keyed[:k]))


def n_ancilla_for(k: int) -> int:
    return max(1, math.ceil(math.log2(k))) if k > 1 else 0


def compressed_cascade(weights: WeightVector) -> Tuple[List[float], List[GateOp]]:
    """Binary RY cascade preparing sum_j sqrt(w_j)|binary(j)> on c qubits.

    Ancilla qubit 0 is the label's most significant bit.  Each tree node
    splits its probability mass between the 0 and 1 subtrees; missing
    labels (K < 2^c) carry exact zeros, and zero-angle nodes emit no gate,
    which keeps the gate count at K-1 for K a power of two.
    """
    k = len(weights)
    c = n_ancilla_for(k)
    padded = list(weights.w) + [0.0] * ((1 << c) - k)
    angles: List[float] = []
    gates: List[GateOp] = []
    for level in range(c):
        for prefix in range(1 << level):
            lo = prefix << (c - level)
            width = 1 << (c - level)
            mass = sum(padded[lo:lo + width])
            if mass <= 0.0:
                continue
            upper = sum(padded[lo + width // 2: lo + width])
            ratio = min(1.0, max(0.0, upper / mass))
            angle = 2.0 * math.asin(math.sqrt(ratio))
            if angle == 0.0:
                continue
            angles.append(angle)
            if level == 0:
                gates.append(gate_ry(level, angle))
            else:
                controls = tuple(
                    (bit, (prefix >> (level - 1 - bit)) & 1)
                    for bit in range(level))
                gates.append(gate_controlled_ry(controls, level, angle))
    return angles, gates


def isometry_network(refs: ReferenceSet,
                     labels: Optional[Sequence[int]] = None,
                     n_ancilla: Optional[int] = None) -> List[GateOp]:
    """Bit-flip network mapping |0..0>_q |l_j>_a to |D_j>_q |l_j>_a.

    Working qubits are 0..N-1, the compressed/ancilla register sits on
    N..N+c-1 with ancilla 0 as the label MSB.  Bits shared by every
    determinant get one unconditional X; a bit that mirrors (or
    anti-mirrors) a single label bit costs one CNOT (plus an X); anything
    else falls back to one pattern-controlled X per determinant.
    Correctness is extensional and asserted by prepare_purified.
    """
    k = refs.k
    n = refs.n_qubits
    c = n_ancilla_for(k) if n_ancilla is None else n_ancilla
    if labels is None:
        labels = list(range(k))
    if len(set(labels)) != k or any(not 0 <= l < (1 << max(c, 1)) for l in labels):
        raise ValueError("labels must be distinct c-bit values")
    if k > (1 << c) and k > 1:
        raise ValueError(f"K={k} does not fit on {c} ancillas")
    label_bits = [[(l >> (c - 1 - a)) & 1 for a in range(c)] for l in labels]

    gates: List[GateOp] = []
    for bit in range(n):
        values = [int(refs.determinants[j][bit]) for j in range(k)]
        if all(v == 0 for v in values):
            continue
        if all(v == 1 for v in values):
            gates.append(gate_x(bit))
            continue
        mirror = next((a for a in range(c)
                       if all(values[j] == label_bits[j][a] for j in range(k))),
                      None)
        if mirror is not None:
            gates.append(gate_cnot(n + mirror, bit))
            continue
        anti = next((a for a in range(c)
                     if all(values[j] == 1 - label_bits[j][a] for j in range(k))),
                    None)
        if anti is not None:
            gates.append(gate_x(bit))
            gates.append(gate_cnot(n + anti, bit))
            continue
        for j in range(k):
            if values[j]:
                controls = tuple((n + a, label_bits[j][a]) for a in range(c))
                gates.append(gate_controlled_x(controls, bit))
    return gates


@dataclass(frozen=True)
class PurifiedPrep:
    """Weights, references, and the gate program that prepares them."""

    weights: WeightVector
    refs: ReferenceSet
    n_ancilla: int
    program: Tuple[GateOp, ...]

    @property
    def n_qubits(self) -> int:
        return self.refs.n_qubits + self.n_ancilla

    def mapped_indices(self) -> List[int]:
        """Full-register basis index of |D_j>|l_j> for each j."""
        c = self.n_ancilla
        out = []
        for j, det in enumerate(self.refs.determinants):
            out.append((int(det, 2) << c) + j)
        return out

    def prepare(self) -> StateVector:
        state = StateVector(self.n_qubits)
        return run_program(state, self.program)


def build_purified_prep(weights: WeightVector, refs: ReferenceSet) -> PurifiedPrep:
    if len(weights) != refs.k:
        raise ValueError("weights and references disagree on K")
    c = n_ancilla_for(refs.k)
    _, cascade = compressed_cascade(weights)
    shifted = [
        GateOp(g.kind,
               targets=tuple(q + refs.n_qubits for q in g.targets),
               controls=tuple((q + refs.n_qubits, v) for q, v in g.controls),
               angle=g.angle)
        for g in cascade
    ]
    network = isometry_network(refs, n_ancilla=c)
    return PurifiedPrep(weights, refs, c, tuple(shifted + network))


def prepare_purified(weights: WeightVector, refs: ReferenceSet) -> StateVector:
    """Run cascade + network on |0..0> and assert the amplitude invariant."""
    prep = build_purified_prep(weights, refs)
    state = prep.prepare()
    expected = np.zeros(1 << prep.n_qubits, dtype=complex)
    for j, index in enumerate(prep.mapped_indices()):
        expected[index] = math.sqrt(weights.w[j])
    if np.max(np.abs(state.amplitudes - expected)) > PREP_AMPLITUDE_TOL:
        raise AssertionError("purified preparation amplitude check failed")
    return state

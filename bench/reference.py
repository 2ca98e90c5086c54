"""Independent references for the benchmark's output checks.

Everything here is built from the ``.ham`` text with numpy and bit
arithmetic alone; nothing imports ``qpvqe``.  Conventions follow the file
format: qubit 0 is the most significant bit of a basis index, and spin
orbitals interleave (even qubits alpha, odd qubits beta).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

_RHF = re.compile(r"RHF total\s+(-?[0-9.]+)\s+Ha")


@dataclass(frozen=True)
class Hamiltonian:
    """Collected terms (coefficient, x mask, z mask, number of Y letters)."""

    n_qubits: int
    terms: Tuple[Tuple[float, int, int, int], ...]
    rhf_energy: float | None

    def identity_coefficient(self) -> float:
        """Tr(H)/2^n: only the identity word has a nonzero trace."""
        return sum(c for c, x, z, _ in self.terms if x == 0 and z == 0)


def parse(text: str) -> Hamiltonian:
    """Parse ``qubits <n>`` plus ``<coeff> <word>`` lines; words collect."""
    n_qubits = None
    collected = {}
    rhf = None
    for raw in text.splitlines():
        line, _, comment = raw.partition("#")
        match = _RHF.search(comment)
        if match:
            rhf = float(match.group(1))
        line = line.strip()
        if not line:
            continue
        if n_qubits is None:
            head, count = line.split()
            if head != "qubits":
                raise ValueError(f"expected 'qubits <n>', got {raw!r}")
            n_qubits = int(count)
            continue
        coeff, _, word = line.partition(" ")
        x = z = n_y = 0
        for factor in word.split():
            if factor == "I":
                continue
            letter, qubit = factor[0], int(factor[1:])
            bit = 1 << (n_qubits - 1 - qubit)
            if letter in "XY":
                x |= bit
            if letter in "ZY":
                z |= bit
            n_y += letter == "Y"
        key = (x, z, n_y)
        collected[key] = collected.get(key, 0.0) + float(coeff)
    if n_qubits is None:
        raise ValueError("no 'qubits <n>' header")
    return Hamiltonian(n_qubits, tuple((c, x, z, y) for (x, z, y), c
                                       in collected.items()), rhf)


def load(path: str) -> Hamiltonian:
    with open(path) as fh:
        return parse(fh.read())


def _popcount_parity(values: np.ndarray) -> np.ndarray:
    parity = np.zeros_like(values)
    while np.any(values):
        parity ^= values & 1
        values = values >> 1
    return parity


def _term_action(x: int, z: int, n_y: int, basis: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """P|b> = i^{#Y} (-1)^{popcount(b & z)} |b ^ x> for every b in basis.

    Y = i X Z, so a Y letter contributes both its flip and its sign.
    """
    sign = 1.0 - 2.0 * _popcount_parity(basis & z)
    return basis ^ x, (1j ** n_y) * sign


def dense_matrix(h: Hamiltonian) -> np.ndarray:
    """Full 2^n x 2^n matrix, column b holding H|b>."""
    dim = 1 << h.n_qubits
    basis = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, x, z, n_y in h.terms:
        target, phase = _term_action(x, z, n_y, basis)
        out[target, basis] += coeff * phase
    return out


def occupations(index: int, n_qubits: int) -> Tuple[int, float]:
    """(particle number, S_z) of a basis state."""
    bits = [(index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
    return sum(bits), 0.5 * (sum(bits[0::2]) - sum(bits[1::2]))


def sector_basis(n_qubits: int, n_particles: int, sz: float) -> List[int]:
    return [b for b in range(1 << n_qubits)
            if occupations(b, n_qubits) == (n_particles, sz)]


def sector_ed(h: Hamiltonian, n_particles: int, sz: float) -> np.ndarray:
    """Ascending eigenvalues of H restricted to one (N, S_z) sector."""
    basis = np.array(sector_basis(h.n_qubits, n_particles, sz))
    row = {int(b): i for i, b in enumerate(basis)}
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for coeff, x, z, n_y in h.terms:
        target, phase = _term_action(x, z, n_y, basis)
        for col, (t, p) in enumerate(zip(target, phase)):
            if int(t) in row:
                matrix[row[int(t)], col] += coeff * p
    return np.linalg.eigvalsh(matrix)


def number_and_sz(amplitudes: np.ndarray) -> Tuple[float, float]:
    """<N> and <S_z> of a working-register state, counted from |a_b|^2."""
    n_qubits = int(amplitudes.size).bit_length() - 1
    probs = np.abs(amplitudes) ** 2
    n_mean = sz_mean = 0.0
    for b, p in enumerate(probs):
        n, sz = occupations(b, n_qubits)
        n_mean += p * n
        sz_mean += p * sz
    return float(n_mean), float(sz_mean)

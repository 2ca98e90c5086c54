"""File formats, the exact-diagonalization oracle, and sector tooling.

Hamiltonian grammar: the first non-comment line is ``qubits <n>``; every
following term line is ``<float> <word>`` where the word is
whitespace-separated factors like ``X0 Z3 Y5`` or the literal ``I``.
``#`` starts a comment, blank lines are ignored, duplicate words collect.
Serialization uses ``%.17g`` so a parse/serialize round trip is exact.

The ED oracle diagonalizes ``pauli.to_matrix``: the full matrix, or the
block on a (N, S_z) sector's basis states, both scattered from the
Hamiltonian's compiled string plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .pauli import (PauliString, PauliSum, check_dense_bytes, paulisum_action,
                    to_matrix)

DEGENERACY_TOL = 1e-6


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian file."""


def parse_hamiltonian(text: str) -> PauliSum:
    """Parse the Hamiltonian grammar into a Hermitian PauliSum."""
    n_qubits = None
    terms: Dict[PauliString, complex] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_qubits is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "qubits" or not parts[1].isdigit():
                raise HamiltonianFormatError(
                    f"line {lineno}: expected 'qubits <n>', got {raw!r}")
            n_qubits = int(parts[1])
            if n_qubits < 1:
                raise HamiltonianFormatError(f"line {lineno}: qubits must be >= 1")
            continue
        coeff_text, _, word = line.partition(" ")
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(
                f"line {lineno}: bad coefficient {coeff_text!r}") from None
        try:
            string = PauliString.from_word(n_qubits, word)
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        terms[string] = terms.get(string, 0.0) + coeff
    if n_qubits is None:
        raise HamiltonianFormatError("no 'qubits <n>' header found")
    h = PauliSum(n_qubits, terms)
    if not h.is_hermitian():
        raise HamiltonianFormatError("imaginary residue after collection")
    return h


def load_hamiltonian(path: str) -> PauliSum:
    with open(path) as fh:
        return parse_hamiltonian(fh.read())


def serialize_hamiltonian(h: PauliSum) -> str:
    lines = [f"qubits {h.n_qubits}"]
    for string, coeff in h.sorted_terms():
        lines.append(f"{coeff.real:.17g} {string.word()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Symmetry sectors under the interleaved spin-orbital map.
# ---------------------------------------------------------------------------

def bit_list(index: int, n_qubits: int) -> Tuple[int, ...]:
    return tuple((index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits))


def particle_number(index: int, n_qubits: int) -> int:
    return bin(index).count("1")


def sz_value(index: int, n_qubits: int) -> float:
    bits = bit_list(index, n_qubits)
    return 0.5 * (sum(bits[0::2]) - sum(bits[1::2]))


def sector_indices(n_qubits: int, n_particles: int, sz: float) -> List[int]:
    return [i for i in range(1 << n_qubits)
            if particle_number(i, n_qubits) == n_particles
            and abs(sz_value(i, n_qubits) - sz) < 1e-9]


@dataclass
class EDReference:
    """Lowest-K exact eigenpairs, optionally sector-restricted."""

    sector: Optional[Tuple[int, float]]
    energies: np.ndarray          # ascending, Hartree
    vectors: np.ndarray           # columns, embedded in the full 2^n space
    n_qubits: int

    def subspace_fidelity(self, amplitudes: np.ndarray, j: int,
                          degeneracy_tol: float = DEGENERACY_TOL) -> float:
        """Overlap with the degenerate subspace around eigenvalue j.

        Eigenvector choice inside a degenerate block is gauge, so the check
        projects onto every eigenvector within ``degeneracy_tol`` of E_j.
        """
        e_j = self.energies[j]
        block = [k for k, e in enumerate(self.energies)
                 if abs(e - e_j) <= degeneracy_tol]
        return float(sum(abs(np.vdot(self.vectors[:, k], amplitudes)) ** 2
                         for k in block))


def exact_diagonalize(h: PauliSum, sector: Optional[Tuple[int, float]] = None,
                      k: Optional[int] = None) -> EDReference:
    """Dense Hermitian eigensolve, restricted to a (N, S_z) sector if given.

    Every dense array it builds is checked against ``DENSE_BYTES_GUARD``
    before allocation: the full or sector matrix (inside ``to_matrix``),
    and a sector's eigenvectors embedded in the full register.
    """
    dim = 1 << h.n_qubits
    basis = None
    if sector is not None:
        check_dense_bytes(dim, 1)  # before scanning all 2^n basis states
        n_particles, sz = sector
        basis = sector_indices(h.n_qubits, n_particles, sz)
        if not basis:
            raise ValueError(f"empty sector {sector}")
        check_dense_bytes(dim, len(basis) if k is None else k)
    energies, vectors = np.linalg.eigh(to_matrix(h, basis))
    if k is not None:
        if k > len(energies):
            raise ValueError(f"k={k} exceeds sector dimension {len(energies)}")
        energies, vectors = energies[:k], vectors[:, :k]
    if basis is not None:
        embedded = np.zeros((dim, vectors.shape[1]), dtype=complex)
        embedded[basis] = vectors
        vectors = embedded
    return EDReference(sector, np.real(energies), vectors, h.n_qubits)


def ed_residuals(h: PauliSum, ref: EDReference) -> np.ndarray:
    """||H v_j - E_j v_j||_2 for every returned pair."""
    out = []
    for j in range(len(ref.energies)):
        v = ref.vectors[:, j]
        out.append(np.linalg.norm(paulisum_action(h, h.n_qubits, v)
                                  - ref.energies[j] * v))
    return np.array(out)


# ---------------------------------------------------------------------------
# Sweep manifests and result records.
# ---------------------------------------------------------------------------

@dataclass
class SweepManifest:
    """Ordered sweep points sharing one run configuration."""

    points: List[Tuple[str, str]]           # (label, hamiltonian path)
    options: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.points:
            raise ValueError("manifest has no points")
        labels = [label for label, _ in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("manifest labels must be unique")


def parse_manifest(text: str, base_dir: str = ".") -> SweepManifest:
    """Grammar: ``key: value`` option lines plus ``point: <label> <path>``."""
    import os
    points: List[Tuple[str, str]] = []
    options: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"manifest line {lineno}: expected 'key: value'")
        key, value = key.strip(), value.strip()
        if key == "point":
            parts = value.split()
            if len(parts) != 2:
                raise ValueError(
                    f"manifest line {lineno}: point needs '<label> <path>'")
            points.append((parts[0], os.path.join(base_dir, parts[1])))
        else:
            options[key] = value
    return SweepManifest(points, options)


def load_manifest(path: str) -> SweepManifest:
    import os
    with open(path) as fh:
        return parse_manifest(fh.read(), base_dir=os.path.dirname(path) or ".")


RECORD_FORMAT_VERSION = 1


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_record(fields: Sequence[Tuple[str, str]]) -> str:
    """Versioned 'key: value' record; keys repeat for list-like entries."""
    lines = [f"format: {RECORD_FORMAT_VERSION}"]
    for key, value in fields:
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> List[Tuple[str, str]]:
    fields: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"record line {lineno}: expected 'key: value'")
        fields.append((key.strip(), value.strip()))
    if not fields or fields[0] != ("format", str(RECORD_FORMAT_VERSION)):
        raise ValueError("record missing 'format: 1' header")
    return fields[1:]


def record_get(fields: Sequence[Tuple[str, str]], key: str,
               default: Optional[str] = None) -> Optional[str]:
    for k, v in fields:
        if k == key:
            return v
    return default


def record_get_all(fields: Sequence[Tuple[str, str]], key: str) -> List[str]:
    return [v for k, v in fields if k == key]

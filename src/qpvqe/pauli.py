"""Algebra of n-qubit Pauli strings and real-weighted sums.

A ``PauliString`` stores only its non-identity letters, keyed by qubit
index; ``PauliSum`` is a simplified map string -> coefficient.  Qubit 0 is
the most significant bit of the computational-basis index throughout, so
the bitstring |1100> denotes qubits 0 and 1 occupied (basis index 12 on
four qubits).

Phases arising from string products are tracked exactly as powers of i
(a 2-bit counter), never as floating point.

A string maps |j> to a phase times |j ^ m>, m its X/Y bit mask.  The
``StringPlan`` compiled from it once per register size, and kept on the
owning ``PauliSum`` (``plans``) or ansatz circuit, is the only place any
module reads that action.  Its flip, sign tensor, scalar and mask serve
four readers: P|psi> and exp(-i phi/2 P)|psi> on amplitude tensors, the
dense and sector matrices of ``to_matrix`` (the ED oracle and the
reference diagonal <D|H|D>), and Tr(P rho) on density matrices.  Plans
are bit-identical to the uncompiled string route; the comment above
``StringPlan`` says why that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

COEFF_PRUNE_TOL = 1e-12
HERMITIAN_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10
NORM_TOL = 1e-9
# Largest dense complex matrix to_matrix and the ED oracle will build:
# 256 MiB, a full matrix up to 12 qubits.
DENSE_BYTES_GUARD = 1 << 28

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# (a, b) -> (power of i, product letter); identity results map to "".
_PRODUCT_TABLE = {
    ("X", "X"): (0, ""),
    ("Y", "Y"): (0, ""),
    ("Z", "Z"): (0, ""),
    ("X", "Y"): (1, "Z"),
    ("Y", "Z"): (1, "X"),
    ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"),
    ("Z", "Y"): (3, "X"),
    ("X", "Z"): (3, "Y"),
}


class DimensionMismatch(ValueError):
    """Operands act on different qubit counts."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, identity on unlisted qubits.

    ``items`` is the canonical (qubit, letter) listing, sorted by qubit.
    The all-identity string is the unique empty tuple.
    """

    n_qubits: int
    items: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        seen = -1
        for qubit, letter in self.items:
            if letter not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli letter {letter!r}")
            if not 0 <= qubit < self.n_qubits:
                raise ValueError(f"qubit {qubit} out of range for n={self.n_qubits}")
            if qubit <= seen:
                raise ValueError("items must be strictly ascending by qubit")
            seen = qubit

    @classmethod
    def from_map(cls, n_qubits: int, letters: Mapping[int, str]) -> "PauliString":
        return cls(n_qubits, tuple(sorted(letters.items())))

    @classmethod
    def from_word(cls, n_qubits: int, word: str) -> "PauliString":
        """Parse words like "X0 Z3 Y5"; the literal "I" is the identity."""
        word = word.strip()
        if word == "I" or word == "":
            return cls(n_qubits, ())
        letters: Dict[int, str] = {}
        for factor in word.split():
            letter, index = factor[0].upper(), factor[1:]
            if letter not in ("X", "Y", "Z") or not index.isdigit():
                raise ValueError(f"bad Pauli factor {factor!r}")
            qubit = int(index)
            if qubit in letters:
                raise ValueError(f"duplicate qubit {qubit} in word {word!r}")
            letters[qubit] = letter
        return cls.from_map(n_qubits, letters)

    @property
    def is_identity(self) -> bool:
        return not self.items

    @property
    def weight(self) -> int:
        return len(self.items)

    def support(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.items)

    def word(self) -> str:
        if not self.items:
            return "I"
        return " ".join(f"{letter}{qubit}" for qubit, letter in self.items)

    def embed(self, n_qubits: int) -> "PauliString":
        """Same letters on a register of ``n_qubits`` >= current size."""
        if n_qubits < self.n_qubits:
            raise DimensionMismatch("cannot shrink a Pauli string")
        return PauliString(n_qubits, self.items)

    def __str__(self) -> str:
        return self.word()


def multiply(a: PauliString, b: PauliString) -> Tuple[complex, PauliString]:
    """Product a*b as (phase, string) with phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(
            f"string sizes differ: {a.n_qubits} vs {b.n_qubits}")
    ipow = 0
    out = []
    ia, ib = 0, 0
    items_a, items_b = a.items, b.items
    while ia < len(items_a) or ib < len(items_b):
        if ib >= len(items_b) or (ia < len(items_a) and items_a[ia][0] < items_b[ib][0]):
            out.append(items_a[ia])
            ia += 1
        elif ia >= len(items_a) or items_b[ib][0] < items_a[ia][0]:
            out.append(items_b[ib])
            ib += 1
        else:
            qubit = items_a[ia][0]
            power, letter = _PRODUCT_TABLE[(items_a[ia][1], items_b[ib][1])]
            ipow = (ipow + power) & 3
            if letter:
                out.append((qubit, letter))
            ia += 1
            ib += 1
    return _I_POWERS[ipow], PauliString(a.n_qubits, tuple(out))


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string."""

    coefficient: complex
    string: PauliString

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")


class PauliSum:
    """Simplified weighted sum of Pauli strings on a fixed register.

    Instances are immutable after construction; zero terms (below
    ``COEFF_PRUNE_TOL``) are dropped during simplification.
    """

    __slots__ = ("n_qubits", "_terms", "_plans")

    def __init__(self, n_qubits: int,
                 terms: Mapping[PauliString, complex] | None = None):
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        collected: Dict[PauliString, complex] = {}
        if terms:
            for string, coeff in terms.items():
                if string.n_qubits != n_qubits:
                    raise DimensionMismatch("term register size mismatch")
                if not np.isfinite(coeff):
                    raise ValueError("coefficient must be finite")
                c = collected.get(string, 0.0) + complex(coeff)
                if abs(c) <= COEFF_PRUNE_TOL:
                    collected.pop(string, None)
                else:
                    collected[string] = c
        self._terms = collected
        # (coefficient, StringPlan) pairs in term order, per register
        # size, built on first use by ``plans``.
        self._plans: Dict[int, Tuple[Tuple[complex, "StringPlan"], ...]] = {}

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[Tuple[complex, PauliString]]) -> "PauliSum":
        acc: Dict[PauliString, complex] = {}
        for coeff, string in terms:
            acc[string] = acc.get(string, 0.0) + complex(coeff)
        return cls(n_qubits, acc)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {PauliString(n_qubits): coeff})

    def terms(self) -> Dict[PauliString, complex]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def plans(self, n_qubits: int) -> Tuple[Tuple[complex, "StringPlan"], ...]:
        """The terms compiled for a ``n_qubits`` register, in term order."""
        compiled = self._plans.get(n_qubits)
        if compiled is None:
            compiled = tuple((coeff, StringPlan(string, n_qubits))
                             for string, coeff in self._terms.items())
            self._plans[n_qubits] = compiled
        return compiled

    def coefficient(self, string: PauliString) -> complex:
        return self._terms.get(string, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return add_simplify(self, other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return add_simplify(self, other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if other.n_qubits != self.n_qubits:
                raise DimensionMismatch("sum register size mismatch")
            acc: Dict[PauliString, complex] = {}
            for sa, ca in self._terms.items():
                for sb, cb in other._terms.items():
                    phase, prod = multiply(sa, sb)
                    acc[prod] = acc.get(prod, 0.0) + ca * cb * phase
            return PauliSum(self.n_qubits, acc)
        return PauliSum(self.n_qubits,
                        {s: c * other for s, c in self._terms.items()})

    def __rmul__(self, scalar) -> "PauliSum":
        return self * scalar

    def adjoint(self) -> "PauliSum":
        return PauliSum(self.n_qubits,
                        {s: np.conj(c) for s, c in self._terms.items()})

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def is_anti_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return all(abs(c.real) <= tol for c in self._terms.values())

    def embed(self, n_qubits: int) -> "PauliSum":
        return PauliSum(n_qubits,
                        {s.embed(n_qubits): c for s, c in self._terms.items()})

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: kv[0].items)

    def __repr__(self) -> str:
        parts = [f"({c:+.6g})*{s}" for s, c in self.sorted_terms()]
        return f"PauliSum({self.n_qubits}: {' '.join(parts) or '0'})"


def add_simplify(a: PauliSum, b: PauliSum) -> PauliSum:
    """Term-wise sum with like-string collection; zero terms dropped."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(
            f"sum sizes differ: {a.n_qubits} vs {b.n_qubits}")
    acc = a.terms()
    for string, coeff in b.items():
        acc[string] = acc.get(string, 0.0) + coeff
    return PauliSum(a.n_qubits, acc)


# ---------------------------------------------------------------------------
# Action on dense amplitude arrays.
#
# A Pauli string maps every basis state to exactly one basis state:
# P|j (+) m> picks up (-i)^{#Y} * prod_{q in Y u Z} (-1)^{j_q}, where m is
# the X/Y bit mask.  Flipping a size-2 tensor axis is a numpy view, so one
# string application costs two elementwise passes over 2^n amplitudes.
#
# Each string is compiled once per register size into a StringPlan: the
# slice tuple np.flip would build, the cached +-1 sign tensor, the scalar
# (-i)^{#Y} and the integer mask m (qubit 0 is its most significant bit),
# so that P|j> = scalar * sign[j ^ m] * |j ^ m>.  Plans live on the objects
# they derive from (``PauliSum.plans``, ``AnsatzCircuit.plans``), never in
# a module cache keyed by object identity.  A plan runs exactly the
# elementwise operations of the uncompiled route, in the same order and on
# the same dtypes, so its results are bit-identical to it (up to the sign
# of an exact zero).  That contract matters: in symmetry-forbidden
# directions the gradient is pure roundoff, Adam turns it into ~1e-10
# steps, and any change of roundoff moves a stored run's theta record.
# ---------------------------------------------------------------------------

_SIGN_CACHE: Dict[Tuple[int, Tuple[int, ...]], np.ndarray] = {}


def _sign_vector(n_qubits: int, axes: Tuple[int, ...]) -> np.ndarray:
    """int8 tensor of prod_{q in axes} (-1)^{j_q}; +-1 is exact in any dtype."""
    key = (n_qubits, axes)
    vec = _SIGN_CACHE.get(key)
    if vec is None:
        vec = np.ones((2,) * n_qubits, dtype=np.int8)
        for q in axes:
            vec[(slice(None),) * q + (slice(1, 2),)] *= -1
        _SIGN_CACHE[key] = vec
    return vec


def _string_axes(string: PauliString) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    xy = tuple(q for q, letter in string.items if letter in ("X", "Y"))
    zy = tuple(q for q, letter in string.items if letter in ("Z", "Y"))
    n_y = sum(1 for _, letter in string.items if letter == "Y")
    return xy, zy, n_y


_KEEP = slice(None)
_REVERSE = slice(None, None, -1)


class StringPlan:
    """One Pauli string compiled for a register of ``n_qubits``.

    Both methods take a (2,)*n tensor, or a stack of them with extra
    leading axes, and return a fresh C-contiguous array of the same shape.
    Qubits beyond the string's own register act as identity.  ``mask`` is
    the X/Y bit mask on the n-qubit register, qubit 0 most significant.
    """

    __slots__ = ("flip", "signs", "scalar", "mask")

    def __init__(self, string: PauliString, n_qubits: int):
        if string.n_qubits > n_qubits:
            raise DimensionMismatch("string larger than state register")
        xy, zy, n_y = _string_axes(string)
        # np.flip(tensor, xy) is tensor[flip]; the leading Ellipsis lets the
        # same tuple address the last n axes of a stacked array.
        self.flip = ((Ellipsis,) + tuple(_REVERSE if q in xy else _KEEP
                                         for q in range(n_qubits))
                     if xy else None)
        self.signs = _sign_vector(n_qubits, zy) if zy else None
        self.scalar = _I_POWERS[(-n_y) & 3]  # (-i)^{#Y}
        self.mask = sum(1 << (n_qubits - 1 - q) for q in xy)

    def act(self, tensor: np.ndarray) -> np.ndarray:
        """P|psi>."""
        flipped = tensor[self.flip] if self.flip is not None else tensor
        scalar = self.scalar
        if self.signs is not None:
            out = self.signs * flipped
            if scalar != 1.0:
                out = out * scalar
            return out
        return flipped * scalar if scalar != 1.0 else flipped.copy()

    def rotate(self, tensor: np.ndarray, angle: float) -> np.ndarray:
        """exp(-i angle/2 * P)|psi> = cos(angle/2)|psi> - i sin(angle/2) P|psi>."""
        flipped = tensor[self.flip] if self.flip is not None else tensor
        c = math.cos(angle / 2.0)
        k = -1j * math.sin(angle / 2.0) * self.scalar
        if self.signs is not None:
            return c * tensor + k * (self.signs * flipped)
        return c * tensor + k * flipped


def pauli_action(string: PauliString, n_qubits: int,
                 amps: np.ndarray) -> np.ndarray:
    """Return P|psi> for flat amplitudes of a 2^n state.

    The string may address fewer qubits than the state; unlisted qubits act
    as identity (this realizes H (x) 1 on purified registers).
    """
    plan = StringPlan(string, n_qubits)
    return plan.act(amps.reshape((2,) * n_qubits)).reshape(-1)


def paulisum_action(h: PauliSum, n_qubits: int, amps: np.ndarray) -> np.ndarray:
    """Return H|psi> as a fresh flat array."""
    tensor = amps.reshape((2,) * n_qubits)
    out = np.zeros_like(tensor)
    for coeff, plan in h.plans(n_qubits):
        out += coeff * plan.act(tensor)
    return out.reshape(-1)


def expectation(h: PauliSum, psi) -> float:
    """Real expectation <psi| H (x) 1 |psi> in the units of H.

    ``psi`` needs ``n_qubits`` and flat ``amplitudes``; H acts on the
    lowest-indexed qubits, identity on the rest.  Raises if H is not
    Hermitian, psi is not normalized, or the imaginary residue exceeds
    tolerance.
    """
    if not h.is_hermitian():
        raise ValueError("expectation requires a Hermitian PauliSum")
    if h.n_qubits > psi.n_qubits:
        raise DimensionMismatch("operator larger than state register")
    amps = psi.amplitudes
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    tensor = amps.reshape((2,) * psi.n_qubits)
    value = 0.0 + 0.0j
    for coeff, plan in h.plans(psi.n_qubits):
        value += coeff * np.vdot(amps, plan.act(tensor))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ValueError(f"imaginary residue {value.imag:.3e} above tolerance")
    return float(value.real)


def check_dense_bytes(rows: int, cols: int) -> None:
    """Raise before a rows x cols complex array above DENSE_BYTES_GUARD."""
    nbytes = rows * cols * np.dtype(complex).itemsize
    if nbytes > DENSE_BYTES_GUARD:
        raise ValueError(f"dense {rows}x{cols} complex array needs {nbytes} "
                         f"bytes > guard {DENSE_BYTES_GUARD}")


def to_matrix(h: PauliSum, basis: Optional[Sequence[int]] = None
              ) -> np.ndarray:
    """Dense matrix of H with qubit 0 as the most significant bit.

    With ``basis``, a sequence of distinct basis indices, only the block
    H[basis, basis] is built (the ED oracle's sector matrix).  Each term
    scatters coeff * scalar * sign[b ^ m] into column b, row b ^ m, in term
    order, so every entry is summed exactly as a Kronecker construction
    would sum it.
    """
    dim = 1 << h.n_qubits
    size = dim if basis is None else len(basis)
    check_dense_bytes(size, size)
    basis = (np.arange(dim) if basis is None
             else np.asarray(basis, dtype=np.intp))
    position = np.full(dim, -1, dtype=np.intp)
    position[basis] = np.arange(size)
    out = np.zeros((size, size), dtype=complex)
    for coeff, plan in h.plans(h.n_qubits):
        targets = basis ^ plan.mask
        rows = position[targets]
        hit = rows >= 0
        targets = targets[hit]
        phase = (plan.scalar if plan.signs is None
                 else plan.scalar * plan.signs.reshape(-1)[targets])
        out[rows[hit], np.flatnonzero(hit)] += coeff * phase
    return out

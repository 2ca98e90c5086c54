"""Algebra of n-qubit Pauli strings and real-weighted sums.

A ``PauliString`` is its symplectic (x|z) form: two integer bit masks on
its own register, with letters only at the parse and print boundary.
``PauliSum`` is a simplified map string -> coefficient.  Qubit 0 is the
most significant bit of the computational-basis index and of the masks
throughout, so the bitstring |1100> denotes qubits 0 and 1 occupied (basis
index 12 on four qubits).

Phases arising from string products are tracked exactly as powers of i
(popcounts of the masks mod 4), never as floating point: ``product_power``,
read by ``multiply`` and by ``fermion``'s Jordan-Wigner on bare masks.

A string maps |j> to a phase times |j ^ x>, x its X/Y bit mask.  The
``StringPlan`` compiled from it once per register size, and kept on the
owning ``PauliSum`` (``plans``) or ansatz circuit, is the only place any
module reads that action.  Its flip, sign tensor, scalar and mask serve
P|psi> and exp(-i phi/2 P)|psi>, the matrices of ``to_matrix`` (the ED
oracle) and Tr(P rho); the masks' GF(2) span (``gf2_span``) gives the
rows a state can reach.  Its row form, a ``RowPlan`` on ``SectorRows``,
runs the same act and rotate on the amplitudes of a set of rows that the
string maps onto itself (the rows of ``ansatz.SymmetryScreen``).  Plans are
bit-identical to the uncompiled string route; the comment above
``StringPlan`` says why that matters.
"""

from __future__ import annotations

import functools
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

# letter -> (x bit, z bit), and back by index x | z << 1 ("" is identity)
_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTERS = ("", "X", "Z", "Y")


class DimensionMismatch(ValueError):
    """Operands act on different qubit counts."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis as its (x|z) bit masks.

    Bit n-1-q of ``x`` and ``z`` holds qubit q's letter: X is (1, 0),
    Z is (0, 1), Y is (1, 1) and identity (0, 0), so qubit 0 is the most
    significant bit (Aaronson & Gottesman, quant-ph/0406196).  The
    all-identity string is x = z = 0.  Letters are read in by ``from_map``
    and ``from_word`` and written out by ``items``, ``word`` and
    ``support``.
    """

    n_qubits: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        if (self.x | self.z) >> self.n_qubits:
            raise ValueError(f"masks ({self.x}, {self.z}) out of range for "
                             f"n={self.n_qubits}")

    @classmethod
    def from_map(cls, n_qubits: int, letters: Mapping[int, str]) -> "PauliString":
        x = z = 0
        for qubit, letter in letters.items():
            if letter not in _LETTER_BITS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            if not 0 <= qubit < n_qubits:
                raise ValueError(f"qubit {qubit} out of range for n={n_qubits}")
            bit_x, bit_z = _LETTER_BITS[letter]
            x |= bit_x << (n_qubits - 1 - qubit)
            z |= bit_z << (n_qubits - 1 - qubit)
        return cls(n_qubits, x, z)

    @classmethod
    def from_word(cls, n_qubits: int, word: str) -> "PauliString":
        """Parse words like "X0 Z3 Y5"; the literal "I" is the identity."""
        word = word.strip()
        if word == "I" or word == "":
            return cls(n_qubits)
        letters: Dict[int, str] = {}
        for factor in word.split():
            letter, index = factor[0].upper(), factor[1:]
            if letter not in _LETTER_BITS or not index.isdigit():
                raise ValueError(f"bad Pauli factor {factor!r}")
            qubit = int(index)
            if qubit in letters:
                raise ValueError(f"duplicate qubit {qubit} in word {word!r}")
            letters[qubit] = letter
        return cls.from_map(n_qubits, letters)

    @property
    def items(self) -> Tuple[Tuple[int, str], ...]:
        """The (qubit, letter) listing of the non-identity qubits, by qubit."""
        out = []
        for qubit in range(self.n_qubits):
            shift = self.n_qubits - 1 - qubit
            letter = _LETTERS[(self.x >> shift & 1) | (self.z >> shift & 1) << 1]
            if letter:
                out.append((qubit, letter))
        return tuple(out)

    @property
    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def support(self) -> Tuple[int, ...]:
        mask = self.x | self.z
        return tuple(q for q in range(self.n_qubits)
                     if mask >> (self.n_qubits - 1 - q) & 1)

    def word(self) -> str:
        if self.is_identity:
            return "I"
        return " ".join(f"{letter}{qubit}" for qubit, letter in self.items)

    def __str__(self) -> str:
        return self.word()


def product_power(ax: int, az: int, bx: int, bz: int) -> int:
    """The power of i, mod 4, in the product (ax|az)(bx|bz) of two strings.

    Per qubit a string is i^{xz} X^x Z^z, and Z^z X^x' = (-1)^{zx'} X^x' Z^z,
    so it is #Y(a) + #Y(b) + 2 #(a.z & b.x) - #Y(ab), each # a popcount.
    """
    return ((ax & az).bit_count() + (bx & bz).bit_count()
            + 2 * (az & bx).bit_count()
            - ((ax ^ bx) & (az ^ bz)).bit_count()) & 3


def multiply(a: PauliString, b: PauliString) -> Tuple[complex, PauliString]:
    """Product a*b as (phase, string) with phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch(
            f"string sizes differ: {a.n_qubits} vs {b.n_qubits}")
    return (_I_POWERS[product_power(a.x, a.z, b.x, b.z)],
            PauliString(a.n_qubits, a.x ^ b.x, a.z ^ b.z))


def _listing_key(string: PauliString) -> Tuple[int, int]:
    """Sorts strings as their ``items`` listings sort: one base-4 digit per
    qubit from qubit 0, X 0, Y 1, Z 2, and 3 for an identity with support
    after it.  A trailing identity also reads 0, so the support size breaks
    ties: a listing sorts after its prefixes."""
    x, z = string.x, string.z
    support = x | z
    inner = ((1 << string.n_qubits) - 1 ^ support) & -(support & -support)
    return (int(f"{x & z | inner:b}", 4) + 2 * int(f"{z & ~x | inner:b}", 4),
            support.bit_count())


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

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def is_anti_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return all(abs(c.real) <= tol for c in self._terms.values())

    def sorted_terms(self) -> list:
        """Terms by (qubit, letter) listing: the frozen rotation order of
        ``ansatz.build_uccgsd`` and the line order of serialized files."""
        return sorted(self._terms.items(), key=lambda kv: _listing_key(kv[0]))

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
# P|j (+) x> picks up (-i)^{#Y} * (-1)^{parity(j & z)}, where x and z are
# the string's masks on the register and #Y = popcount(x & z).  Flipping a
# size-2 tensor axis is a numpy view, so one string application costs two
# elementwise passes over 2^n amplitudes.
#
# Each string is compiled once per register size into a StringPlan: the
# slice tuple np.flip would build for the X/Y axes, the +-1 sign tensor
# cached by Z mask, the scalar (-i)^{#Y} and the X mask m = x, so that
# P|j> = scalar * sign[j ^ m] * |j ^ m>.  Plans live on the objects
# they derive from (``PauliSum.plans``, ``AnsatzCircuit.plans``), never in
# a module cache keyed by object identity.  A plan runs exactly the
# elementwise operations of the uncompiled route, in the same order and on
# the same dtypes, so its results are bit-identical to it (up to the sign
# of an exact zero).  That contract matters.  A rotation at theta = 0
# whose mask lies outside the span of the flips that act has an exactly
# zero gradient, and the sweep skips it (``ansatz.symmetry_screen``).
# Other directions can carry a roundoff-only gradient (the 26 |theta| <=
# 1e-8 entries of the stored LiH record), which Adam turns into ~1e-10
# steps: any change of roundoff moves a stored run's theta record.
#
# A RowPlan is the same plan on M sorted rows that the string maps onto
# themselves: its flip gathers the positions of rows ^ m and its signs are
# the int8 signs at the rows, read off the string's Z mask.  act and
# rotate then run the same elementwise operations on the (M,) or (..., M)
# row arrays, so every row holds the bits the full register would.  Only
# elementwise work may move to rows: BLAS sums a vdot by index position,
# so reductions must still run over full-length arrays.
# ---------------------------------------------------------------------------

# Sign tensors are shared by plans with equal (register, Z mask); the bound
# holds all 308 keys of a LiH ``run`` (solve, extraction and ED).
SIGN_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=SIGN_CACHE_SIZE)
def _sign_vector(n_qubits: int, z_mask: int) -> np.ndarray:
    """int8 tensor of (-1)^{parity(j & z_mask)}; +-1 is exact in any dtype."""
    return _parity_signs(np.arange(1 << n_qubits), z_mask).reshape(
        (2,) * n_qubits)


def _parity_signs(values: np.ndarray, z_mask: int) -> np.ndarray:
    """int8 (-1)^{parity(v & z_mask)} of each integer v in ``values``."""
    return (1 - 2 * parities(values, z_mask)).astype(np.int8)


def _register_masks(string: PauliString, n_qubits: int) -> Tuple[int, int]:
    """The string's (x, z) masks on a register of ``n_qubits``, whose first
    qubits are the string's own."""
    if string.n_qubits > n_qubits:
        raise DimensionMismatch("string larger than state register")
    shift = n_qubits - string.n_qubits
    return string.x << shift, string.z << shift


def flip_mask(string: PauliString, n_qubits: int) -> int:
    """The X/Y mask m of a string on a n-qubit register: P|j> ~ |j ^ m>."""
    return _register_masks(string, n_qubits)[0]


def parities(values: np.ndarray, mask: int) -> np.ndarray:
    """parity(v & mask), 0 or 1, of each integer v in ``values``: the
    masked bits folded onto bit 0 by halving shifts."""
    out = values & mask
    shift = 1 << max(mask.bit_length() - 1, 0).bit_length()
    while shift > 1:
        shift >>= 1
        out ^= out >> shift
    return out & 1


_KEEP = slice(None)
_REVERSE = slice(None, None, -1)


class StringPlan:
    """One Pauli string compiled for a register of ``n_qubits``.

    Both methods take a (2,)*n tensor, or a stack of them with extra
    leading axes, and return a fresh C-contiguous array of the same shape.
    Qubits beyond the string's own register act as identity.  ``mask`` is
    the X/Y bit mask on the n-qubit register, qubit 0 most significant.
    """

    __slots__ = ("flip", "signs", "scalar", "mask", "_trace")

    def __init__(self, string: PauliString, n_qubits: int):
        x, z = _register_masks(string, n_qubits)
        # np.flip(tensor, X/Y axes) is tensor[flip]; the leading Ellipsis
        # lets the same tuple address the last n axes of a stacked array.
        self.flip = ((Ellipsis,) + tuple(
            _REVERSE if x >> (n_qubits - 1 - q) & 1 else _KEEP
            for q in range(n_qubits)) if x else None)
        self.signs = _sign_vector(n_qubits, z) if z else None
        self.scalar = _I_POWERS[-(x & z).bit_count() & 3]  # (-i)^{#Y}
        self.mask = x
        self._trace: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def trace_gather(self, n_qubits: int) -> Tuple[np.ndarray, np.ndarray]:
        """(signs, positions) on the plan's ``n_qubits`` register: the int8
        sign at each row j and j * 2^n + (j ^ mask), where vec(rho) holds
        rho[j, j ^ mask].  Built on first use."""
        if self._trace is None:
            dim = 1 << n_qubits
            rows = np.arange(dim)
            self._trace = (np.ones(dim, dtype=np.int8) if self.signs is None
                           else self.signs.reshape(-1),
                           rows * dim + (rows ^ self.mask))
        return self._trace

    def _flipped(self, tensor: np.ndarray) -> np.ndarray:
        return tensor[self.flip] if self.flip is not None else tensor

    def act(self, tensor: np.ndarray) -> np.ndarray:
        """P|psi>."""
        flipped = self._flipped(tensor)
        scalar = self.scalar
        if self.signs is not None:
            out = self.signs * flipped
            if scalar != 1.0:
                out = out * scalar
            return out
        return flipped * scalar if scalar != 1.0 else flipped.copy()

    def rotate(self, tensor: np.ndarray, angle: float) -> np.ndarray:
        """exp(-i angle/2 * P)|psi> = cos(angle/2)|psi> - i sin(angle/2) P|psi>."""
        flipped = self._flipped(tensor)
        c = math.cos(angle / 2.0)
        k = -1j * math.sin(angle / 2.0) * self.scalar
        if self.signs is not None:
            return c * tensor + k * (self.signs * flipped)
        return c * tensor + k * flipped


class SectorRows:
    """M sorted rows of a 2^n register, and the row data of the strings
    compiled on them: one gather per X mask, one int8 sign row per Z mask.

    Every string compiled here must map the rows onto themselves.
    """

    __slots__ = ("n_qubits", "rows", "_position", "_gathers", "_signs")

    def __init__(self, n_qubits: int, rows: np.ndarray):
        self.n_qubits = n_qubits
        self.rows = rows
        self._position = np.full(1 << n_qubits, -1, dtype=np.intp)
        self._position[rows] = np.arange(rows.size)
        self._gathers: Dict[int, np.ndarray] = {}
        self._signs: Dict[int, np.ndarray] = {}

    def gather(self, x_mask: int) -> np.ndarray:
        """Row positions of rows ^ x_mask."""
        gather = self._gathers.get(x_mask)
        if gather is None:
            gather = self._position[self.rows ^ x_mask]
            if gather.size and gather.min() < 0:
                raise ValueError("string maps the rows outside themselves")
            self._gathers[x_mask] = gather
        return gather

    def signs(self, z_mask: int) -> np.ndarray:
        """int8 prod over the Z/Y qubits of (-1)^{j_q} at each row j."""
        signs = self._signs.get(z_mask)
        if signs is None:
            signs = _parity_signs(self.rows, z_mask)
            self._signs[z_mask] = signs
        return signs


class RowPlan(StringPlan):
    """A StringPlan on ``SectorRows``: act and rotate take (M,) or (..., M)
    row arrays and return fresh ones, bit for bit the full plan's rows."""

    __slots__ = ()

    def __init__(self, string: PauliString, sector: SectorRows):
        x, z = _register_masks(string, sector.n_qubits)
        self.mask = x
        self.flip = sector.gather(x) if x else None
        self.signs = sector.signs(z) if z else None
        self.scalar = _I_POWERS[-(x & z).bit_count() & 3]  # (-i)^{#Y}

    def _flipped(self, tensor: np.ndarray) -> np.ndarray:
        # take, not tensor[..., flip]: the same values in a C-ordered array,
        # about four times faster on a (2, 256) pair.
        return (tensor.take(self.flip, axis=-1) if self.flip is not None
                else tensor)


def gf2_span(masks: Iterable[int]) -> Dict[int, int]:
    """The reduced GF(2) basis of the span of ``masks``, keyed by pivot bit.

    Each row's pivot is its highest bit and no other row holds it, so
    equal spans give equal bases.  The row loop is the first step of qubit
    tapering (Bravyi et al., arXiv:1701.08213).
    """
    rows: Dict[int, int] = {}
    for m in masks:
        m = gf2_reduce(m, rows)
        if m:
            pivot = m.bit_length() - 1
            rows = {p: r ^ m if r >> pivot & 1 else r for p, r in rows.items()}
            rows[pivot] = m
    return rows


def gf2_reduce(mask: int, span: Mapping[int, int]) -> int:
    """``mask`` with every pivot bit of ``span`` (a ``gf2_span``) cleared:
    0 exactly when the mask lies in the span."""
    for pivot, row in span.items():
        if mask >> pivot & 1:
            mask ^= row
    return mask


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
    return terms_action(h.plans(n_qubits), tensor).reshape(-1)


def terms_action(terms: Iterable[Tuple[complex, StringPlan]],
                 tensor: np.ndarray) -> np.ndarray:
    """sum of coeff * P|psi> over (coeff, plan) pairs, in order, as a
    fresh array shaped like ``tensor``."""
    out = np.zeros_like(tensor)
    for coeff, plan in terms:
        out += coeff * plan.act(tensor)
    return out


def expectation(h: PauliSum, psi) -> float:
    """Real expectation <psi| H (x) 1 |psi> in the units of H.

    ``psi`` needs ``n_qubits`` and flat ``amplitudes``; H acts on the
    lowest-indexed qubits, identity on the rest.  Raises if H is not
    Hermitian, psi is not normalized, or the imaginary residue exceeds
    tolerance.
    """
    return _summed_expectation(h, psi, ((1.0, _checked_tensor(h, psi)),))


def product_expectation(h: PauliSum, a: PauliSum, psi) -> float:
    """Real <psi| H (x) A |psi> without forming the product operator.

    A is a Hermitian sum on psi's whole register that acts on qubits H
    leaves alone (the ancillas of a readout state).  The sum runs over
    c_h c_a <psi| P_h (P_a psi)> on H's own cached plans, H-major and
    A-minor: the order in which ``H * A`` lists its terms, so the value is
    bit-identical to ``expectation`` of the product.
    """
    tensor = _checked_tensor(h, psi)
    if not a.is_hermitian():
        raise ValueError("expectation requires a Hermitian PauliSum")
    return _summed_expectation(h, psi, tuple(
        (coeff, plan.act(tensor)) for coeff, plan in a.plans(psi.n_qubits)))


def _checked_tensor(h: PauliSum, psi) -> np.ndarray:
    if not h.is_hermitian():
        raise ValueError("expectation requires a Hermitian PauliSum")
    if h.n_qubits > psi.n_qubits:
        raise DimensionMismatch("operator larger than state register")
    norm = np.linalg.norm(psi.amplitudes)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return psi.amplitudes.reshape((2,) * psi.n_qubits)


def _summed_expectation(h: PauliSum, psi, branches) -> float:
    """Sum of c_h c_a <psi|P_h|phi_a> over H's terms, then the
    (c_a, phi_a) branches, with the imaginary residue checked."""
    amps = psi.amplitudes
    value = 0.0 + 0.0j
    for coeff, plan in h.plans(psi.n_qubits):
        for scale, phi in branches:
            value += coeff * scale * np.vdot(amps, plan.act(phi))
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


def matrix_diagonal(h: PauliSum, basis: Sequence[int]) -> np.ndarray:
    """``to_matrix(h, basis).diagonal()`` bit for bit, without a plan: it
    sums the scatter's coeff * (scalar * sign[b]) over the x = 0 terms."""
    basis = np.asarray(basis, dtype=np.intp)
    out = np.zeros(basis.size, dtype=complex)
    for string, coeff in h.items():
        if not string.x:
            out += coeff * (_I_POWERS[0] if not string.z else _I_POWERS[0] *
                            _parity_signs(basis, string.z))
    return out

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
``RowPlan`` compiled from it on ``SectorRows``, a sorted set of rows that
the string maps onto itself, is the only place any module reads that
action: a gather of the positions of rows ^ x, int8 signs at the rows, a
scalar and the mask.  On every row of the register (``SectorRows.full``,
kept per register size on the owning ``PauliSum`` by ``plans``) it serves
P|psi>, the matrices of ``to_matrix`` (the ED oracle) and Tr(P rho); on
the rows of ``ansatz.SymmetryScreen`` it runs the ansatz, on the rows a
batch of readout states reaches, H (``expectations``), and on the rows
where a gate's controls hold, the gate.  The masks' GF(2) span
(``gf2_span``) gives the rows a state can reach, one representative per
branch plus the span (``branches``, ``sector_rows``).  A sector's row
data is compiled in array passes (``SectorRows.prepare``).  Plans are
bit-identical to the uncompiled string route; the comment above
``SectorRows`` says why that matters.

Every expectation runs through ``expectations``: a batch of states of one
register, each with its ancilla operator A, measured as
sum c_h c_a <psi| P_h (P_a psi)> with H applied once per term to the
stacked (branch, row) array and every vdot taken against the state's own
2^n buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

COEFF_PRUNE_TOL = 1e-12
HERMITIAN_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10
NORM_TOL = 1e-9
# Largest dense complex matrix to_matrix and the ED oracle will build:
# 256 MiB, a full matrix up to 12 qubits.
DENSE_BYTES_GUARD = 1 << 28
# Sectors a map of compiled rows keeps (``cached_sector``): the ansatz's
# per circuit, and H's readout rows per ``PauliSum``.  A LiH command needs
# one per register (the pair states, the K-way state and the eigenpairs).
SECTOR_CACHE_SIZE = 32

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

    __slots__ = ("n_qubits", "_terms", "_plans", "_sectors")

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
        # (coefficient, RowPlan) pairs in term order on every row of the
        # register, per register size, built on first use by ``plans``.
        self._plans: Dict[int, Tuple[Tuple[complex, "RowPlan"], ...]] = {}
        # The rows of ``expectations``, newest first, at most
        # SECTOR_CACHE_SIZE: ((register, operator flips), mask of the
        # indices outside the rows, SectorRows, terms compiled on them).
        self._sectors: List[Tuple[Tuple[int, Tuple[int, ...]], np.ndarray,
                                  "SectorRows", tuple]] = []

    def terms(self) -> Dict[PauliString, complex]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def plans(self, n_qubits: int) -> Tuple[Tuple[complex, "RowPlan"], ...]:
        """The terms compiled on every row of a ``n_qubits`` register, in
        term order."""
        compiled = self._plans.get(n_qubits)
        if compiled is None:
            compiled = compile_terms(self, SectorRows.full(n_qubits))
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


# ---------------------------------------------------------------------------
# Action on dense amplitude arrays.
#
# A Pauli string maps every basis state to exactly one basis state:
# P|j (+) x> picks up (-i)^{#Y} * (-1)^{parity(j & z)}, where x and z are
# the string's masks on the register and #Y = popcount(x & z).
#
# Each string is compiled into a RowPlan on M sorted rows of a register
# that the string maps onto themselves: the positions of rows ^ m (its
# flip), the int8 signs at the rows read off the Z mask, the scalar
# (-i)^{#Y} and the X mask m = x, so that P|j> = scalar * sign[j ^ m] *
# |j ^ m>.  The whole register is the case of every row
# (``SectorRows.full``).  Plans live on the objects they derive from
# (``PauliSum.plans``, ``GateOp.plan``, the ansatz's sectors), never in a
# module cache keyed by object identity.  A plan runs exactly the
# elementwise operations of the uncompiled string route, in the same order
# and on the same dtypes, so its results are bit-identical to it (up to
# the sign of an exact zero), and every row holds the bits the whole
# register would.  That contract matters.  A rotation at theta = 0 whose
# mask lies outside the span of the flips that act has an exactly zero
# gradient, and the sweep skips it (``ansatz.symmetry_screen``).  Other
# directions can carry a roundoff-only gradient (the 26 |theta| <= 1e-8
# entries of the stored LiH record), which Adam turns into ~1e-10 steps:
# any change of roundoff moves a stored run's theta record.  Only
# elementwise work may move to a subset of rows: BLAS sums a vdot by index
# position, so reductions must still run over full-length arrays.
# ---------------------------------------------------------------------------

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


def parities(values: np.ndarray, mask) -> np.ndarray:
    """parity(v & mask), 0 or 1, of each integer v in ``values``: the
    masked bits folded onto bit 0 by halving shifts.  ``mask`` is an int,
    or an integer array that broadcasts against ``values``."""
    out = values & mask
    top = int(mask.max(initial=0)) if isinstance(mask, np.ndarray) else mask
    shift = 1 << max(top.bit_length() - 1, 0).bit_length()
    while shift > 1:
        shift >>= 1
        out ^= out >> shift
    return out & 1


class SectorRows:
    """M sorted rows of a 2^n register, and the row data of the strings
    compiled on them: one gather per X mask, one int8 sign row per Z mask,
    and per X mask the positions of rho[j, j ^ m] in vec(rho).

    Every string compiled here must map the rows onto themselves.  A
    compile hands ``prepare`` all its masks at once; a lone ``RowPlan``
    (a gate's) prepares its own.
    """

    __slots__ = ("n_qubits", "rows", "_gathers", "_signs", "_traces")

    def __init__(self, n_qubits: int, rows: np.ndarray):
        self.n_qubits = n_qubits
        self.rows = rows
        self._gathers: Dict[int, np.ndarray] = {}
        self._signs: Dict[int, np.ndarray] = {}
        self._traces: Dict[int, np.ndarray] = {}

    @classmethod
    def full(cls, n_qubits: int) -> "SectorRows":
        """Every row of a ``n_qubits`` register."""
        return cls(n_qubits, np.arange(1 << n_qubits))

    def prepare(self, x_masks: Iterable[int], z_masks: Iterable[int]
                ) -> None:
        """Compile the gathers of the nonzero ``x_masks`` and the sign rows
        of ``z_masks`` that are not held yet, in array passes: one 2^n
        position map, kept by no one, serves every gather, and masks go
        in chunks whose transients hold at most 2^n entries."""
        rows = self.rows
        chunk = max(1, (1 << self.n_qubits) // max(rows.size, 1))
        xs = [m for m in dict.fromkeys(x_masks) if m and m not in self._gathers]
        if xs:
            position = np.full(1 << self.n_qubits, -1, dtype=np.intp)
            position[rows] = np.arange(rows.size)
            for start in range(0, len(xs), chunk):
                masks = xs[start:start + chunk]
                gathers = position[rows ^ np.array(masks)[:, None]]
                if gathers.size and gathers.min() < 0:
                    raise ValueError("string maps the rows outside themselves")
                self._gathers.update(zip(masks, gathers))
        zs = [m for m in dict.fromkeys(z_masks) if m not in self._signs]
        for start in range(0, len(zs), chunk):
            masks = zs[start:start + chunk]
            self._signs.update(zip(masks, _parity_signs(
                rows, np.array(masks)[:, None])))

    def gather(self, x_mask: int) -> np.ndarray:
        """Row positions of rows ^ x_mask, for a nonzero mask."""
        if x_mask not in self._gathers:
            self.prepare((x_mask,), ())
        return self._gathers[x_mask]

    def signs(self, z_mask: int) -> np.ndarray:
        """int8 prod over the Z/Y qubits of (-1)^{j_q} at each row j."""
        if z_mask not in self._signs:
            self.prepare((), (z_mask,))
        return self._signs[z_mask]

    def trace_positions(self, x_mask: int) -> np.ndarray:
        """j * 2^n + (j ^ x_mask) at each row j: where the row-major
        vec(rho) holds rho[j, j ^ x_mask]."""
        positions = self._traces.get(x_mask)
        if positions is None:
            positions = self.rows * (1 << self.n_qubits) + (self.rows ^ x_mask)
            self._traces[x_mask] = positions
        return positions


class RowPlan:
    """One Pauli string compiled on ``SectorRows`` that it maps onto
    themselves.

    ``act`` and ``rotate`` take the amplitudes of those rows as an (M,)
    array, or a stack of them with extra leading axes, and return a fresh
    array of the same shape.  Qubits beyond the string's own register act
    as identity.  ``mask`` is the X/Y bit mask on the register, qubit 0
    most significant.
    """

    __slots__ = ("sector", "flip", "signs", "scalar", "mask")

    def __init__(self, string: PauliString, sector: SectorRows):
        x, z = _register_masks(string, sector.n_qubits)
        self.sector = sector
        self.mask = x
        self.flip = sector.gather(x) if x else None
        self.signs = sector.signs(z) if z else None
        self.scalar = _I_POWERS[-(x & z).bit_count() & 3]  # (-i)^{#Y}

    def _flipped(self, rows: np.ndarray) -> np.ndarray:
        # take, not rows[..., flip]: the same values in a C-ordered array,
        # about four times faster on a (2, 256) pair.
        return rows.take(self.flip, axis=-1) if self.flip is not None else rows

    def act(self, rows: np.ndarray) -> np.ndarray:
        """P|psi>."""
        out = self._flipped(rows)
        if self.signs is not None:
            out = self.signs * out
        if self.scalar != 1.0:
            out = out * self.scalar
        return out.copy() if out is rows else out

    def rotate(self, rows: np.ndarray, angle: float) -> np.ndarray:
        """exp(-i angle/2 * P)|psi> = cos(angle/2)|psi> - i sin(angle/2) P|psi>."""
        flipped = self._flipped(rows)
        c = math.cos(angle / 2.0)
        k = -1j * math.sin(angle / 2.0) * self.scalar
        if self.signs is not None:
            return c * rows + k * (self.signs * flipped)
        return c * rows + k * flipped


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


def gf2_reduce(mask, span: Mapping[int, int]):
    """``mask`` with every pivot bit of ``span`` (a ``gf2_span``) cleared:
    0 exactly when the mask lies in the span.  ``mask`` may be an int64
    array, reduced in one pass per pivot."""
    if isinstance(mask, np.ndarray):
        mask = mask.copy()
        for pivot, row in span.items():
            mask ^= (mask >> pivot & 1) * row
        return mask
    for pivot, row in span.items():
        if mask >> pivot & 1:
            mask ^= row
    return mask


def branches(occupied: np.ndarray, kept: int
             ) -> Tuple[Tuple[int, ...], List[int]]:
    """One representative per branch, the first of the ``occupied``
    indices that share its bits under ``kept`` (the label), and the
    premise flips: each index XOR its branch's representative."""
    representatives: Dict[int, int] = {}
    premise = [j ^ representatives.setdefault(j & kept, j)
               for j in occupied.tolist()]
    return tuple(representatives.values()), premise


def sector_rows(representatives: Sequence[int],
                span: Dict[int, int]) -> np.ndarray:
    """The sorted rows of the representatives plus ``span`` (a
    ``gf2_span`` with no element that tells two representatives apart)."""
    rows = np.array(representatives, dtype=np.intp)
    for row in span.values():
        rows = np.concatenate((rows, rows ^ row))
    return np.sort(rows)


def cached_sector(sectors: Dict, key, compile: Callable[[], object]):
    """``sectors[key]``, compiled on first use.  A map holds at most
    SECTOR_CACHE_SIZE sectors; the oldest is dropped first."""
    sector = sectors.get(key)
    if sector is None:
        sector = compile()
        if len(sectors) >= SECTOR_CACHE_SIZE:
            del sectors[next(iter(sectors))]
        sectors[key] = sector
    return sector


def compile_terms(h: PauliSum, rows: SectorRows
                  ) -> Tuple[Tuple[complex, RowPlan], ...]:
    """(coefficient, ``RowPlan``) of each of H's terms on ``rows``, in term
    order, their row data prepared in one pass."""
    masks = [_register_masks(string, rows.n_qubits) for string in h._terms]
    rows.prepare([x for x, _ in masks], [z for _, z in masks if z])
    return tuple((coeff, RowPlan(string, rows))
                 for string, coeff in h._terms.items())


def pauli_action(string: PauliString, n_qubits: int,
                 amps: np.ndarray) -> np.ndarray:
    """Return P|psi> for flat amplitudes of a 2^n state.

    The string may address fewer qubits than the state; unlisted qubits act
    as identity (this realizes H (x) 1 on purified registers).
    """
    return RowPlan(string, SectorRows.full(n_qubits)).act(amps)


def paulisum_action(h: PauliSum, n_qubits: int, amps: np.ndarray) -> np.ndarray:
    """Return H|psi> as a fresh flat array."""
    return terms_action(h.plans(n_qubits), amps)


def terms_action(terms: Iterable[Tuple[complex, RowPlan]],
                 rows: np.ndarray) -> np.ndarray:
    """sum of coeff * P|psi> over (coeff, plan) pairs, in order, as a
    fresh array shaped like ``rows``."""
    out = np.zeros_like(rows)
    for coeff, plan in terms:
        out += coeff * plan.act(rows)
    return out


def expectation(h: PauliSum, psi) -> float:
    """Real expectation <psi| H (x) 1 |psi> in the units of H.

    ``psi`` needs ``n_qubits`` and flat ``amplitudes``; H acts on the
    lowest-indexed qubits, identity on the rest.  Raises if H is not
    Hermitian, psi is not normalized, or the imaginary residue exceeds
    tolerance.
    """
    return expectations(h, (psi,))[0]


def product_expectation(h: PauliSum, a: PauliSum, psi) -> float:
    """Real <psi| H (x) A |psi> without forming the product operator, for
    a Hermitian A on psi's whole register; see ``expectations``."""
    return expectations(h, (psi,), (a,))[0]


def expectations(h: PauliSum, states: Sequence,
                 operators: Optional[Sequence[Optional[PauliSum]]] = None
                 ) -> List[float]:
    """Real <psi_r| H (x) A_r |psi_r> for each state psi_r of one register
    and its operator A_r (None, or no ``operators``, for the identity).

    H acts on the lowest-indexed qubits; each A_r is a Hermitian sum on
    the whole register that acts on qubits H leaves alone (the ancillas of
    a readout state).  A value sums c_h c_a <psi| P_h (P_a psi)>, H-major
    and A-minor: the order in which ``H * A`` lists its terms, so it is
    bit-identical to the expectation of the product, which is never
    formed.

    The states are stacked on the rows their joint support reaches under
    H's flips and the operators' (``_readout_rows``), one row per distinct
    (state, A term) branch.  Each H term acts once on that stack; its
    result is scattered into full-length kets, exact zeros elsewhere, and
    every vdot is taken against the state's own 2^n buffer, so every bit
    is the full register's (README, "Why reductions stay full length").
    """
    if operators is None:
        operators = (None,) * len(states)
    if len(operators) != len(states):
        raise ValueError("one operator per state")
    if not states:
        return []
    n = states[0].n_qubits
    if h.n_qubits > n:
        raise DimensionMismatch("operator larger than state register")
    for psi, a in zip(states, operators):
        if psi.n_qubits != n:
            raise DimensionMismatch("states live on different registers")
        if a is not None:
            if not a.is_hermitian():
                raise ValueError("expectation requires a Hermitian PauliSum")
            if a.n_qubits != n:
                raise DimensionMismatch(
                    f"ancilla operator on {a.n_qubits} qubits, state on {n}")
        norm = np.linalg.norm(psi.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    # H is checked when its rows are compiled: a sum never changes
    sector, terms = _readout_rows(h, states, operators)
    rows = sector.rows
    stack: List[np.ndarray] = []        # one row array per branch
    bras: List[np.ndarray] = []         # its state's 2^n buffer
    at: Dict[Tuple[int, Optional[PauliString]], int] = {}
    uses = []                           # (readout, c_a, branch), in order
    for r, (psi, a) in enumerate(zip(states, operators)):
        for string, scale in ((None, 1.0),) if a is None else a.items():
            key = (id(psi), string)
            if key not in at:
                at[key] = len(stack)
                phi = psi.amplitudes[rows]
                stack.append(phi if string is None
                             else RowPlan(string, sector).act(phi))
                bras.append(psi.amplitudes)
            uses.append((r, scale, at[key]))
    if not bras:    # every operator is the zero sum
        return [0.0] * len(states)
    dim, count = 1 << n, len(bras)
    kets = np.zeros(count * dim, dtype=complex)     # one 2^n ket per branch
    ket_rows = list(kets.reshape(count, dim))
    if count == 1:  # (M,) arrays: numpy serves them faster than (1, M) ones
        stack, scatter = stack[0], rows
    else:           # (branch, row) arrays, and where their rows sit in kets
        stack = np.stack(stack)
        scatter = rows + dim * np.arange(count)[:, None]
    values = [0.0 + 0.0j] * len(states)
    for coeff, plan in terms:
        kets[scatter] = plan.act(stack)
        dots = list(map(np.vdot, bras, ket_rows))
        for r, scale, b in uses:
            values[r] += coeff * scale * dots[b]
    for value in values:
        if abs(value.imag) > IMAG_RESIDUE_TOL:
            raise ValueError(
                f"imaginary residue {value.imag:.3e} above tolerance")
    return [float(value.real) for value in values]


def _readout_rows(h: PauliSum, states: Sequence,
                  operators: Sequence[Optional[PauliSum]]
                  ) -> Tuple[SectorRows, Tuple[Tuple[complex, RowPlan], ...]]:
    """Rows that hold the states' joint support and that H's and the
    operators' flips map onto themselves, with H compiled on them.

    Any such rows give the same bits: outside the support every product
    of a vdot has an exact-zero factor.  So a call takes the first of H's
    kept sectors of its register and operator flips whose rows hold the
    support: one lookup and one pass over the support.  Otherwise it
    compiles the support's closure: one representative per branch
    (labelled by the bits no term flips) plus the GF(2) span of H's flips,
    the operators' flips and the premise flips.  H keeps at most
    SECTOR_CACHE_SIZE sectors, the newest first.
    """
    n = states[0].n_qubits
    a_masks = tuple(sorted({string.x for a in operators if a is not None
                            for string in a._terms}))
    occupied = states[0].amplitudes != 0
    for psi in states[1:]:
        occupied |= psi.amplitudes != 0
    for key, outside, sector, terms in h._sectors:
        if key == (n, a_masks) and not (occupied & outside).any():
            return sector, terms
    if not h.is_hermitian():
        raise ValueError("expectation requires a Hermitian PauliSum")
    h_masks = [flip_mask(string, n) for string in h._terms]
    flips = 0
    for mask in chain(h_masks, a_masks):
        flips |= mask
    representatives, premise = branches(np.flatnonzero(occupied),
                                        ((1 << n) - 1) & ~flips)
    span = gf2_span(chain(h_masks, a_masks, premise))
    sector = SectorRows(n, sector_rows(representatives, span))
    sector.prepare(a_masks, ())
    outside = np.ones(1 << n, dtype=bool)
    outside[sector.rows] = False
    h._sectors.insert(0, ((n, a_masks), outside, sector,
                          compile_terms(h, sector)))
    del h._sectors[SECTOR_CACHE_SIZE:]
    return sector, h._sectors[0][3]


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
                 else plan.scalar * plan.signs[targets])
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

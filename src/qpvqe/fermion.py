"""Fermionic terms, Jordan-Wigner encoding, and excitation generators.

Spin-orbitals follow the interleaved ordering: spatial orbital p with
spin alpha sits on qubit 2p, spin beta on qubit 2p+1.  Creation operators
map as a_p^dag -> (prod_{k<p} Z_k)(X_p - i Y_p)/2, multiplied out on the
strings' (x, z) masks (phases by ``pauli.product_power``) into one
``PauliSum`` per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .pauli import (COEFF_PRUNE_TOL, PauliString, PauliSum, _I_POWERS,
                    product_power)


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * a_{m1}^(d1) a_{m2}^(d2) ... with d in {dagger, not}."""

    coefficient: complex
    ladder: Tuple[Tuple[int, bool], ...]  # (mode, dagger)


def spin_orbital(spatial: int, spin: str) -> int:
    """Interleaved map: (p, alpha) -> 2p, (p, beta) -> 2p+1."""
    if spin not in ("a", "b"):
        raise ValueError("spin must be 'a' or 'b'")
    return 2 * spatial + (0 if spin == "a" else 1)


def spin_of(mode: int) -> float:
    """S_z contribution of one occupied mode: +1/2 alpha, -1/2 beta."""
    return 0.5 if mode % 2 == 0 else -0.5


# The (X_p, Y_p) weights of a_p and a_p^dag, indexed by dagger.
_LADDER_WEIGHTS = ((0.5 + 0j, 0.5j), (0.5 + 0j, complex(0.0, -0.5)))


def jordan_wigner(term: FermionTerm, n_modes: int) -> PauliSum:
    """Standard JW image of one fermionic term, expanded and simplified."""
    return jordan_wigner_sum((term,), n_modes)


def jordan_wigner_sum(terms: Sequence[FermionTerm], n_modes: int) -> PauliSum:
    """Sum of the terms' JW images on (x, z) masks, in term order.

    An image multiplies its ladder factors in order, summing like products
    as they arise.  As ``PauliSum`` addition does, a string is dropped once
    its coefficient is at most ``COEFF_PRUNE_TOL`` in an image or in the
    running sum, and listed at the end if it returns.
    """
    out: Dict[Tuple[int, int], complex] = {}
    for term in terms:
        image = {(0, 0): term.coefficient}
        for mode, dagger in term.ladder:
            if not 0 <= mode < n_modes:
                raise ValueError(f"mode {mode} out of range for {n_modes} "
                                 "modes")
            bit = 1 << (n_modes - 1 - mode)
            z_prefix = ((1 << mode) - 1) << (n_modes - mode)  # Z below the mode
            c_x, c_y = _LADDER_WEIGHTS[dagger]
            factor = ((z_prefix, c_x), (z_prefix | bit, c_y))
            acc, image = image, {}
            for (ax, az), c_a in acc.items():
                for bz, c_b in factor:
                    key = (ax ^ bit, az ^ bz)
                    phase = _I_POWERS[product_power(ax, az, bit, bz)]
                    image[key] = image.get(key, 0.0) + c_a * c_b * phase
        for key, c in image.items():
            if abs(c) > COEFF_PRUNE_TOL:
                out[key] = c = out.get(key, 0.0) + c
                if abs(c) <= COEFF_PRUNE_TOL:
                    del out[key]
    return PauliSum(n_modes, {PauliString(n_modes, x, z): c
                              for (x, z), c in out.items()})


@dataclass(frozen=True)
class ExcitationGenerator:
    """Anti-Hermitian generator G - G^dag of one parameterized excitation.

    ``indices`` are spatial (p, q) for singles (both spin channels share the
    parameter) and spin-orbital (p, q, r, s) for doubles, meaning
    a_p^dag a_q^dag a_r a_s with p<q, r<s.
    """

    kind: str  # "single" | "double"
    indices: Tuple[int, ...]
    parameter_index: int
    pauli_form: PauliSum

    def __post_init__(self):
        if self.kind not in ("single", "double"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not self.pauli_form.is_anti_hermitian(1e-12):
            raise ValueError("generator pauli_form must be anti-Hermitian")

    def label(self) -> str:
        return excitation_label(self.kind, self.indices)


def excitation_label(kind: str, indices: Tuple[int, ...]) -> str:
    """"s:p,q" for a single, "d:p,q,r,s" for a double."""
    head = "s" if kind == "single" else "d"
    return head + ":" + ",".join(str(i) for i in indices)


def parse_excitation_label(label: str) -> Tuple[str, Tuple[int, ...]]:
    """Parse "s:0,1" or "d:0,1,2,3" into (kind, indices)."""
    head, _, rest = label.strip().partition(":")
    indices = tuple(int(t) for t in rest.split(",") if t.strip() != "")
    if head == "s" and len(indices) == 2:
        return "single", indices
    if head == "d" and len(indices) == 4:
        return "double", indices
    raise ValueError(f"bad excitation label {label!r}")


def sz_excitations(m_spatial: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """(kind, indices) of every generalized S_z-preserving excitation over
    2M spin-orbitals, in parameter order; no Jordan-Wigner runs.

    Every spatial single pair p<q (one shared parameter per pair across
    the two spin channels), then every spin-orbital double
    a_p^dag a_q^dag a_r a_s with p<q, r<s, (p,q) < (r,s) lexicographically
    and matching pair spin projection, in ascending index order.
    """
    if m_spatial < 1:
        raise ValueError("need at least one spatial orbital")
    n_modes = 2 * m_spatial
    listing = [("single", (p, q)) for p in range(m_spatial)
               for q in range(p + 1, m_spatial)]
    pairs = [(p, q) for p in range(n_modes) for q in range(p + 1, n_modes)]
    for i, (p, q) in enumerate(pairs):
        for (r, s) in pairs[i + 1:]:
            if spin_of(p) + spin_of(q) == spin_of(r) + spin_of(s):
                listing.append(("double", (p, q, r, s)))
    return listing


def sz_excitation_labels(m_spatial: int) -> List[str]:
    """The labels of ``sz_excitations``, in parameter order."""
    return [excitation_label(*spec) for spec in sz_excitations(m_spatial)]


def enumerate_sz_excitations(
        m_spatial: int,
        effective: Optional[Sequence[str]] = None) -> List[ExcitationGenerator]:
    """The generators of ``effective``, a list of labels ("s:p,q" /
    "d:p,q,r,s"), in the given order with parameter indices 0, 1, ...;
    by default of every excitation of ``sz_excitations``.

    A readout builds only the labels its theta* moves, so listing labels
    and building generators are two steps.
    """
    if m_spatial < 1:
        raise ValueError("need at least one spatial orbital")
    n_modes = 2 * m_spatial

    def build(kind: str, indices: Tuple[int, ...], param: int) -> ExcitationGenerator:
        if kind == "single":
            p, q = indices
            if not 0 <= p < q < m_spatial:
                raise ValueError(f"bad spatial single indices {indices}")
            # Spin-restricted: the alpha and beta channels share t.
            channels = [(spin_orbital(q, s), spin_orbital(p, s)) for s in "ab"]
            terms = [FermionTerm(sign, ((a, True), (b, False)))
                     for hi, lo in channels
                     for sign, a, b in ((1.0, hi, lo), (-1.0, lo, hi))]
        else:
            p, q, r, s = indices
            if not (0 <= p < q < n_modes and 0 <= r < s < n_modes):
                raise ValueError(f"bad double indices {indices}")
            if (p, q) == (r, s):
                raise ValueError(f"double {indices} is diagonal")
            if spin_of(p) + spin_of(q) != spin_of(r) + spin_of(s):
                raise ValueError(f"double {indices} changes S_z")
            terms = [FermionTerm(1.0, ((p, True), (q, True), (r, False),
                                       (s, False))),
                     FermionTerm(-1.0, ((s, True), (r, True), (q, False),
                                        (p, False)))]
        form = jordan_wigner_sum(terms, n_modes)
        if len(form) == 0:
            raise ValueError(f"excitation {kind}{indices} vanishes identically")
        return ExcitationGenerator(kind, indices, param, form)

    if effective is None:
        specs = sz_excitations(m_spatial)
    else:
        specs = [parse_excitation_label(label) for label in effective]
        if not specs:
            raise ValueError("effective excitation list is empty")
    return [build(kind, indices, param)
            for param, (kind, indices) in enumerate(specs)]

import importlib.util
import itertools
import os

import numpy as np
import pytest

from qpvqe.fermion import (ExcitationGenerator, FermionTerm,
                           enumerate_sz_excitations, jordan_wigner,
                           jordan_wigner_sum, parse_excitation_label,
                           spin_of, spin_orbital)
from qpvqe.pauli import PauliString, PauliSum, to_matrix

from oracles import (generator_terms, number_operator, string_jordan_wigner,
                     string_jordan_wigner_sum, sz_operator)


def dense(term, n):
    return to_matrix(jordan_wigner(term, n))


class TestJordanWigner:
    def test_number_operator_closed_form(self):
        out = jordan_wigner(FermionTerm(1.0, ((0, True), (0, False))), 2)
        assert out.coefficient(PauliString(2)) == pytest.approx(0.5)
        assert out.coefficient(PauliString.from_word(2, "Z0")) == pytest.approx(-0.5)
        assert len(out) == 2

    def test_creation_with_z_string(self):
        out = jordan_wigner(FermionTerm(1.0, ((1, True),)), 2)
        assert out.coefficient(PauliString.from_word(2, "Z0 X1")) == pytest.approx(0.5)
        assert out.coefficient(PauliString.from_word(2, "Z0 Y1")) == pytest.approx(-0.5j)

    def test_hopping_closed_form(self):
        out = jordan_wigner_sum(
            [FermionTerm(1.0, ((0, True), (1, False))),
             FermionTerm(1.0, ((1, True), (0, False)))], 2)
        assert out.coefficient(PauliString.from_word(2, "X0 X1")) == pytest.approx(0.5)
        assert out.coefficient(PauliString.from_word(2, "Y0 Y1")) == pytest.approx(0.5)
        assert len(out) == 2

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionTerm(1.0, ((4, True),)), 4)

    def test_anticommutators(self):
        n = 4
        eye = np.eye(1 << n)
        for p in range(n):
            for q in range(n):
                a_p = dense(FermionTerm(1.0, ((p, False),)), n)
                a_q_dag = dense(FermionTerm(1.0, ((q, True),)), n)
                anti = a_p @ a_q_dag + a_q_dag @ a_p
                expected = eye if p == q else np.zeros_like(eye)
                assert np.max(np.abs(anti - expected)) < 1e-14


class TestSymmetryOperators:
    def test_number_operator_counts(self):
        n_op = to_matrix(number_operator(4))
        for bits in itertools.product((0, 1), repeat=4):
            index = int("".join(map(str, bits)), 2)
            assert n_op[index, index].real == pytest.approx(sum(bits))

    def test_sz_interleaved(self):
        sz = to_matrix(sz_operator(4))
        # |1100>: one alpha (q0) one beta (q1) -> Sz = 0
        assert sz[12, 12].real == pytest.approx(0.0)
        # |1010>: two alphas -> Sz = 1
        assert sz[10, 10].real == pytest.approx(1.0)

    def test_spin_orbital_map(self):
        assert spin_orbital(0, "a") == 0
        assert spin_orbital(0, "b") == 1
        assert spin_orbital(3, "a") == 6
        assert spin_of(0) == 0.5
        assert spin_of(1) == -0.5


class TestEnumeration:
    def test_m2_counts(self):
        gens = enumerate_sz_excitations(2)
        singles = [g for g in gens if g.kind == "single"]
        doubles = [g for g in gens if g.kind == "double"]
        assert len(singles) == 1
        assert len(doubles) == 6
        assert [g.parameter_index for g in gens] == list(range(7))

    def test_counts_match_bruteforce(self):
        for m in (1, 2, 3):
            gens = enumerate_sz_excitations(m)
            singles = sum(1 for g in gens if g.kind == "single")
            doubles = sum(1 for g in gens if g.kind == "double")
            assert singles == m * (m - 1) // 2
            # brute-force pair enumeration with matching pair spin
            n = 2 * m
            pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
            count = 0
            for i, x in enumerate(pairs):
                for y in pairs[i + 1:]:
                    if spin_of(x[0]) + spin_of(x[1]) == spin_of(y[0]) + spin_of(y[1]):
                        count += 1
            assert doubles == count

    def test_generators_anti_hermitian(self):
        for g in enumerate_sz_excitations(2):
            mat = to_matrix(g.pauli_form)
            assert np.max(np.abs(mat + mat.conj().T)) < 1e-14

    def test_generators_commute_with_symmetries(self):
        n = 6
        sz = to_matrix(sz_operator(n))
        num = to_matrix(number_operator(n))
        for g in enumerate_sz_excitations(3):
            mat = to_matrix(g.pauli_form)
            assert np.max(np.abs(mat @ sz - sz @ mat)) < 1e-12
            assert np.max(np.abs(mat @ num - num @ mat)) < 1e-12

    def test_deterministic_order(self):
        a = enumerate_sz_excitations(3)
        b = enumerate_sz_excitations(3)
        assert [g.label() for g in a] == [g.label() for g in b]
        labels = [g.label() for g in a]
        singles = [l for l in labels if l.startswith("s")]
        assert labels[:len(singles)] == singles

    def test_effective_list(self):
        gens = enumerate_sz_excitations(2, effective=["d:0,1,2,3", "d:0,3,1,2"])
        assert [g.label() for g in gens] == ["d:0,1,2,3", "d:0,3,1,2"]
        assert [g.parameter_index for g in gens] == [0, 1]

    def test_empty_effective_list_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sz_excitations(2, effective=[])

    def test_sz_changing_double_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sz_excitations(2, effective=["d:0,1,0,2"])

    def test_label_roundtrip(self):
        assert parse_excitation_label("s:0,1") == ("single", (0, 1))
        assert parse_excitation_label("d:0,1,2,3") == ("double", (0, 1, 2, 3))
        with pytest.raises(ValueError):
            parse_excitation_label("x:0")


# ---------------------------------------------------------------------------
# The mask route against the PauliString-object oracle, bit for bit.
# ---------------------------------------------------------------------------

def bits(h):
    """Every term in order: its masks and its coefficient's exact bits."""
    return [(s.x, s.z, c.real.hex(), c.imag.hex()) for s, c in h.items()]


def random_terms(rng, n_modes, count, max_len=4):
    coefficients = (lambda: float(rng.normal()),
                    lambda: np.float64(rng.normal()),
                    lambda: complex(rng.normal(), rng.normal()),
                    lambda: -complex(rng.normal()),  # imaginary part -0.0
                    lambda: 1e-13 * rng.normal(),    # images pruned whole
                    lambda: 1.0, lambda: -0.5)
    terms = []
    for _ in range(count):
        # Modes repeat within a ladder, so some images vanish.
        ladder = tuple((int(rng.integers(n_modes)), bool(rng.integers(2)))
                       for _ in range(int(rng.integers(max_len + 1))))
        terms.append(FermionTerm(
            coefficients[int(rng.integers(len(coefficients)))](), ladder))
    return terms


class TestAgainstObjectOracle:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_generator_bit_equal(self, m):
        for gen in enumerate_sz_excitations(m):
            oracle = string_jordan_wigner_sum(
                generator_terms(gen.kind, gen.indices), 2 * m)
            assert bits(gen.pauli_form) == bits(oracle), gen.label()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sums_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        terms = random_terms(rng, n, 40)
        # Exact cancellations: some terms come back negated, and some of
        # those come back again, so strings leave the sum and return.
        for term in list(terms[:12]):
            terms.insert(int(rng.integers(len(terms) + 1)),
                         FermionTerm(-term.coefficient, term.ladder))
        terms += terms[:6]
        assert bits(jordan_wigner_sum(terms, n)) == \
            bits(string_jordan_wigner_sum(terms, n))
        for term in terms:
            assert bits(jordan_wigner(term, n)) == \
                bits(string_jordan_wigner(term, n))

    def test_repeated_mode_vanishes(self):
        term = FermionTerm(1.0, ((1, True), (1, True)))
        assert len(jordan_wigner(term, 3)) == 0
        assert len(string_jordan_wigner(term, 3)) == 0

    def test_returning_string_is_listed_last(self):
        hop = FermionTerm(1.0, ((0, True), (1, False)))
        number = FermionTerm(0.5, ((2, True), (2, False)))
        terms = [hop, number, FermionTerm(-1.0, hop.ladder), hop]
        got = jordan_wigner_sum(terms, 3)
        assert bits(got) == bits(string_jordan_wigner_sum(terms, 3))
        hop_words = [s.word() for s in jordan_wigner(hop, 3).terms()]
        assert [s.word() for s in got.terms()] == ["I", "Z2"] + hop_words

    @pytest.mark.parametrize("m", [2, 3])
    def test_generated_hamiltonian_bit_equal(self, m, monkeypatch):
        pytest.importorskip("scipy")
        path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                            "gen_hamiltonians.py")
        spec = importlib.util.spec_from_file_location("gen_hamiltonians", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        # Random real integrals with the symmetries of molecular ones:
        # h symmetric, (pq|rs) invariant under p<->q, r<->s and pq<->rs.
        rng = np.random.default_rng(m)
        h = rng.normal(size=(m, m))
        h = h + h.T
        eri = rng.normal(size=(m, m, m, m))
        eri = eri + eri.transpose(1, 0, 2, 3)
        eri = eri + eri.transpose(0, 1, 3, 2)
        eri = eri + eri.transpose(2, 3, 0, 1)
        library = gen.qubit_hamiltonian(h, eri, 0.75)
        monkeypatch.setattr(gen, "jordan_wigner_sum", string_jordan_wigner_sum)
        assert bits(library) == bits(gen.qubit_hamiltonian(h, eri, 0.75))
        assert len(library) > 10

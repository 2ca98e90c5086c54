import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpvqe.harness import load_hamiltonian, sector_indices
from qpvqe.pauli import (DimensionMismatch, PauliString, PauliSum, StringPlan,
                         add_simplify, expectation, matrix_diagonal, multiply,
                         pauli_action, to_matrix)
from qpvqe.statevector import StateVector, init_basis

from conftest import data_path
from oracles import kron_matrix


def word(n, w):
    return PauliString.from_word(n, w)


def random_string(rng, n):
    k = int(rng.integers(0, n + 1))
    qubits = rng.choice(n, size=k, replace=False)
    return PauliString.from_map(n, {int(q): "XYZ"[rng.integers(3)]
                                    for q in qubits})


def random_hermitian_sum(rng, n, terms=6):
    acc = {}
    for _ in range(terms):
        acc[random_string(rng, n)] = float(rng.normal())
    return PauliSum(n, acc)


class TestMultiply:
    def test_xy_is_iz(self):
        phase, prod = multiply(word(1, "X0"), word(1, "Y0"))
        assert phase == 1j
        assert prod == word(1, "Z0")

    def test_identity_case(self):
        phase, prod = multiply(PauliString(3), word(3, "Z2"))
        assert phase == 1.0
        assert prod == word(3, "Z2")

    def test_involution(self):
        s = word(2, "X0 Z1")
        phase, prod = multiply(s, s)
        assert phase == 1.0
        assert prod.is_identity

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(word(1, "X0"), word(2, "X0"))

    def test_associative_phases(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c = (random_string(rng, 3) for _ in range(3))
            p_ab, ab = multiply(a, b)
            p_left, left = multiply(ab, c)
            p_bc, bc = multiply(b, c)
            p_right, right = multiply(a, bc)
            assert left == right
            assert p_ab * p_left == p_bc * p_right

    def test_matches_dense(self):
        # Against Kronecker products of the 2x2 letter matrices: all 16
        # one-qubit letter pairs, then random three-qubit strings.
        one_qubit = [PauliString.from_map(1, {0: letter}) if letter else
                     PauliString(1) for letter in ("", "X", "Y", "Z")]
        pairs = [(a, b) for a in one_qubit for b in one_qubit]
        rng = np.random.default_rng(5)
        pairs += [(random_string(rng, 3), random_string(rng, 3))
                  for _ in range(50)]
        for a, b in pairs:
            phase, prod = multiply(a, b)
            n = a.n_qubits
            ma = kron_matrix(PauliSum(n, {a: 1.0}))
            mb = kron_matrix(PauliSum(n, {b: 1.0}))
            mp = kron_matrix(PauliSum(n, {prod: 1.0}))
            assert np.array_equal(ma @ mb, phase * mp)


class TestAddSimplify:
    def test_like_term_collection(self):
        a = PauliSum(1, {word(1, "X0"): 0.5})
        b = PauliSum(1, {word(1, "X0"): 0.5})
        out = add_simplify(a, b)
        assert out.coefficient(word(1, "X0")) == 1.0
        assert len(out) == 1

    def test_cancellation(self):
        a = PauliSum(1, {word(1, "Z0"): 1.0})
        b = PauliSum(1, {word(1, "Z0"): -1.0})
        assert len(add_simplify(a, b)) == 0

    def test_disjoint(self):
        a = PauliSum(2, {word(2, "X0"): 0.3})
        b = PauliSum(2, {word(2, "Z1"): 0.2})
        assert len(add_simplify(a, b)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add_simplify(PauliSum(1), PauliSum(2))

    def test_matrix_linearity(self):
        rng = np.random.default_rng(23)
        for n in range(1, 6):
            a = random_hermitian_sum(rng, n)
            b = random_hermitian_sum(rng, n)
            lhs = to_matrix(add_simplify(a, b))
            rhs = to_matrix(a) + to_matrix(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestExpectation:
    def test_z_eigenstate(self):
        h = PauliSum(1, {word(1, "Z0"): 1.0})
        assert expectation(h, init_basis(1, "0")) == pytest.approx(1.0)

    def test_z_plus_state(self):
        h = PauliSum(1, {word(1, "Z0"): 1.0})
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert expectation(h, plus) == pytest.approx(0.0, abs=1e-12)

    def test_against_dense_contraction(self):
        rng = np.random.default_rng(7)
        for n in (4, 5, 6):
            h = random_hermitian_sum(rng, n, terms=8)
            v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            v /= np.linalg.norm(v)
            psi = StateVector(n, v)
            dense = float(np.real(v.conj() @ kron_matrix(h) @ v))
            assert expectation(h, psi) == pytest.approx(dense, abs=1e-12)

    def test_rejects_non_hermitian(self):
        h = PauliSum(1, {word(1, "X0"): 1.0j})
        with pytest.raises(ValueError):
            expectation(h, init_basis(1, "0"))

    def test_rejects_unnormalized(self):
        h = PauliSum(1, {word(1, "Z0"): 1.0})
        bad = StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            expectation(h, bad)

    def test_embeds_on_lowest_qubits(self):
        # H on 1 qubit against a 3-qubit state: identity on the rest
        h = PauliSum(1, {word(1, "Z0"): 1.0})
        psi = init_basis(3, "011")
        assert expectation(h, psi) == pytest.approx(1.0)
        psi = init_basis(3, "100")
        assert expectation(h, psi) == pytest.approx(-1.0)


class TestToMatrix:
    def test_identity(self):
        h = PauliSum.identity(1)
        assert np.allclose(to_matrix(h), np.eye(2))

    def test_z_bit_ordering(self):
        h = PauliSum(1, {word(1, "Z0"): 1.0})
        assert np.allclose(to_matrix(h), np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        h = PauliSum(2, {word(2, "X0 X1"): 1.0})
        assert np.allclose(to_matrix(h), np.fliplr(np.eye(4)))

    def test_qubit_guard(self):
        with pytest.raises(ValueError):
            to_matrix(PauliSum.identity(15))


@st.composite
def hermitian_sums(draw):
    """Real-weighted sums on 1-6 qubits over all letters, over Z only (no
    X/Y letters, mask 0) or over Y only."""
    n = draw(st.integers(min_value=1, max_value=6))
    alphabet = draw(st.sampled_from(("IXYZ", "IZ", "IY")))
    letters = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    acc = {}
    for word_letters, coeff in draw(st.lists(st.tuples(letters, coeffs),
                                             max_size=8)):
        string = PauliString.from_map(
            n, {q: letter for q, letter in enumerate(word_letters)
                if letter != "I"})
        acc[string] = acc.get(string, 0.0) + coeff
    return PauliSum(n, acc)


class TestCompiledForm:
    @given(hermitian_sums(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_scatter_matches_kron(self, h, data):
        full = to_matrix(h)
        assert np.array_equal(full, kron_matrix(h))
        dim = 1 << h.n_qubits
        basis = data.draw(st.lists(st.integers(0, dim - 1), min_size=1,
                                   max_size=dim, unique=True))
        assert np.array_equal(to_matrix(h, basis), full[np.ix_(basis, basis)])

    @given(hermitian_sums(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=80, deadline=None)
    def test_mask_is_where_act_sends_each_basis_state(self, h, extra):
        n = h.n_qubits + extra
        dim = 1 << n
        states = np.eye(dim, dtype=complex).reshape((dim,) + (2,) * n)
        for string, _ in h.items():
            plan = StringPlan(string, n)
            images = plan.act(states).reshape(dim, dim)
            assert np.all(np.count_nonzero(images, axis=1) == 1)
            targets = np.argmax(np.abs(images), axis=1)
            assert np.all(targets ^ np.arange(dim) == plan.mask)

    @given(hermitian_sums(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_diagonal_bit_identical_to_scatter(self, h, data):
        dim = 1 << h.n_qubits
        basis = data.draw(st.lists(st.integers(0, dim - 1), min_size=1,
                                   max_size=dim, unique=True))
        assert matrix_diagonal(h, basis).tobytes() == \
            to_matrix(h, basis).diagonal().tobytes()

    @pytest.mark.parametrize("name,sector", [("h2_0.70.ham", (2, 0.0)),
                                             ("h4_0.90.ham", (4, 0.0)),
                                             ("lih_1.60.ham", (2, 0.0))])
    def test_diagonal_of_stored_hamiltonians(self, name, sector):
        h = load_hamiltonian(data_path("hamiltonians", name))
        for basis in (sector_indices(h.n_qubits, *sector),
                      list(range(1 << h.n_qubits))):
            assert matrix_diagonal(h, basis).tobytes() == \
                to_matrix(h, basis).diagonal().tobytes()


class TestPauliAction:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_action_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        s = random_string(rng, n)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out = pauli_action(s, n, v)
        dense = kron_matrix(PauliSum(n, {s: 1.0})) @ v
        assert np.max(np.abs(out - dense)) < 1e-13


class TestSortedTerms:
    """``sorted_terms`` orders strings by their (qubit, letter) listings."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_string_in_listing_order(self, n):
        strings = [PauliString(n, x, z) for x in range(1 << n)
                   for z in range(1 << n)]
        np.random.default_rng(n).shuffle(strings)
        h = PauliSum(n, {s: 1.0 for s in strings})
        assert [s for s, _ in h.sorted_terms()] == sorted(
            strings, key=lambda s: s.items)

    @pytest.mark.parametrize("n", [12, 33])
    def test_random_strings_in_listing_order(self, n):
        rng = np.random.default_rng(n)
        # Strings of every weight, from the identity to full support.
        h = PauliSum(n, {random_string(rng, n): 1.0 for _ in range(3000)})
        assert [s for s, _ in h.sorted_terms()] == sorted(
            h.terms(), key=lambda s: s.items)

    def test_prefix_sorts_first_and_identity_last_of_letters(self):
        words = ["Z1", "X0 Z1", "X0", "I", "Y0", "X0 X1", "X1", "X0 Y2"]
        h = PauliSum(3, {word(3, w): 1.0 for w in words})
        assert [s.word() for s, _ in h.sorted_terms()] == [
            "I", "X0", "X0 X1", "X0 Z1", "X0 Y2", "Y0", "X1", "Z1"]


class TestPauliSumInvariants:
    def test_prunes_zero_terms(self):
        h = PauliSum(1, {word(1, "X0"): 1e-15})
        assert len(h) == 0

    def test_product_of_sums_matches_dense(self):
        rng = np.random.default_rng(3)
        a = random_hermitian_sum(rng, 3, terms=4)
        b = random_hermitian_sum(rng, 3, terms=4)
        assert np.max(np.abs(to_matrix(a * b) - to_matrix(a) @ to_matrix(b))) \
            < 1e-12

    def test_string_out_of_range(self):
        with pytest.raises(ValueError, match="qubit 2 out of range"):
            PauliString.from_map(2, {2: "X"})
        for x, z in ((4, 0), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                PauliString(2, x, z)

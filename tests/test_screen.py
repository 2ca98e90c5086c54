"""The symmetry-screened adjoint sweep against the full-register sweep and
the string route, bit for bit, and its rows against a brute-force Z2
reading.

The screen runs the elementwise work on the rows the state can reach (one
index per branch plus the GF(2) span of the flips that act) and skips the
rotations whose mask lies outside that span while they sit at theta = 0.
Both are allowed only because what they leave out is exact zeros, so
every comparison here is ``tobytes`` equality, never a tolerance.  The
brute-force reading enumerates the Z2 symmetries of H
(``oracles.z2_symmetries``) that commute with every active rotation and
under which no branch straddles two eigenspaces.
"""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (full_register_value_and_gradient,
                     string_value_and_gradient, z2_symmetries)
from qpvqe import ansatz, driver
from qpvqe.ansatz import (AnsatzCircuit, Rotation, SymmetryScreen,
                          apply_ansatz, build_uccgsd, symmetry_screen,
                          value_and_gradient)
from qpvqe.driver import QpvqeConfig, optimize
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import load_hamiltonian
from qpvqe.pauli import (PauliString, PauliSum, expectation, gf2_reduce,
                         gf2_span)
from qpvqe.state_prep import (build_purified_prep, default_weights,
                              select_reference_determinants)
from qpvqe.statevector import StateVector

from conftest import data_path

STORED = (("h2_0.70.ham", 2, (2, 0.0), 3, 20, 36),
          ("h4_0.90.ham", 4, (4, 0.0), 3, 464, 936),
          ("lih_1.60.ham", 5, (2, 0.0), 4, 1868, 2520))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_bits_of_both_oracles(circuit, theta, h, initial, screen=None):
    if screen is None:
        screen = symmetry_screen(circuit, h, initial)
    ours = value_and_gradient(circuit, theta, h, initial, screen)
    for oracle in (full_register_value_and_gradient,
                   string_value_and_gradient):
        theirs = oracle(circuit, theta, h, initial)
        assert same_bits(ours[0], theirs[0])
        assert same_bits(ours[1], theirs[1])


def perturbed(circuit):
    return 0.1 * np.random.default_rng(3).standard_normal(
        circuit.parameter_count)


def x_mask(string, n):
    """X/Y bit mask read off the letters (qubit 0 most significant)."""
    return sum(1 << (n - 1 - q) for q, letter in string.items
               if letter in ("X", "Y"))


def anticommutes(string, z_mask, n):
    return bin(x_mask(string, n) & z_mask).count("1") % 2 == 1


def random_string(rng, n, non_identity=False):
    while True:
        letters = {q: "XYZ"[rng.integers(3)] for q in range(n)
                   if rng.random() < 0.6}
        if letters or not non_identity:
            return PauliString.from_map(n, letters)


def planted_problem(rng, straddle=False):
    """A random H on <= 6 working qubits that commutes with 1-2 planted
    Z-strings, a random circuit, and a purified-style initial state on up
    to two extra label qubits, one or two basis states per label.  With
    ``straddle``, a label may also hold the image of its determinant under
    a random flip, which may straddle two eigenspaces of a symmetry."""
    n_work = int(rng.integers(2, 7))
    n_label = int(rng.integers(0, 3))
    n = n_work + n_label
    planted = [int(rng.integers(1, 1 << n_work))
               for _ in range(int(rng.integers(1, 3)))]
    terms = {PauliString(n_work): float(rng.normal())}
    for _ in range(200):
        if len(terms) > 8:
            break
        string = random_string(rng, n_work)
        if not any(anticommutes(string, v, n_work) for v in planted):
            terms[string] = terms.get(string, 0.0) + float(rng.normal())
    h = PauliSum(n_work, terms)

    rotations = []
    n_params = int(rng.integers(2, 6))
    for _ in range(int(rng.integers(3, 10))):
        rotations.append(Rotation(random_string(rng, n_work, True),
                                  float(rng.normal()),
                                  int(rng.integers(n_params))))
    # Parameter 0 mixes a rotation that anticommutes with a planted
    # symmetry and one that commutes with all, with negative coefficients
    # so the screened term would be a -0.0.
    v = planted[0]
    for wanted in (True, False):
        while True:
            string = random_string(rng, n_work, True)
            if anticommutes(string, v, n_work) == wanted and (
                    wanted or not any(anticommutes(string, u, n_work)
                                      for u in planted)):
                break
        rotations.insert(int(rng.integers(len(rotations) + 1)),
                         Rotation(string, -abs(float(rng.normal())), 0))
    circuit = AnsatzCircuit(n_work, tuple(rotations), n_params)

    amps = np.zeros(1 << n, dtype=complex)
    for label in range(1 << n_label):
        det = int(rng.integers(1 << n_work))
        amps[(det << n_label) | label] = rng.normal() + 1j * rng.normal()
        if rng.random() < 0.5:
            # a second basis state in the same eigenspace of every
            # symmetry: the image of det under one term of H
            string = list(terms)[int(rng.integers(len(terms)))]
            partner = det ^ x_mask(string, n_work)
            amps[(partner << n_label) | label] += rng.normal()
        if straddle and rng.random() < 0.5:
            partner = det ^ int(rng.integers(1, 1 << n_work))
            amps[(partner << n_label) | label] += rng.normal()
    initial = StateVector(n, amps / np.linalg.norm(amps))
    return h, circuit, initial


def label_bits(h, circuit, n):
    """The bits of a n-qubit register that no term and no rotation flips."""
    flipped = 0
    for string in chain((s for s, _ in h.items()),
                        (rot.string for rot in circuit.rotations)):
        flipped |= x_mask(string, n)
    return ((1 << n) - 1) & ~flipped


def flagged_parameters(h, circuit):
    """Per Z2 symmetry of H (the oracle's basis) that some rotation
    anticommutes with: the parameters of those rotations."""
    n = h.n_qubits
    flagged = []
    for v in z2_symmetries([x_mask(s, n) for s, _ in h.items()], n):
        params = sorted({rot.parameter_index for rot in circuit.rotations
                         if anticommutes(rot.string, v, n)})
        if params:
            flagged.append(np.array(params, dtype=np.intp))
    return flagged


def theta_cases(rng, h, circuit):
    """theta zero on all, some and none of each anticommuting set."""
    count = circuit.parameter_count
    zero = np.zeros(count)
    zero[rng.random(count) < 0.5] = -0.0
    cases = [zero]
    for _ in range(3):
        theta = rng.uniform(-1.0, 1.0, count)
        for params in flagged_parameters(h, circuit):
            if rng.random() < 0.5:
                theta[params] = 0.0
        cases.append(theta)
    cases.append(rng.uniform(-1.0, 1.0, count))
    return cases


def bit_parity(values, mask):
    """parity(v & mask) of each v, one bit at a time."""
    values = np.asarray(values) & mask
    out = np.zeros_like(values)
    while np.any(values):
        out ^= values & 1
        values = values >> 1
    return out


def z2_reading(h, circuit, initial, theta):
    """The rows and skipped rotations of theta by brute force: the Z masks
    that commute with every term of H and every rotation whose parameter
    is nonzero, those under which every branch (the nonzero amplitudes
    that share the label bits) has one parity, and the register indices
    that match a branch's label and its parity under each of them.  A
    rotation is skipped when it anticommutes with one of them."""
    n = initial.n_qubits
    acting = [x_mask(s, n) for s, _ in h.items()] + [
        x_mask(rot.string, n) for rot in circuit.rotations
        if theta[rot.parameter_index] != 0]
    group = [0]
    for v in z2_symmetries(acting, n):
        group += [z ^ v for z in group]
    kept = label_bits(h, circuit, n)
    occupied = np.flatnonzero(initial.amplitudes)
    on = [z for z in group
          if all(len(set(bit_parity(occupied[occupied & kept == label], z)))
                 == 1 for label in set((occupied & kept).tolist()))]
    index = np.arange(1 << n)
    selected = np.zeros(index.size, dtype=bool)
    for b in occupied.tolist():
        match = (index & kept) == (b & kept)
        for z in on:
            match &= bit_parity(index, z) == bit_parity(b, z)
        selected |= match
    skipped = [r for r, rot in enumerate(circuit.rotations)
               if any(anticommutes(rot.string, z, n) for z in on)]
    return np.flatnonzero(selected).tolist(), skipped


def assert_z2_reading(screen, h, circuit, initial, theta):
    rows, skipped = z2_reading(h, circuit, initial, theta)
    sector = screen.sector(theta)
    assert sector.rows.tolist() == rows
    runs = set(sector.order)
    assert [r for r in range(len(circuit.rotations)) if r not in runs] == skipped


class TestScreenedSweep:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_unscreened_and_string_route(self, seed):
        rng = np.random.default_rng(seed)
        h, circuit, initial = planted_problem(rng)
        screen = symmetry_screen(circuit, h, initial)
        # parameter 0 anticommutes with a planted symmetry of H
        zero = np.zeros(circuit.parameter_count)
        assert len(screen.sector(zero).order) < len(circuit.rotations)
        for theta in theta_cases(rng, h, circuit):
            assert_bits_of_both_oracles(circuit, theta, h, initial, screen)

    def test_mixed_parameter_keeps_its_unscreened_rotation(self):
        # X0 anticommutes with Z0, Z1 does not; both drive parameter 0.
        n = 2
        h = PauliSum(n, {PauliString.from_word(n, "Z0"): 0.7,
                         PauliString.from_word(n, "X1"): 0.4})
        circuit = AnsatzCircuit(n, (
            Rotation(PauliString.from_word(n, "Y0"), -0.5, 0),
            Rotation(PauliString.from_word(n, "Y1"), -0.25, 0)), 1)
        initial = StateVector(n, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        screen = symmetry_screen(circuit, h, initial)
        assert screen.sector(np.zeros(1)).order == [1]
        for theta in (np.zeros(1), np.array([-0.0]), np.array([0.3])):
            screened = value_and_gradient(circuit, theta, h, initial, screen)
            oracle = string_value_and_gradient(circuit, theta, h, initial)
            assert same_bits(screened[1], oracle[1])
        assert screened[1][0] != 0.0


class TestZ2Reading:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_and_skips_of_planted_problems(self, seed):
        rng = np.random.default_rng(seed)
        h, circuit, initial = planted_problem(rng, straddle=True)
        screen = symmetry_screen(circuit, h, initial)
        for theta in theta_cases(rng, h, circuit):
            assert_z2_reading(screen, h, circuit, initial, theta)
            assert_bits_of_both_oracles(circuit, theta, h, initial, screen)


class TestSymmetries:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_null_space_of_random_sums(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        strings = [random_string(rng, n) for _ in range(int(rng.integers(8)))]
        masks = [x_mask(s, n) for s in strings]
        found = z2_symmetries(masks, n)
        for v in found:
            assert not any(anticommutes(s, v, n) for s in strings)
        # the basis spans every commuting Z-string, each exactly once
        commuting = [z for z in range(1 << n)
                     if not any(anticommutes(s, z, n) for s in strings)]
        span = {0}
        for v in found:
            span |= {z ^ v for z in span}
        assert len(span) == 1 << len(found)
        assert sorted(span) == commuting
        # gf2_span spans the masks, whose complement the symmetries are:
        # a mask lies in it exactly when it commutes with every symmetry
        basis = gf2_span(masks)
        assert all(not row & ~((2 << pivot) - 1) and row >> pivot & 1
                   and not any(other >> pivot & 1 for p, other in basis.items()
                               if p != pivot)
                   for pivot, row in basis.items())
        for m in range(1 << n):
            assert (gf2_reduce(m, basis) == 0) == all(
                bin(m & v).count("1") % 2 == 0 for v in found)
        # the reduced basis is the same whatever the order of the masks
        assert gf2_span(masks[::-1]) == basis

    @pytest.mark.parametrize("name,m_spatial,sector,n_sym,screened,total",
                             STORED)
    def test_stored_hamiltonians(self, name, m_spatial, sector, n_sym,
                                 screened, total):
        h = load_hamiltonian(data_path("hamiltonians", name))
        found = z2_symmetries([x_mask(s, h.n_qubits) for s, _ in h.items()],
                              h.n_qubits)
        assert len(found) == n_sym
        for v in found:
            assert not any(anticommutes(s, v, h.n_qubits) for s, _ in h.items())
        circuit = build_uccgsd(enumerate_sz_excitations(m_spatial))
        refs = select_reference_determinants(h, sector[0], sector[1], 4)
        initial = build_purified_prep(default_weights(4), refs).prepare()
        screen = symmetry_screen(circuit, h, initial)
        runs = set(screen.sector(np.zeros(circuit.parameter_count)).order)
        skipped = [r not in runs for r in range(len(circuit.rotations))]
        assert (sum(skipped), len(circuit.rotations)) == (screened, total)
        # exactly the rotations that anticommute with a symmetry of H
        for rot, skip in zip(circuit.rotations, skipped):
            assert skip == any(anticommutes(rot.string, v, h.n_qubits)
                               for v in found)


@pytest.fixture(scope="module")
def h2_setup():
    h = load_hamiltonian(data_path("hamiltonians", "h2_0.70.ham"))
    circuit = build_uccgsd(enumerate_sz_excitations(2))
    refs = select_reference_determinants(h, 2, 0.0, 4)
    prep = build_purified_prep(default_weights(4), refs)
    return h, circuit, prep


class TestPremise:
    def test_straddled_symmetry_is_left_out(self, h2_setup):
        h, circuit, prep = h2_setup
        clean = prep.prepare()
        screen = symmetry_screen(circuit, h, clean)
        # Copy label 0's amplitude onto the basis state with qubit 0
        # flipped, which flips the particle-number parity: the branch now
        # straddles two eigenspaces of every symmetry that holds Z0, and
        # the flip joins the span.
        top = 1 << (clean.n_qubits - 1)
        index = prep.mapped_indices()[0]
        amps = clean.amplitudes.copy()
        amps[index ^ top] = amps[index]
        straddling = StateVector(clean.n_qubits, amps / np.linalg.norm(amps))
        left = symmetry_screen(circuit, h, straddling)
        assert gf2_reduce(top, screen.flips) and not gf2_reduce(top,
                                                                left.flips)
        for theta in (np.zeros(circuit.parameter_count), perturbed(circuit)):
            rows = screen.sector(theta).rows
            assert left.sector(theta).rows.tolist() == sorted(
                set(rows.tolist()) | set((rows ^ top).tolist()))
            assert_z2_reading(left, h, circuit, straddling, theta)
            assert_bits_of_both_oracles(circuit, theta, h, straddling)

    def test_premise_matters(self):
        # H = X0 X1 + Z0 Z1 has the one symmetry Z0 Z1, and Y0
        # anticommutes with it.  On (|00> + |01>)/sqrt 2 the gradient at
        # theta = 0 is 2 c <Z0 X1> = 1, which the basis state's screen
        # would drop.
        n = 2
        h = PauliSum(n, {PauliString.from_word(n, "X0 X1"): 1.0,
                         PauliString.from_word(n, "Z0 Z1"): 0.5})
        circuit = AnsatzCircuit(n, (
            Rotation(PauliString.from_word(n, "Y0"), 0.5, 0),), 1)
        basis = StateVector(n, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        straddling = StateVector(
            n, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0))
        theta = np.zeros(1)
        screen = symmetry_screen(circuit, h, basis)
        assert screen.sector(theta).rows.tolist() == [0b00, 0b11]
        assert screen.sector(theta).order == []
        left = symmetry_screen(circuit, h, straddling)
        assert left.sector(theta).rows.tolist() == [0, 1, 2, 3]
        assert left.sector(theta).order == [0]
        plain = value_and_gradient(circuit, theta, h, straddling, left)[1]
        wrong = value_and_gradient(circuit, theta, h, straddling, screen)[1]
        assert plain[0] == pytest.approx(1.0) and wrong[0] == 0.0
        assert_bits_of_both_oracles(circuit, theta, h, straddling)

    def test_every_symmetry_left_out_keeps_the_label_rows(self, h2_setup):
        # On the working register alone no label bit pins a symmetry, so
        # the branch can straddle all of them: the basis state and its
        # images under each single flip of a bit that H or a rotation
        # flips.
        h, circuit, _ = h2_setup
        n = h.n_qubits
        kept = label_bits(h, circuit, n)
        flips = [1 << q for q in range(n) if not kept >> q & 1]
        amps = np.zeros(1 << n, dtype=complex)
        amps[[0] + flips] = 1.0
        straddling = StateVector(n, amps / np.linalg.norm(amps))
        screen = symmetry_screen(circuit, h, straddling)
        expected = [j for j in range(1 << n) if not j & kept]
        for theta in (np.zeros(circuit.parameter_count), perturbed(circuit)):
            assert screen.sector(theta).rows.tolist() == expected
            assert screen.sector(theta).order == list(
                range(len(circuit.rotations) - 1, -1, -1))
            assert_z2_reading(screen, h, circuit, straddling, theta)
            assert_bits_of_both_oracles(circuit, theta, h, straddling,
                                        screen)

    def test_no_anticommuting_rotation_skips_nothing(self, h2_setup):
        h, _, prep = h2_setup
        initial = prep.prepare()
        # Z strings flip nothing, so their mask 0 is in every span: the
        # screen still restricts to rows but skips no rotation.
        circuit = AnsatzCircuit(4, (
            Rotation(PauliString.from_word(4, "Z0 Z1"), 0.5, 0),), 1)
        screen = symmetry_screen(circuit, h, initial)
        assert screen.sector(np.zeros(1)).order == [0]
        theta = np.array([0.3])
        assert screen.sector(theta).order == [0]
        assert screen.sector(theta).rows.size < 1 << initial.n_qubits
        assert_bits_of_both_oracles(circuit, theta, h, initial, screen)

    def test_straddled_always_on_symmetry_is_left_out(self, h2_setup):
        h, circuit, prep = h2_setup
        clean = prep.prepare()
        screen = symmetry_screen(circuit, h, clean)
        n = clean.n_qubits
        kept = label_bits(h, circuit, n)
        symmetries = z2_symmetries([x_mask(s, n) for s, _ in h.items()], n)
        flagged = [v for v in symmetries if any(
            anticommutes(rot.string, v, n) for rot in circuit.rotations)]
        always_on = [v for v in symmetries if v not in flagged]
        # a bit flip that leaves the label bits alone and changes the
        # parity under an always-on symmetry but under no flagged one
        flip = next(d for d in range(1, 1 << n) if not d & kept
                    and any(parity(d & v) for v in always_on)
                    and not any(parity(d & v) for v in flagged))
        index = prep.mapped_indices()[0]
        amps = clean.amplitudes.copy()
        amps[index ^ flip] = amps[index]
        straddling = StateVector(n, amps / np.linalg.norm(amps))
        left = symmetry_screen(circuit, h, straddling)
        zero = np.zeros(circuit.parameter_count)
        # the flagged symmetries stay and still skip their rotations
        assert left.sector(zero).order == screen.sector(zero).order
        assert left.sector(zero).rows.size == 2 * screen.sector(zero).rows.size
        for theta in (zero, perturbed(circuit)):
            assert_z2_reading(left, h, circuit, straddling, theta)
            assert_bits_of_both_oracles(circuit, theta, h, straddling, left)


def parity(value):
    return bin(value).count("1") % 2


def without_screening(screen):
    """The screen's circuit, H and branches with every bit outside the
    label bits among its flips: its rows are every index that carries a
    branch's label, and as the span holds every rotation mask it skips no
    rotation."""
    n = screen.n_qubits
    kept = label_bits(screen.h, screen.circuit, n)
    return SymmetryScreen(screen.circuit, screen.h, n,
                          gf2_span(1 << q for q in range(n)
                                   if not kept >> q & 1),
                          ((),) * screen.circuit.parameter_count,
                          screen.representatives)


class TestDescent:
    def run(self, monkeypatch, h2_setup, screened):
        h, circuit, prep = h2_setup
        calls = []
        descents = []
        real_vg = driver.value_and_gradient
        real_descent = driver._adam_descent

        def spy_vg(circuit, theta, h, initial, screen, **kwargs):
            sector = screen.sector(theta)
            calls.append((len(descents), len(sector.order), sector.rows.size))
            return real_vg(circuit, theta, h, initial, screen, **kwargs)

        def spy_descent(*args, **kwargs):
            descents.append(kwargs["screen"])
            return real_descent(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(driver, "value_and_gradient", spy_vg)
            patch.setattr(driver, "_adam_descent", spy_descent)
            # Force one saddle probe after the first descent.
            patch.setattr(driver, "_is_ascending", lambda energies: False)
            patch.setattr(driver, "SADDLE_PROBES", 1)
            if not screened:
                patch.setattr(driver, "symmetry_screen",
                              lambda *args: without_screening(
                                  symmetry_screen(*args)))
            result = optimize(h, circuit, prep,
                              QpvqeConfig(max_iterations=40))
        return result, calls, descents

    def test_probe_descent_runs_unscreened(self, monkeypatch, h2_setup):
        total = len(h2_setup[1].rotations)
        result, calls, descents = self.run(monkeypatch, h2_setup,
                                           screened=True)
        # one screen, built once by optimize, reaches both descents
        assert len(descents) == 2 and descents[0] is descents[1]
        first = [(runs, rows) for descent, runs, rows in calls
                 if descent == 1]
        probe = [(runs, rows) for descent, runs, rows in calls
                 if descent == 2]
        assert first and probe
        assert all(runs < total and rows == 8 for runs, rows in first)
        assert all(runs == total and rows == 16 for runs, rows in probe)
        plain, plain_calls, _ = self.run(monkeypatch, h2_setup,
                                         screened=False)
        assert plain_calls
        # every index of the 6-qubit register carries a branch's label
        assert all(runs == total and rows == 64
                   for _, runs, rows in plain_calls)
        assert same_bits(result.theta_star, plain.theta_star)
        assert same_bits(result.ensemble_trace, plain.ensemble_trace)
        assert result.evaluations == plain.evaluations


# (Hamiltonian, spatial orbitals, sector, register size, rows with every
# parameter at 0, rows with every parameter active)
SECTORS = (("h2_0.70.ham", 2, (2, 0.0), 6, 8, 16),
           ("h4_0.90.ham", 4, (4, 0.0), 10, 128, 256),
           ("lih_1.60.ham", 5, (2, 0.0), 12, 256, 1024))


@pytest.fixture(scope="module", params=SECTORS,
                ids=lambda case: case[0].split("_")[0])
def stored_problem(request):
    name, m_spatial, sector, n, all_on, probe = request.param
    h = load_hamiltonian(data_path("hamiltonians", name))
    circuit = build_uccgsd(enumerate_sz_excitations(m_spatial))
    refs = select_reference_determinants(h, sector[0], sector[1], 4)
    initial = build_purified_prep(default_weights(4), refs).prepare()
    assert initial.n_qubits == n
    return h, circuit, initial, all_on, probe


def stored_thetas(h, circuit):
    """theta = 0 with -0.0 entries, random theta with every flagged
    symmetry's parameters at 0, and fully perturbed theta."""
    count = circuit.parameter_count
    rng = np.random.default_rng(7)
    zero = np.zeros(count)
    zero[rng.random(count) < 0.5] = -0.0
    masked = 0.1 * rng.standard_normal(count)
    for params in flagged_parameters(h, circuit):
        masked[params] = -0.0 if rng.random() < 0.5 else 0.0
    return zero, masked, 0.1 * rng.standard_normal(count)


class TestSectorRows:
    def test_rows_bit_identical_on_stored_problems(self, stored_problem):
        h, circuit, initial, all_on, probe = stored_problem
        screen = symmetry_screen(circuit, h, initial)
        for theta, size in zip(stored_thetas(h, circuit),
                               (all_on, all_on, probe)):
            assert screen.sector(theta).rows.size == size
            assert_bits_of_both_oracles(circuit, theta, h, initial, screen)
            # every energy the optimizer reads, backtracks included, on
            # the screen's cached sectors and on a fresh screen
            energy = value_and_gradient(circuit, theta, h, initial, screen)[0]
            assert same_bits(energy, value_and_gradient(
                circuit, theta, h, initial,
                symmetry_screen(circuit, h, initial))[0])
            assert same_bits(energy, full_register_value_and_gradient(
                circuit, theta, h, initial)[0])
            full_state = apply_ansatz(circuit, theta, initial.copy())
            assert abs(energy - expectation(h, full_state)) <= 1e-12

    def test_bound_keeps_energy_and_gradient_bits(self, stored_problem):
        # The optimizer's acceptance bound: above it no gradient is
        # computed, at or below it the gradient's bits are unchanged.
        h, circuit, initial = stored_problem[:3]
        screen = symmetry_screen(circuit, h, initial)
        for theta in stored_thetas(h, circuit):
            energy, grad = value_and_gradient(circuit, theta, h, initial,
                                              screen)
            for bound in (np.inf, energy + 1e-7, energy,
                          np.nextafter(energy, -np.inf), energy - 1e-7,
                          -np.inf, np.nan):
                value, bounded = value_and_gradient(
                    circuit, theta, h, initial, screen, bound=bound)
                assert same_bits(value, energy)
                if energy <= bound:
                    assert same_bits(bounded, grad)
                else:
                    assert bounded is None

    def test_rows_are_the_on_parity_sector_of_each_branch(self,
                                                          stored_problem):
        h, circuit, initial = stored_problem[:3]
        screen = symmetry_screen(circuit, h, initial)
        zero, masked, perturbed_theta = stored_thetas(h, circuit)
        # one flagged symmetry's parameters at 0, the rest active
        one_set = perturbed_theta.copy()
        one_set[flagged_parameters(h, circuit)[0]] = 0.0
        for theta in (zero, masked, one_set, perturbed_theta):
            assert_z2_reading(screen, h, circuit, initial, theta)

    def test_sector_compiled_once_per_screen_and_span(self, monkeypatch,
                                                      h2_setup):
        h, circuit, prep = h2_setup
        initial = prep.prepare()
        compiled = []
        real = ansatz._compile_sector

        def counting(screen, span):
            compiled.append((screen, tuple(sorted(span.values()))))
            return real(screen, span)

        monkeypatch.setattr(ansatz, "_compile_sector", counting)
        screens = [symmetry_screen(circuit, h, initial) for _ in range(2)]
        zero, masked, perturbed_theta = stored_thetas(h, circuit)
        for screen in screens:
            for _ in range(3):
                for theta in (zero, masked, perturbed_theta):
                    value_and_gradient(circuit, theta, h, initial, screen)
            # masked activates only rotations whose masks are in H's span
            assert screen.sector(masked) is screen.sector(zero)
        spans = [span for _, span in compiled[:2]]
        assert spans[0] != spans[1]
        assert compiled == [(screens[0], spans[0]), (screens[0], spans[1]),
                            (screens[1], spans[0]), (screens[1], spans[1])]

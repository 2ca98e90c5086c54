"""The symmetry-screened adjoint sweep against the full-register sweep and
the string route, bit for bit.

The screen skips rotations that anticommute with a Z2 symmetry of H while
all of them sit at theta = 0, and runs the elementwise work on the sector
rows of the symmetries that are on.  Both are allowed only because what
they leave out is exact zeros, so every comparison here is ``tobytes``
equality, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import full_register_value_and_gradient, string_value_and_gradient
from qpvqe import ansatz, driver
from qpvqe.ansatz import (AnsatzCircuit, Rotation, Symmetry, SymmetryScreen,
                          apply_ansatz, build_uccgsd, symmetry_screen,
                          value_and_gradient)
from qpvqe.driver import AdamConfig, QpvqeConfig, optimize
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import load_hamiltonian
from qpvqe.pauli import PauliString, PauliSum, z2_symmetries
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


def planted_problem(rng):
    """A random H on <= 6 working qubits that commutes with 1-2 planted
    Z-strings, a random circuit, and a purified-style initial state on up
    to two extra label qubits, one or two basis states per label."""
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
    initial = StateVector(n, amps / np.linalg.norm(amps))
    return h, circuit, initial


def theta_cases(rng, screen, count):
    """theta zero on all, some and none of each anticommuting set."""
    zero = np.zeros(count)
    zero[rng.random(count) < 0.5] = -0.0
    cases = [zero]
    for _ in range(3):
        theta = rng.uniform(-1.0, 1.0, count)
        for symmetry in screen.symmetries:
            if rng.random() < 0.5:
                theta[symmetry.params] = 0.0
        cases.append(theta)
    cases.append(rng.uniform(-1.0, 1.0, count))
    return cases


class TestScreenedSweep:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_unscreened_and_string_route(self, seed):
        rng = np.random.default_rng(seed)
        h, circuit, initial = planted_problem(rng)
        screen = symmetry_screen(circuit, h, initial)
        # parameter 0 anticommutes with a planted symmetry of H
        assert any(s.flags.any() for s in screen.symmetries)
        for theta in theta_cases(rng, screen, circuit.parameter_count):
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
        assert [s.flags.tolist() for s in screen.symmetries] == [[True, False]]
        for theta in (np.zeros(1), np.array([-0.0]), np.array([0.3])):
            screened = value_and_gradient(circuit, theta, h, initial, screen)
            oracle = string_value_and_gradient(circuit, theta, h, initial)
            assert same_bits(screened[1], oracle[1])
        assert screened[1][0] != 0.0


class TestSymmetries:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_null_space_of_random_sums(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        strings = [random_string(rng, n) for _ in range(int(rng.integers(8)))]
        found = z2_symmetries([x_mask(s, n) for s in strings], n)
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
        skipped = np.logical_or.reduce([s.flags for s in screen.symmetries])
        assert (int(skipped.sum()), len(circuit.rotations)) == (screened, total)
        # exactly the rotations that anticommute with a symmetry of H
        for rot, skip in zip(circuit.rotations, skipped.tolist()):
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
        # straddles two eigenspaces of every symmetry that holds Z0.
        top = 1 << (clean.n_qubits - 1)
        index = prep.mapped_indices()[0]
        amps = clean.amplitudes.copy()
        amps[index ^ top] = amps[index]
        straddling = StateVector(clean.n_qubits, amps / np.linalg.norm(amps))
        left = symmetry_screen(circuit, h, straddling)
        kept = [s.mask for s in screen.symmetries if not s.mask & top]
        assert 0 < len(kept) < len(screen.symmetries)
        assert [s.mask for s in left.symmetries] == kept
        for theta in (np.zeros(circuit.parameter_count), perturbed(circuit)):
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
        screen = symmetry_screen(circuit, h, basis)
        assert [s.mask for s in screen.symmetries] == [0b11]
        assert symmetry_screen(circuit, h, straddling).symmetries == ()
        theta = np.zeros(1)
        plain = value_and_gradient(circuit, theta, h, straddling)[1]
        wrong = value_and_gradient(circuit, theta, h, straddling, screen)[1]
        assert plain[0] == pytest.approx(1.0) and wrong[0] == 0.0
        assert_bits_of_both_oracles(circuit, theta, h, straddling)

    def test_every_symmetry_left_out_keeps_the_label_rows(self, h2_setup):
        # On the working register alone no label bit pins a symmetry, so
        # one branch can straddle all of them: its image under a flip d
        # that has odd parity with every symmetry.
        h, circuit, _ = h2_setup
        n = h.n_qubits
        basis = StateVector(n)
        full = symmetry_screen(circuit, h, basis)
        assert full.symmetries
        flip = next(d for d in range(1, 1 << n) if not d & full.kept
                    and all(parity(d & s.mask) for s in full.symmetries))
        amps = basis.amplitudes.copy()
        amps[flip] = 1.0
        straddling = StateVector(n, amps / np.linalg.norm(amps))
        screen = symmetry_screen(circuit, h, straddling)
        assert screen.symmetries == ()
        labels = {j & screen.kept for j in (0, flip)}
        expected = [j for j in range(1 << n) if j & screen.kept in labels]
        for theta in (np.zeros(circuit.parameter_count), perturbed(circuit)):
            assert screen.on(theta) == ()
            assert screen.sector(theta).rows.tolist() == expected
            assert screen.sector(theta).order == list(
                range(len(circuit.rotations) - 1, -1, -1))
            assert_bits_of_both_oracles(circuit, theta, h, straddling,
                                        screen)

    def test_no_anticommuting_rotation_skips_nothing(self, h2_setup):
        h, _, prep = h2_setup
        initial = prep.prepare()
        # Z strings commute with every Z2 symmetry: all are always on,
        # so the screen still restricts to rows but skips no rotation.
        circuit = AnsatzCircuit(4, (
            Rotation(PauliString.from_word(4, "Z0 Z1"), 0.5, 0),), 1)
        screen = symmetry_screen(circuit, h, initial)
        assert not any(s.flags.any() for s in screen.symmetries)
        theta = np.array([0.3])
        assert screen.sector(theta).order == [0]
        assert_bits_of_both_oracles(circuit, theta, h, initial, screen)

    def test_straddled_always_on_symmetry_is_left_out(self, h2_setup):
        h, circuit, prep = h2_setup
        clean = prep.prepare()
        screen = symmetry_screen(circuit, h, clean)
        n = clean.n_qubits
        always_on = [s.mask for s in screen.symmetries if not s.flags.any()]
        flagged = [s.mask for s in screen.symmetries if s.flags.any()]
        # a bit flip that leaves the label bits alone and changes the
        # parity under an always-on symmetry but under no flagged one
        flip = next(d for d in range(1, 1 << n) if not d & screen.kept
                    and any(parity(d & v) for v in always_on)
                    and not any(parity(d & v) for v in flagged))
        index = prep.mapped_indices()[0]
        amps = clean.amplitudes.copy()
        amps[index ^ flip] = amps[index]
        straddling = StateVector(n, amps / np.linalg.norm(amps))
        left = symmetry_screen(circuit, h, straddling)
        assert [s.mask for s in left.symmetries] == [
            s.mask for s in screen.symmetries if not parity(flip & s.mask)]
        # the flagged symmetries stay and still skip their rotations
        assert flagged and set(flagged) <= {s.mask for s in left.symmetries}
        zero = np.zeros(circuit.parameter_count)
        assert left.sector(zero).rows.size > screen.sector(zero).rows.size
        for theta in (zero, perturbed(circuit)):
            assert_bits_of_both_oracles(circuit, theta, h, straddling, left)


def parity(value):
    return bin(value).count("1") % 2


def without_symmetries(screen):
    """The screen's circuit, H and branches with no symmetry: its rows are
    the label rows and it skips no rotation."""
    return SymmetryScreen(screen.circuit, screen.h, screen.n_qubits,
                          screen.kept, (),
                          {label: () for label in screen.branches})


class TestDescent:
    def run(self, monkeypatch, h2_setup, screened):
        h, circuit, prep = h2_setup
        calls = []
        descents = []
        real_vg = driver.value_and_gradient
        real_descent = driver._adam_descent

        def spy_vg(circuit, theta, h, initial, screen):
            skips = any(s.flags.any() and not np.any(theta[s.params])
                        for s in screen.symmetries)
            calls.append((len(descents), len(screen.symmetries), skips))
            return real_vg(circuit, theta, h, initial, screen)

        def spy_descent(*args, **kwargs):
            descents.append(kwargs["screen"])
            return real_descent(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(driver, "value_and_gradient", spy_vg)
            patch.setattr(driver, "_adam_descent", spy_descent)
            # Force one saddle probe after the first descent.
            patch.setattr(driver, "_is_ascending", lambda energies: False)
            if not screened:
                patch.setattr(driver, "symmetry_screen",
                              lambda *args: without_symmetries(
                                  symmetry_screen(*args)))
            config = QpvqeConfig(max_iterations=40,
                                 adam=AdamConfig(saddle_probes=1))
            result = optimize(h, circuit, prep, config)
        return result, calls, descents

    def test_probe_descent_runs_unscreened(self, monkeypatch, h2_setup):
        result, calls, descents = self.run(monkeypatch, h2_setup,
                                           screened=True)
        # one screen, built once by optimize, reaches both descents
        assert len(descents) == 2 and descents[0] is descents[1]
        first = [c for c in calls if c[0] == 1]
        probe = [c for c in calls if c[0] == 2]
        assert first and probe
        assert all(count and skips for _, count, skips in first)
        assert all(count and not skips for _, count, skips in probe)
        plain, plain_calls, _ = self.run(monkeypatch, h2_setup,
                                         screened=False)
        assert plain_calls
        assert not any(count or skips for _, count, skips in plain_calls)
        assert same_bits(result.theta_star, plain.theta_star)
        assert same_bits(result.ensemble_trace, plain.ensemble_trace)
        assert result.evaluations == plain.evaluations


# (Hamiltonian, spatial orbitals, sector, register size, rows with every
# symmetry on, rows with the always-on symmetries only, whether two
# symmetries share one flag set)
SECTORS = (("h2_0.70.ham", 2, (2, 0.0), 6, 8, 32, True),
           ("h4_0.90.ham", 4, (4, 0.0), 10, 128, 512, True),
           ("lih_1.60.ham", 5, (2, 0.0), 12, 256, 2048, False))


@pytest.fixture(scope="module", params=SECTORS,
                ids=lambda case: case[0].split("_")[0])
def stored_problem(request):
    name, m_spatial, sector, n, all_on, always_on, shared = request.param
    h = load_hamiltonian(data_path("hamiltonians", name))
    circuit = build_uccgsd(enumerate_sz_excitations(m_spatial))
    refs = select_reference_determinants(h, sector[0], sector[1], 4)
    initial = build_purified_prep(default_weights(4), refs).prepare()
    assert initial.n_qubits == n
    return h, circuit, initial, all_on, always_on, shared


def stored_thetas(screen, count):
    """theta = 0 with -0.0 entries, random theta with every flagged
    symmetry's parameters at 0, and fully perturbed theta."""
    rng = np.random.default_rng(7)
    zero = np.zeros(count)
    zero[rng.random(count) < 0.5] = -0.0
    masked = 0.1 * rng.standard_normal(count)
    for symmetry in screen.symmetries:
        masked[symmetry.params] = -0.0 if rng.random() < 0.5 else 0.0
    return zero, masked, 0.1 * rng.standard_normal(count)


class TestSectorRows:
    def test_rows_bit_identical_on_stored_problems(self, stored_problem):
        h, circuit, initial, all_on, always_on, shared = stored_problem
        screen = symmetry_screen(circuit, h, initial)
        everything = tuple(range(len(screen.symmetries)))
        constant = tuple(i for i, s in enumerate(screen.symmetries)
                         if not s.flags.any())
        # two symmetries sharing one flag set are both kept (H2 and H4)
        flag_sets = [s.flags.tobytes() for s in screen.symmetries
                     if s.flags.any()]
        assert (len(set(flag_sets)) < len(flag_sets)) == shared
        for theta, on, size in zip(stored_thetas(screen,
                                                 circuit.parameter_count),
                                   (everything, everything, constant),
                                   (all_on, all_on, always_on)):
            assert screen.on(theta) == on
            assert screen.sector(theta).rows.size == size
            assert_bits_of_both_oracles(circuit, theta, h, initial, screen)
            # the backtrack route: rows scattered into one state
            rows_state = apply_ansatz(circuit, theta, initial.copy(), screen)
            full_state = apply_ansatz(circuit, theta, initial.copy())
            assert np.array_equal(rows_state.amplitudes, full_state.amplitudes)
            assert same_bits(driver._energy_only(circuit, theta, h, initial,
                                                 screen),
                             driver._energy_only(circuit, theta, h, initial))

    def test_rows_are_the_on_parity_sector_of_each_branch(self,
                                                          stored_problem):
        h, circuit, initial = stored_problem[:3]
        screen = symmetry_screen(circuit, h, initial)
        n = initial.n_qubits
        occupied = np.flatnonzero(initial.amplitudes).tolist()
        for theta in stored_thetas(screen, circuit.parameter_count)[1:]:
            on = [screen.symmetries[i].mask for i in screen.on(theta)]
            expected = [j for j in range(1 << n) if any(
                j & screen.kept == b & screen.kept
                and all(parity(j & v) == parity(b & v) for v in on)
                for b in occupied)]
            assert screen.sector(theta).rows.tolist() == expected

    def test_rows_do_not_depend_on_the_symmetry_basis(self, h2_setup):
        # z2_symmetries lists Z_q of every label bit q on its own, so its
        # parities alone pin the labels.  In another basis of the same
        # group, Z_q + S of a flagged S is off with S; the label check
        # must then pin the labels instead.  K = 3 leaves label 3 empty.
        h, circuit, _ = h2_setup
        refs = select_reference_determinants(h, 2, 0.0, 3)
        initial = build_purified_prep(default_weights(3), refs).prepare()
        screen = symmetry_screen(circuit, h, initial)
        flagged = next(s for s in screen.symmetries if s.flags.any())
        mixed = tuple(
            Symmetry(s.mask ^ flagged.mask, flagged.params, flagged.flags)
            if not s.mask & ~screen.kept else s for s in screen.symmetries)
        assert mixed != screen.symmetries
        occupied = np.flatnonzero(initial.amplitudes).tolist()
        other = SymmetryScreen(circuit, h, screen.n_qubits, screen.kept,
                               mixed, {b & screen.kept: tuple(
                                   parity(b & s.mask) for s in mixed)
                                   for b in occupied})
        for theta in stored_thetas(screen, circuit.parameter_count):
            assert same_bits(other.sector(theta).rows,
                             screen.sector(theta).rows)
            assert same_bits(
                value_and_gradient(circuit, theta, h, initial, other)[1],
                full_register_value_and_gradient(circuit, theta, h,
                                                 initial)[1])

    def test_sector_compiled_once_per_screen_and_on_set(self, monkeypatch,
                                                        h2_setup):
        h, circuit, prep = h2_setup
        initial = prep.prepare()
        compiled = []
        real = ansatz._compile_sector

        def counting(screen, on):
            compiled.append((screen, on))
            return real(screen, on)

        monkeypatch.setattr(ansatz, "_compile_sector", counting)
        screens = [symmetry_screen(circuit, h, initial) for _ in range(2)]
        for screen in screens:
            for _ in range(3):
                for theta in stored_thetas(screen, circuit.parameter_count):
                    value_and_gradient(circuit, theta, h, initial, screen)
                    driver._energy_only(circuit, theta, h, initial, screen)
        everything = tuple(range(len(screens[0].symmetries)))
        constant = tuple(i for i, s in enumerate(screens[0].symmetries)
                         if not s.flags.any())
        assert compiled == [(screens[0], everything),
                            (screens[0], constant),
                            (screens[1], everything),
                            (screens[1], constant)]

"""Tests of the benchmark's independent references.

    python3 -m pytest bench -q

The Kronecker-product matrices built here are a second, separate route to
the same operators as reference.py's bit arithmetic.
"""

import functools
import glob
import json
import os

import numpy as np
import pytest

import reference
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HAMILTONIANS = sorted(glob.glob(os.path.join(ROOT, "data", "hamiltonians",
                                             "*.ham")))
ELECTRONS = {"h2": 2, "lih": 2, "h4": 4}  # active electrons per molecule
PAULI = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


def kron_matrix(path: str) -> np.ndarray:
    """Dense H as a sum of Kronecker products, straight from the file."""
    with open(path) as fh:
        lines = [l.split("#")[0].strip() for l in fh]
    lines = [l for l in lines if l]
    n = int(lines[0].split()[1])
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for line in lines[1:]:
        coeff, _, word = line.partition(" ")
        letters = ["I"] * n
        for factor in word.split():
            if factor != "I":
                letters[int(factor[1:])] = factor[0]
        out += float(coeff) * functools.reduce(
            np.kron, [PAULI[letter] for letter in letters])
    return out


def electrons(path: str) -> int:
    return ELECTRONS[os.path.basename(path).split("_")[0]]


@pytest.mark.parametrize("path", HAMILTONIANS, ids=os.path.basename)
def test_ground_energy_lies_below_rhf(path):
    h = reference.load(path)
    assert h.rhf_energy is not None
    ground = reference.sector_ed(h, electrons(path), 0.0)[0]
    assert ground < h.rhf_energy


@pytest.mark.parametrize("path", [p for p in HAMILTONIANS if "h2_" in p],
                         ids=os.path.basename)
def test_sector_ed_agrees_with_full_space_eigensolve(path):
    h = reference.load(path)
    dense = kron_matrix(path)
    full = np.linalg.eigvalsh(dense)
    sector = reference.sector_basis(4, 2, 0.0)
    rest = [b for b in range(16) if b not in sector]
    assert np.max(np.abs(dense[np.ix_(rest, sector)])) < 1e-14
    energies = reference.sector_ed(h, 2, 0.0)
    np.testing.assert_allclose(
        energies, np.linalg.eigvalsh(dense[np.ix_(sector, sector)]),
        atol=1e-12)
    for e in energies:
        assert np.min(np.abs(full - e)) < 1e-10


@pytest.mark.parametrize("name", ["h2_0.70.ham", "h4_0.90.ham"])
def test_dense_matrix_matches_kronecker_products(name):
    path = os.path.join(ROOT, "data", "hamiltonians", name)
    np.testing.assert_allclose(reference.dense_matrix(reference.load(path)),
                               kron_matrix(path), atol=1e-13)


def test_identity_coefficient_is_normalized_trace():
    path = os.path.join(ROOT, "data", "hamiltonians", "h2_0.70.ham")
    h = reference.load(path)
    assert abs(h.identity_coefficient()
               - np.trace(kron_matrix(path)).real / 16) < 1e-14


def test_number_and_sz_count_interleaved_spins():
    state = np.zeros(16, dtype=complex)
    state[0b1100] = np.sqrt(0.5)    # alpha 0, beta 0: N=2, Sz=0
    state[0b1010] = np.sqrt(0.5)    # alpha 0, alpha 1: N=2, Sz=1
    n_mean, sz_mean = reference.number_and_sz(state)
    assert abs(n_mean - 2) < 1e-15 and abs(sz_mean - 0.5) < 1e-15


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, *_, unit in run.SPAN_METRICS}
    reported.update({name: unit for name, *_, unit in run.COUNTER_METRICS})
    reported[run.OVERHEAD_METRIC[0]] = run.OVERHEAD_METRIC[1]
    assert per_layer == reported
    assert [w["name"] for w in spec["workloads"]] == [
        "h2_sweep", "lih_spectrum", "lih_readout", "noisy_h2"]

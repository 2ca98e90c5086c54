import os

import pytest

from qpvqe.ansatz import build_uccgsd
from qpvqe.driver import QpvqeConfig, optimize
from qpvqe.fermion import enumerate_sz_excitations
from qpvqe.harness import exact_diagonalize, load_hamiltonian
from qpvqe.state_prep import (build_purified_prep, default_weights,
                              select_reference_determinants)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def data_path(*parts):
    return os.path.join(DATA_DIR, *parts)


class Problem:
    """One Hamiltonian with its circuit, references, prep, and ED oracle."""

    def __init__(self, name, m_spatial, sector, k=4, max_iterations=5000):
        self.hamiltonian_path = data_path("hamiltonians", name)
        self.h = load_hamiltonian(self.hamiltonian_path)
        self.sector = sector
        self.k = k
        self.generators = enumerate_sz_excitations(m_spatial)
        self.circuit = build_uccgsd(self.generators)
        self.refs = select_reference_determinants(self.h, sector[0], sector[1], k)
        self.weights = default_weights(k)
        self.prep = build_purified_prep(self.weights, self.refs)
        self.ed = exact_diagonalize(self.h, sector=sector, k=k)
        self.config = QpvqeConfig(max_iterations=max_iterations)

    def optimize(self):
        return optimize(self.h, self.circuit, self.prep, self.config)


@pytest.fixture(scope="session")
def h2_problem():
    return Problem("h2_0.70.ham", 2, (2, 0.0))


@pytest.fixture(scope="session")
def h2_result(h2_problem):
    return h2_problem.optimize()

"""Classical simulation engine for weight-purified ensemble VQE spectra.

The pieces compose bottom-up: Pauli algebra (`pauli`), a dense statevector
simulator (`statevector`), Jordan-Wigner fermions and excitation
generators (`fermion`), the coupled-cluster rotation circuit (`ansatz`),
purified ensemble preparation (`state_prep`), the spectral driver
(`driver`), gap/transition measurements (`observables`), the noisy
density-matrix path (`noise`), and file/oracle tooling plus the CLI
(`harness`, `cli`).
"""

from .pauli import PauliString, PauliSum, expectation, to_matrix
from .statevector import GateOp, StateVector, init_basis
from .fermion import (ExcitationGenerator, FermionTerm,
                      enumerate_sz_excitations, jordan_wigner)
from .ansatz import AnsatzCircuit, apply_ansatz, build_uccgsd
from .state_prep import (PurifiedPrep, ReferenceSet, WeightVector,
                         build_purified_prep, default_weights,
                         prepare_purified, select_reference_determinants)
from .driver import (QpvqeConfig, SpectrumResult, SpsaConfig,
                     ensemble_energy, error_bound, extract_eigenpairs,
                     optimize)
from .observables import energy_gap, prepare_pair, transition_amplitude
from .noise import (CalibrationData, DensityMatrix, ShotSampler,
                    load_calibration, noisy_ensemble_energy, spsa_optimize)
from .harness import exact_diagonalize, load_hamiltonian, parse_hamiltonian

__version__ = "0.1.0"

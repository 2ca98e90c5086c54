#!/usr/bin/env python3
"""Noisy-gate H2 experiment: SPSA on the reduced two-double ansatz.

Runs ``qpvqe noisy-run`` (seeded SPSA of the ensemble energy under the
device calibration noise model, 10^4 shots per term) into a temporary
record and trace, then prints where the stabilized energy sits relative
to the exact ensemble value and the totally mixed reference Tr(H)/2^n.
"""

import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qpvqe.cli import run_cli  # noqa: E402
from qpvqe.harness import (exact_diagonalize, load_hamiltonian,  # noqa: E402
                           parse_record, record_get)
from qpvqe.state_prep import default_weights  # noqa: E402

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "..", "data")


def main(seed=42, iterations=400, shots=10_000):
    hamiltonian = os.path.join(DATA, "hamiltonians", "h2_0.70.ham")
    with tempfile.TemporaryDirectory() as tmp:
        record = os.path.join(tmp, "noisy.rec")
        trace = os.path.join(tmp, "trace.csv")
        code = run_cli([
            "noisy-run", "--hamiltonian", hamiltonian, "--calibration",
            os.path.join(DATA, "calibration", "ibmq_manila.cal"),
            "--sector", "2,0", "-k", "4", "--shots", str(shots),
            "--iterations", str(iterations), "--seed", str(seed),
            "--out", record, "--trace-out", trace])
        if code:
            return code
        with open(record) as fh:
            mixed = float(record_get(parse_record(fh.read()), "totally_mixed"))
        values = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=1)
    ed = exact_diagonalize(load_hamiltonian(hamiltonian), sector=(2, 0.0), k=4)
    exact_ensemble = float(np.dot(default_weights(4).w, ed.energies))
    trailing = float(np.mean(values[-100:]))
    print(f"exact ensemble          : {exact_ensemble:.6f} Ha")
    print(f"trailing-100 mean (SPSA): {trailing:.6f} Ha")
    print(f"totally mixed Tr(H)/2^n : {mixed:.6f} Ha")
    print(f"stabilized between exact and mixed: "
          f"{exact_ensemble < trailing < mixed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

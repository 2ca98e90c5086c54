#!/usr/bin/env python3
"""Mutation check: every listed mutant must be caught by its tests.

Each mutant is one exact string replacement in one file.  For each, the
repository is copied to a temporary directory, the anchor (which must
occur exactly once) is replaced, and the mutant's tests run there with
``PYTHONPATH=src``.  A mutant is killed when pytest reports failing tests
(exit code 1); it survives when they pass.  Any other outcome (a missing
or repeated anchor, a collection error, no tests selected) is an error.

    python scripts/mutants.py

Exits 0 when every mutant is killed, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", "results", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str                  # relative to the repository root
    anchor: str
    replacement: str
    tests: Tuple[str, ...]     # pytest arguments


SCREEN_TESTS = ("tests/test_screen.py",)
ROW_TESTS = ("tests/test_rows.py",)
NOISY_ROW_TESTS = ("tests/test_noisy_rows.py",)

MUTANTS = (
    # The symmetry screen (ansatz.symmetry_screen, SymmetryScreen.sector,
    # _compile_sector).
    Mutant("screen-premise-dropped", "src/qpvqe/ansatz.py",
           "gf2_span(h_masks + premise)", "gf2_span(h_masks)", SCREEN_TESTS),
    Mutant("screen-skips-against-h-span", "src/qpvqe/ansatz.py",
           "flip_mask(rot.string, screen.n_qubits), span)",
           "flip_mask(rot.string, screen.n_qubits), screen.flips)",
           SCREEN_TESTS),
    Mutant("screen-row-doubling-short", "src/qpvqe/ansatz.py",
           "for row in span.values():",
           "for row in list(span.values())[1:]:", SCREEN_TESTS),
    Mutant("screen-positive-theta-active", "src/qpvqe/ansatz.py",
           "active = theta != 0", "active = theta > 0", SCREEN_TESTS),
    # apply_ansatz on the reachable rows (_batch_sector, _evolve_batch).
    Mutant("batch-span-premise-dropped", "src/qpvqe/ansatz.py",
           "gf2_span(chain(premise, active))", "gf2_span(active)",
           ROW_TESTS),
    Mutant("batch-scatter-other-state", "src/qpvqe/ansatz.py",
           "amplitudes[sector.rows] = psi[b]",
           "amplitudes[sector.rows] = psi[b - 1]", ROW_TESTS),
    # Full-length reductions: BLAS sums a vdot by index position.
    Mutant("vdot-on-compressed-rows", "src/qpvqe/ansatz.py",
           "return np.vdot(bra, ket)", "return np.vdot(a, b)",
           SCREEN_TESTS),
    # The Adam step after a backtrack must use the accepted attempt's
    # gradient; LiH backtracks in 32 of its 203 iterations.
    Mutant("backtrack-keeps-proposal-gradient", "src/qpvqe/driver.py",
           """            energy_new, grad_new = value_and_gradient(circuit, theta_new, h,
                                                      initial, screen)
""",
           """            energy_new, grad_try = value_and_gradient(circuit, theta_new, h,
                                                      initial, screen)
            grad_new = grad_try if attempt == 0 else grad_new
""",
           ("tests/test_acceptance.py", "-k",
            "stored_benchmark_record")),
    # Pauli algebra: the phase rule that multiply and Jordan-Wigner share
    # (pauli.product_power), and the listing order of sorted_terms.
    Mutant("product-phase-term-swapped", "src/qpvqe/pauli.py",
           "2 * (az & bx).bit_count()", "2 * (ax & bz).bit_count()",
           ("tests/test_pauli.py",)),
    Mutant("phase-rule-product-y-from-factors", "src/qpvqe/pauli.py",
           "- ((ax ^ bx) & (az ^ bz)).bit_count()",
           "- ((ax & az) ^ (bx & bz)).bit_count()",
           ("tests/test_fermion.py", "tests/test_ansatz.py::TestBuildUccgsd::"
            "test_rotation_string_order_frozen")),
    Mutant("listing-key-prefix-tiebreak-dropped", "src/qpvqe/pauli.py",
           "            support.bit_count())", "            0)",
           ("tests/test_pauli.py", "-k", "SortedTerms")),
    Mutant("letters-y-z-swapped", "src/qpvqe/pauli.py",
           '"Y": (1, 1), "Z": (0, 1)}', '"Y": (0, 1), "Z": (1, 1)}',
           ("tests/test_pauli.py",)),
    # Preparation gates.
    Mutant("ry-negative-angle", "src/qpvqe/statevector.py",
           "plan.rotate(view, gate.angle)", "plan.rotate(view, -gate.angle)",
           ("tests/test_statevector.py",)),
    Mutant("controls-sliced-ascending", "src/qpvqe/statevector.py",
           "sorted(gate.controls, reverse=True)", "sorted(gate.controls)",
           ("tests/test_statevector.py",)),
    # The noisy ansatz on the reachable rows of vec(rho) (_vec_sector,
    # _compile_vec_sector).
    Mutant("vec-span-paired-flips-dropped", "src/qpvqe/noise.py",
           "flips.update(paired)", "flips.update(())", NOISY_ROW_TESTS),
    Mutant("vec-column-half-on-row-masks", "src/qpvqe/noise.py",
           "PauliString(2 * n, *_register_masks(rot.string, n))",
           "PauliString(2 * n, *_register_masks(rot.string, 2 * n))",
           NOISY_ROW_TESTS),
    # Calibration records: pair 1,0 is pair 0,1.
    Mutant("pair-key-unnormalized", "src/qpvqe/noise.py",
           "pairs[unique(pairs, (min(a, b), max(a, b)))]",
           "pairs[unique(pairs, (a, b))]",
           ("tests/test_noise.py", "-k", "Calibration")),
)


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived' or an error message."""
    with tempfile.TemporaryDirectory(prefix="qpvqe-mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        path = os.path.join(copy, mutant.path)
        with open(path) as fh:
            text = fh.read()
        count = text.count(mutant.anchor)
        if count != 1:
            return f"error: anchor occurs {count} times in {mutant.path}"
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {proc.returncode}: {' '.join(tail)}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        print(f"{mutant.name}: {outcome} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        bad += outcome != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The CI checks as one entry point, the same here and in CI.

    python scripts/check.py [step ...]

Runs the named steps (all of them by default) in the order of
``.github/workflows/tests.yml``, which calls this script once per step:

    tier1         the Tier-1 suite, with src on PYTHONPATH
    bench-tests   the benchmark harness tests
    mutants       scripts/mutants.py, every mutant killed by its tests
    smoke         the experiment scripts, the Hamiltonian generator (its
                  output parsed) and the installed ``qpvqe`` console script
    bench-rounds  one benchmark round per workload, each passing its JSON
                  check (``correct`` true and no failed operation)

Every command runs from the repository root with BLAS pinned to one
thread, as the benchmark runs.  The first failing step stops the run; a
wall-time table of the steps run follows.  Exits 0 when every step passes.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
WORKLOADS = ("lih_spectrum", "h2_sweep", "lih_readout", "noisy_h2")


class StepFailed(Exception):
    pass


def run(argv, capture=False, **env) -> str:
    """Run one command; its standard output is echoed and, with
    ``capture``, returned."""
    print("$", " ".join(argv), flush=True)
    proc = subprocess.run(argv, cwd=ROOT, text=True,
                          env=dict(os.environ, **ONE_BLAS_THREAD, **env),
                          stdout=subprocess.PIPE if capture else None)
    if capture:
        print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        raise StepFailed(f"{' '.join(argv)} exited {proc.returncode}")
    return proc.stdout if capture else ""


def tier1():
    path = os.environ.get("PYTHONPATH")
    run([sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "--durations=15"],
        PYTHONPATH="src" + (os.pathsep + path if path else ""))


def bench_tests():
    run([sys.executable, "-m", "pytest", "bench", "-q"])


def mutants():
    # Each mutant is one string replacement in a temporary copy of the
    # repository; the step fails when a mutant survives its tests or its
    # anchor no longer occurs exactly once.
    run([sys.executable, "scripts/mutants.py"])


def smoke():
    # The scripts import library names directly, so running them fails
    # when one of those names is deleted.  The generator's bytes depend on
    # the machine's LAPACK (the SCF fixes no sign gauge for the MOs), so
    # its output is parsed, not diffed against data/hamiltonians/.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qpvqe.harness import load_hamiltonian

    run([sys.executable, "scripts/noisy_h2.py"])
    run([sys.executable, "scripts/h2_dissociation.py"])
    with tempfile.TemporaryDirectory(prefix="qpvqe-hamiltonians-") as out:
        run([sys.executable, "scripts/gen_hamiltonians.py", "--out", out])
        paths = sorted(glob.glob(os.path.join(out, "*.ham")))
        if not paths:
            raise StepFailed("scripts/gen_hamiltonians.py wrote no .ham file")
        for path in paths:
            load_hamiltonian(path)
        print(len(paths), "Hamiltonians parsed")
    # pyproject's [project.scripts] entry, run once on the H2 spectrum
    qpvqe = shutil.which("qpvqe")
    if qpvqe is None:
        raise StepFailed("console script 'qpvqe' not found on PATH; "
                         "install the package (pip install -e .)")
    lines = run([qpvqe, "ed", "--hamiltonian", "data/hamiltonians/h2_0.70.ham",
                 "--sector", "2,0", "-k", "4"], capture=True).splitlines()
    if len(lines) != 4:
        raise StepFailed(f"qpvqe ed printed {len(lines)} lines, expected 4")


def bench_rounds():
    # The LiH record gate compares every theta entry with
    # bench/data/lih_1.60.rec; the others check the sweep, the readouts
    # and the noisy run against their references.  bench/run.py exits 0
    # even when a check fails, so each round's JSON last line is read.
    for workload in WORKLOADS:
        out = run([sys.executable, "bench/run.py", "--workload", workload,
                   "--seed", "0", "--seconds", "20", "--trace", "0"],
                  capture=True)
        result = json.loads(out.strip().splitlines()[-1])
        if result.get("correct") is not True or result.get("failed") != 0:
            raise StepFailed(f"{workload}: correct {result.get('correct')}, "
                             f"failed {result.get('failed')}")


STEPS = {"tier1": tier1, "bench-tests": bench_tests, "mutants": mutants,
         "smoke": smoke, "bench-rounds": bench_rounds}


def main(argv) -> int:
    names = argv or list(STEPS)
    unknown = [name for name in names if name not in STEPS]
    if unknown:
        print(f"unknown step(s) {', '.join(unknown)}; steps: "
              f"{', '.join(STEPS)}", file=sys.stderr)
        return 2
    table = []
    failed = None
    for name in sorted(names, key=list(STEPS).index):
        print(f"== {name}", flush=True)
        start = time.perf_counter()
        try:
            STEPS[name]()
        except StepFailed as exc:
            failed = f"{name}: {exc}"
        table.append((name, time.perf_counter() - start,
                      "FAILED" if failed else "ok"))
        if failed:
            break
    print(f"\n{'step':<14}{'wall s':>9}  result")
    for name, seconds, outcome in table:
        print(f"{name:<14}{seconds:>9.1f}  {outcome}")
    if failed:
        print(f"failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

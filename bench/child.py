"""Run one qpvqe command in this fresh process and time its phases.

    python3 bench/child.py --out DIR [--setup-only] [--trace] [--post KIND]
                           [--seed N] -- <qpvqe arguments>

bench/run.py starts one of these per command, from the repository root
with ``src`` on PYTHONPATH and BLAS pinned to one thread.  The command
runs through ``qpvqe.cli.run_cli`` exactly as ``qpvqe <arguments>`` would.
Light hooks on the names the CLI looks up mark where set-up ends:

* ``optimize`` (run, sweep), ``spsa_optimize`` (noisy-run) and
  ``prepare_pair`` (gaps, amplitudes) are the first optimizer or readout
  step of a command; on a sweep every point has its own set-up, and the
  manifest handling before the first point counts as set-up too;
* the optimizer callback and the SPSA objective give the CPU time of each
  Adam or SPSA iteration.

With ``--setup-only`` the command stops at its first step (each sweep
point stops at its optimizer and the sweep goes on).  DIR/result.json gets
the phase times, per-step CPU times and peak RSS; the command's standard
output goes to DIR/stdout.txt and, with ``--trace``, the spans to
DIR/spans.npz.  ``--post`` runs an untimed follow-up whose output the
parent checks: ``states`` saves the extracted eigenstates of a run,
``readout_states`` rebuilds them from the record a readout command read,
and ``zero_noise`` evaluates the zero-noise density-matrix energy against
the statevector ensemble energy at a seeded theta.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import numpy as np


class StopAtStep(Exception):
    """Raised at the first step of a command in set-up-only mode."""


class Phases:
    """Set-up/solve split and per-step CPU times of one command."""

    def __init__(self, cli, setup_only: bool):
        self.setup_only = setup_only
        self.setup_s = 0.0
        self.unit_start = 0.0
        self.unit_marked = False
        self.points = 0
        self.step_cpu_ms = []
        self.result = None
        self._hook(cli)

    def _step_entry(self):
        if not self.unit_marked:
            self.setup_s += time.perf_counter() - self.unit_start
            self.unit_marked = True
        if self.setup_only:
            raise StopAtStep

    def _hook(self, cli):
        optimize, spsa = cli.optimize, cli.spsa_optimize
        prepare_pair, sweep_point = cli.prepare_pair, cli._sweep_point

        def hooked_sweep_point(*args, **kwargs):
            if self.points:  # the first point's set-up includes the manifest
                self.unit_start = time.perf_counter()
                self.unit_marked = False
            self.points += 1
            try:
                return sweep_point(*args, **kwargs)
            except StopAtStep:
                return []

        def hooked_optimize(h, circuit, prep, config, callback=None):
            self._step_entry()
            stamps = []

            def stamp(iteration, energy):
                stamps.append(time.process_time())
                if callback is not None:
                    callback(iteration, energy)

            self.result = optimize(h, circuit, prep, config, stamp)
            self.step_cpu_ms.extend(1e3 * np.diff(stamps))
            return self.result

        def hooked_spsa(objective, theta0, config, max_iterations, **kwargs):
            self._step_entry()
            stamps = [time.process_time()]
            calls = [0]

            def timed_objective(theta):
                value = objective(theta)
                calls[0] += 1
                if calls[0] % 2 == 0:  # two evaluations per iteration
                    stamps.append(time.process_time())
                return value

            result = spsa(timed_objective, theta0, config, max_iterations,
                          **kwargs)
            self.step_cpu_ms.extend(1e3 * np.diff(stamps))
            return result

        def hooked_prepare_pair(*args, **kwargs):
            self._step_entry()
            return prepare_pair(*args, **kwargs)

        cli._sweep_point = hooked_sweep_point
        cli.optimize = hooked_optimize
        cli.spsa_optimize = hooked_spsa
        cli.prepare_pair = hooked_prepare_pair


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def post_states(phases, out_dir, argv, seed):
    np.save(os.path.join(out_dir, "states.npy"),
            np.array([s.amplitudes for s in phases.result.states]))


def post_readout_states(phases, out_dir, argv, seed):
    """U(theta*)|D_j> of the record a readout command read."""
    from qpvqe.ansatz import build_uccgsd
    from qpvqe.driver import extract_eigenpairs
    from qpvqe.fermion import enumerate_sz_excitations
    from qpvqe.harness import (load_hamiltonian, parse_record, record_get,
                               record_get_all)
    from qpvqe.state_prep import ReferenceSet

    with open(_option(argv, "--result")) as fh:
        fields = parse_record(fh.read())
    h = load_hamiltonian(_option(argv, "--hamiltonian"))
    theta = [float(t) for t in record_get(fields, "theta").split()]
    circuit = build_uccgsd(enumerate_sz_excitations(
        h.n_qubits // 2, effective=record_get_all(fields, "excitation") or None))
    refs = ReferenceSet(tuple(record_get_all(fields, "ref")))
    _, states = extract_eigenpairs(circuit, theta, refs, h)
    np.save(os.path.join(out_dir, "states.npy"),
            np.array([s.amplitudes for s in states]))


def post_zero_noise(phases, out_dir, argv, seed):
    """Zero-noise density matrix against statevector, as in criterion 8,
    on the noisy-run defaults (two-double ansatz, K=4)."""
    from qpvqe.ansatz import build_uccgsd
    from qpvqe.driver import ensemble_energy
    from qpvqe.fermion import enumerate_sz_excitations
    from qpvqe.harness import load_hamiltonian
    from qpvqe.noise import noisy_ensemble_energy, zero_noise_calibration
    from qpvqe.state_prep import (build_purified_prep, default_weights,
                                  select_reference_determinants)

    h = load_hamiltonian(_option(argv, "--hamiltonian"))
    circuit = build_uccgsd(enumerate_sz_excitations(
        h.n_qubits // 2, effective=["d:0,1,2,3", "d:0,3,1,2"]))
    n_particles, sz = _option(argv, "--sector").split(",")
    refs = select_reference_determinants(h, int(n_particles), float(sz), 4)
    prep = build_purified_prep(default_weights(4), refs)
    theta = np.random.default_rng(seed).uniform(-0.5, 0.5,
                                                circuit.parameter_count)
    dm = noisy_ensemble_energy(h, circuit, prep, theta,
                               zero_noise_calibration(), sampler=None)
    sv = ensemble_energy(h, circuit, prep, theta)
    return {"zero_noise_dm": dm, "zero_noise_sv": sv}


POSTS = {"states": post_states, "readout_states": post_readout_states,
         "zero_noise": post_zero_noise}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--post", choices=sorted(POSTS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    import qpvqe
    import qpvqe.cli as cli
    import_s = time.perf_counter() - started

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(qpvqe)
    phases = Phases(cli, args.setup_only)

    with open(os.path.join(args.out, "stdout.txt"), "w") as sink, \
            contextlib.redirect_stdout(sink):
        cpu0 = time.process_time()
        phases.unit_start = start = time.perf_counter()
        try:
            exit_code = cli.run_cli(argv)
        except StopAtStep:
            exit_code = 0
        wall = time.perf_counter() - start
        command_cpu_ms = 1e3 * (time.process_time() - cpu0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit_code": exit_code,
        "import_s": import_s,
        "setup_s": phases.setup_s,
        "solve_s": wall - phases.setup_s,
        "command_cpu_ms": command_cpu_ms,
        "step_cpu_ms": [float(x) for x in phases.step_cpu_ms],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.save(os.path.join(args.out, "spans.npz"))
    if args.post and exit_code == 0 and not args.setup_only:
        result.update(POSTS[args.post](phases, args.out, argv, args.seed) or {})
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""qpvqe benchmark: one workload per invocation, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qpvqe checkout.  Workloads (see README.md):
h2_sweep, lih_spectrum, lih_readout, noisy_h2.  Every qpvqe command runs
in a fresh child process (bench/child.py) with BLAS and OpenMP pinned to
one thread, and its outputs are checked against references computed by
bench/reference.py, which does not import qpvqe.

--trace 0 repeats whole rounds of the workload's commands for up to S
seconds: it runs one round, and another only while that one is expected
to end within S seconds.  It reports the end-to-end metrics:
set-up time (median over the rounds plus extra set-up-only rounds, at
least five samples), solve time and peak RSS (median over rounds) and the
median CPU time of one step.  --trace 1 runs one untraced round and one
traced round and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operations are qpvqe commands; a
command that exits non-zero counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "step_cpu_ms.p50": "ms",
                    "peak_rss_mb": "MB"}

# Per-layer metrics: (metric, span, statistic, scale, unit).
SPAN_METRICS = (
    ("pauli.paulisum_action.calls", "pauli.paulisum_action", "calls", 1, "count"),
    ("pauli.paulisum_action.ms.p50", "pauli.paulisum_action", "p50", 1e3, "ms"),
    ("pauli.pauli_action.calls", "pauli.pauli_action", "calls", 1, "count"),
    ("pauli.pauli_action.us.p50", "pauli.pauli_action", "p50", 1e6, "us"),
    ("pauli.expectation.calls", "pauli.expectation", "calls", 1, "count"),
    ("pauli.expectation.ms.p50", "pauli.expectation", "p50", 1e3, "ms"),
    ("statevector.apply_pauli_exponential.calls",
     "statevector.apply_pauli_exponential", "calls", 1, "count"),
    ("statevector.apply_pauli_exponential.us.p50",
     "statevector.apply_pauli_exponential", "p50", 1e6, "us"),
    ("fermion.enumerate_sz_excitations.ms",
     "fermion.enumerate_sz_excitations", "total", 1e3, "ms"),
    ("ansatz.build_uccgsd.ms", "ansatz.build_uccgsd", "total", 1e3, "ms"),
    ("ansatz.value_and_gradient.calls", "ansatz.value_and_gradient", "calls",
     1, "count"),
    ("ansatz.value_and_gradient.ms.p50", "ansatz.value_and_gradient", "p50",
     1e3, "ms"),
    ("ansatz.value_and_gradient.self_ms.p50", "ansatz.value_and_gradient",
     "self_p50", 1e3, "ms"),
    ("ansatz.apply_ansatz.calls", "ansatz.apply_ansatz", "calls", 1, "count"),
    ("ansatz.apply_ansatz.ms.p50", "ansatz.apply_ansatz", "p50", 1e3, "ms"),
    ("state_prep.select_reference_determinants.ms",
     "state_prep.select_reference_determinants", "total", 1e3, "ms"),
    ("state_prep.build_purified_prep.ms", "state_prep.build_purified_prep",
     "total", 1e3, "ms"),
    ("driver.optimize.self_ms", "driver.optimize", "self_total", 1e3, "ms"),
    ("driver.extract_eigenpairs.ms.p50", "driver.extract_eigenpairs", "p50",
     1e3, "ms"),
    ("observables.prepare_pair.ms.p50", "observables.prepare_pair", "p50",
     1e3, "ms"),
    ("observables.energy_gap.ms.p50", "observables.energy_gap", "p50", 1e3,
     "ms"),
    ("observables.transition_amplitude.ms.p50",
     "observables.transition_amplitude", "p50", 1e3, "ms"),
    ("observables.gap_from_full_purified.ms.p50",
     "observables.gap_from_full_purified", "p50", 1e3, "ms"),
    ("noise.noisy_ensemble_energy.calls", "noise.noisy_ensemble_energy",
     "calls", 1, "count"),
    ("noise.noisy_ensemble_energy.ms.p50", "noise.noisy_ensemble_energy",
     "p50", 1e3, "ms"),
    ("noise.noisy_ensemble_energy.self_ms.p50", "noise.noisy_ensemble_energy",
     "self_p50", 1e3, "ms"),
    ("noise.apply_noisy_gate.calls", "noise.apply_noisy_gate", "calls", 1,
     "count"),
    ("noise.apply_noisy_gate.us.p50", "noise.apply_noisy_gate", "p50", 1e6,
     "us"),
    ("noise.DensityMatrix.expectation.calls", "noise.DensityMatrix.expectation",
     "calls", 1, "count"),
    ("noise.DensityMatrix.expectation.us.p50",
     "noise.DensityMatrix.expectation", "p50", 1e6, "us"),
    ("harness.load_hamiltonian.ms", "harness.load_hamiltonian", "total", 1e3,
     "ms"),
    ("harness.exact_diagonalize.calls", "harness.exact_diagonalize", "calls",
     1, "count"),
    ("harness.exact_diagonalize.ms.p50", "harness.exact_diagonalize", "p50",
     1e3, "ms"),
    ("cli.run_cli.self_s", "cli.run_cli", "self_total", 1, "s"),
)

# Per-layer counters: (metric, counter, scale, unit).
COUNTER_METRICS = (
    ("statevector.apply_pauli_exponential.gb_computed", "statevector.bytes",
     1e-9, "GB"),
    ("driver.optimize.iterations", "driver.optimize.iterations", 1, "count"),
    ("driver.optimize.evaluations", "driver.optimize.evaluations", 1, "count"),
    ("driver.optimize.descents", "driver.optimize.descents", 1, "count"),
    ("noise.conj_gflop_computed", "noise.conj_flops", 1e-9, "GFLOP"),
    ("noise.spsa_optimize.iterations", "noise.spsa_optimize.iterations", 1,
     "count"),
)
OVERHEAD_METRIC = ("trace.overhead_s", "s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Runs rounds of one workload's commands, one child process each."""

    def __init__(self, workload, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in PINNED_THREADS})
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def _command(self, command, out_dir: str, setup_only: bool,
                 trace: bool) -> dict:
        argv = [sys.executable, os.path.join(BENCH, "child.py"),
                "--out", out_dir, "--seed", str(self.seed)]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv.append("--trace")
        if command.post:
            argv += ["--post", command.post]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a command could start")
        try:
            proc = subprocess.run(argv + ["--"] + command.argv,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"qpvqe {' '.join(command.argv)} ran past the "
                             f"{DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child for qpvqe {' '.join(command.argv)} "
                             f"crashed:\n{proc.stderr[-4000:]}")
        with open(os.path.join(out_dir, "result.json")) as fh:
            result = json.load(fh)
        result["dir"] = out_dir
        if result["exit_code"] != 0:
            print(f"qpvqe {' '.join(command.argv)} exited "
                  f"{result['exit_code']}:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
        return result

    def round(self, label: str, first: bool = False, setup_only: bool = False,
              trace: bool = False) -> dict:
        out = os.path.join(self.work_dir, label)
        results = []
        for index, command in enumerate(
                self.workload.commands(self.seed, out, first)):
            command_dir = os.path.join(out, str(index))
            os.makedirs(command_dir)
            results.append(self._command(command, command_dir, setup_only,
                                         trace))
        steps = ([r["command_cpu_ms"] for r in results]
                 if self.workload.step_is_command else
                 [s for r in results for s in r["step_cpu_ms"]])
        return {"dir": out, "results": results, "steps": steps,
                "setup_s": sum(r["setup_s"] for r in results),
                "solve_s": sum(r["solve_s"] for r in results),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                "import_s": statistics.median(r["import_s"] for r in results),
                "failed": sum(r["exit_code"] != 0 for r in results)}


def check_rounds(workload, rounds, refs) -> list:
    """Output checks of every round that ran through, and byte equality of
    each round's outputs with the first round's (identical invocations)."""
    errors = []
    for rnd in rounds:
        if rnd["failed"] == 0:
            errors += workload.check(rnd["results"], refs)
    ran = [rnd for rnd in rounds if rnd["failed"] == 0]
    for rnd in ran[1:]:
        for name in workload.outputs:
            with open(os.path.join(ran[0]["dir"], name), "rb") as a, \
                    open(os.path.join(rnd["dir"], name), "rb") as b:
                if a.read() != b.read():
                    errors.append(f"{name} differs between identical "
                                  f"invocations")
    return errors


def timed(runner: Runner, seconds: int):
    rounds = []
    started = time.monotonic()
    while True:
        rounds.append(runner.round(f"round{len(rounds)}", first=not rounds))
        elapsed = time.monotonic() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break  # the next round would not end within the run
    setup = [rnd["setup_s"] for rnd in rounds]
    for extra in range(SETUP_SAMPLES - len(rounds)):
        setup.append(runner.round(f"setup{extra}", setup_only=True)["setup_s"])
    steps = [s for rnd in rounds for s in rnd["steps"]]
    values = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "step_cpu_ms.p50": statistics.median(steps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    print(f"# {runner.workload.name}: {len(rounds)} rounds, {len(setup)} "
          f"set-up samples, step_cpu_ms.p50 over {len(steps)} steps, "
          f"import {statistics.median(r['import_s'] for r in rounds):.3f} s")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return rounds, metrics


def traced(runner: Runner):
    from tracer import SpanTable

    plain = runner.round("untraced", first=True)
    spans = runner.round("traced", trace=True)
    table = SpanTable([os.path.join(r["dir"], "spans.npz")
                       for r in spans["results"]])
    statistic = {
        "calls": lambda span: table.calls(span),
        "p50": lambda span: table.median(span),
        "self_p50": lambda span: table.median(span, self_time=True),
        "total": lambda span: table.total(span),
        "self_total": lambda span: table.total(span, self_time=True),
    }
    metrics = {name: {"value": statistic[stat](span) * scale, "unit": unit}
               for name, span, stat, scale, unit in SPAN_METRICS}
    for name, counter, scale, unit in COUNTER_METRICS:
        metrics[name] = {"value": table.counter(counter) * scale, "unit": unit}
    metrics[OVERHEAD_METRIC[0]] = {
        "value": spans["solve_s"] - plain["solve_s"], "unit": OVERHEAD_METRIC[1]}
    print(f"# {runner.workload.name}: solve {plain['solve_s']:.3f} s "
          f"untraced, {spans['solve_s']:.3f} s traced")
    return [plain, spans], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpvqe", "cli.py")):
        print("error: run from the root of a qpvqe checkout "
              "(src/qpvqe/cli.py not found)", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".bench_out",
                            f"{workload.name}-{args.seed}-{os.getpid()}")
    runner = Runner(workload, args.seed, work_dir, deadline)
    try:
        refs = workload.references()
        rounds, metrics = (traced(runner) if args.trace
                           else timed(runner, args.seconds))
        errors = check_rounds(workload, rounds, refs)
    except BenchError as exc:
        print(f"error: {exc}\n(outputs kept in {work_dir})", file=sys.stderr)
        return 1
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(len(rnd["results"]) for rnd in rounds)
    failed = sum(rnd["failed"] for rnd in rounds)
    if errors or failed:
        print(f"(outputs kept in {work_dir})", file=sys.stderr)
    else:
        shutil.rmtree(work_dir)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

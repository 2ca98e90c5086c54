"""Command-line interface.

Subcommands: run (one optimization, writes a result record), sweep
(manifest of labeled Hamiltonians, CSV summary), ed (print the oracle
spectrum), gaps / amplitudes (consume a stored result record), and
noisy-run (SPSA under a calibration file).  All randomness is controlled
by --seed, falling back to the QPVQE_SEED environment variable and then
to 0; identical invocations produce byte-identical records.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ansatz import build_uccgsd, parameter_vector
from .driver import (DEFAULT_THRESHOLD_HA, QpvqeConfig, SpectrumResult,
                     SpsaConfig, attach_certificate, optimize)
from .fermion import enumerate_sz_excitations, sz_excitation_labels
from .harness import (exact_diagonalize, format_float,
                      load_hamiltonian, load_manifest, parse_record,
                      record_get, record_get_all, write_record)
from .noise import (DEFAULT_SHOTS, ShotSampler, load_calibration,
                    noisy_ensemble_energy, spsa_optimize,
                    totally_mixed_energy)
from .observables import (energy_gap, full_purified_state,
                          gap_from_full_purified, prepare_pair,
                          supported_projector_pairs, transition_amplitude)
from .pauli import PauliSum
from .state_prep import (ReferenceSet, WeightVector, build_purified_prep,
                         default_weights, select_reference_determinants)

CSV_HEADER = "label,j,energy_ha,ed_energy_ha,abs_err_ha,fidelity,e_w,bound"


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QPVQE_SEED")
    return int(env) if env else 0


def _parse_sector(text: str) -> Tuple[int, float]:
    n_text, _, sz_text = text.partition(",")
    try:
        return int(n_text), float(sz_text)
    except ValueError:
        raise ValueError(f"bad sector {text!r}: expected N,Sz such as "
                         "2,0") from None


def _setup_problem(hamiltonian_path: str, sector: Tuple[int, float], k: int,
                   excitations: Optional[Sequence[str]] = None):
    h = load_hamiltonian(hamiltonian_path)
    if h.n_qubits % 2:
        raise ValueError("expected an even spin-orbital register")
    m_spatial = h.n_qubits // 2
    gens = enumerate_sz_excitations(m_spatial, effective=excitations)
    circuit = build_uccgsd(gens)
    refs = select_reference_determinants(h, sector[0], sector[1], k)
    weights = default_weights(k)
    prep = build_purified_prep(weights, refs)
    return h, circuit, refs, weights, prep


def _result_record(args, h: PauliSum, refs: ReferenceSet,
                   weights: WeightVector, result: SpectrumResult, seed: int,
                   excitations: Optional[Sequence[str]]) -> str:
    fields: List[Tuple[str, str]] = [
        ("kind", "spectrum_result"),
        ("hamiltonian", args.hamiltonian),
        ("n_qubits", str(h.n_qubits)),
        ("k", str(len(weights))),
        ("sector", f"{refs.n_particles},{format_float(refs.sz)}"),
        ("seed", str(seed)),
        ("iterations", str(result.iterations_used)),
        ("converged", "true" if result.converged else "false"),
        ("ensemble_energy", format_float(result.ensemble_trace[-1])),
    ]
    for det in refs.determinants:
        fields.append(("ref", det))
    for w in weights.w:
        fields.append(("weight", format_float(w)))
    if excitations:
        for label in excitations:
            fields.append(("excitation", label))
    fields.append(("theta", " ".join(format_float(t) for t in result.theta_star)))
    if result.energies is not None:
        for j, e in enumerate(result.energies):
            fields.append((f"energy {j}", format_float(e)))
    if result.ed_energies is not None:
        for j, e in enumerate(result.ed_energies):
            fields.append((f"ed_energy {j}", format_float(e)))
    if result.e_w is not None:
        fields.append(("e_w", format_float(result.e_w)))
        fields.append(("bound", format_float(result.bound)))
    return write_record(fields)


def _load_readout(args):
    """Hamiltonian, circuit, references, theta* and pairs of a gaps or
    amplitudes command, from its result record.

    theta* is checked against the record's ``excitation`` labels (every
    label of ``sz_excitation_labels`` when it lists none) before anything
    prints.  The circuit holds only the generators of theta*'s nonzero
    entries (-0.0 is zero), in their order, and the returned theta holds
    only those entries.  That is exact: a zero angle's rotation never
    runs, each other angle is 2 theta c from the same values, and any
    rows that hold the states' support give the same bits.  With no
    nonzero entry the circuit is U = 1.
    """
    with open(args.result) as fh:
        fields = parse_record(fh.read())
    if record_get(fields, "kind") != "spectrum_result":
        raise ValueError(f"{args.result} is not a spectrum_result record")
    ham_path = args.hamiltonian or record_get(fields, "hamiltonian")
    h = load_hamiltonian(ham_path)
    recorded = int(record_get(fields, "n_qubits"))
    if h.n_qubits != recorded:
        raise ValueError(f"{ham_path} acts on {h.n_qubits} qubits but "
                         f"{args.result} was run on {recorded}")
    refs = ReferenceSet(tuple(record_get_all(fields, "ref")))
    m_spatial = h.n_qubits // 2
    labels = (record_get_all(fields, "excitation")
              or sz_excitation_labels(m_spatial))
    theta = parameter_vector(
        [float(t) for t in record_get(fields, "theta").split()])
    if theta.size != len(labels):
        raise ValueError(
            f"expected {len(labels)} parameters, got {theta.size}")
    active = np.flatnonzero(theta)
    generators = (enumerate_sz_excitations(
        m_spatial, effective=[labels[i] for i in active])
        if active.size else [])
    circuit = build_uccgsd(generators, h.n_qubits)
    k = int(record_get(fields, "k"))
    pairs = ([_parse_pair(p, k) for p in args.pairs] if args.pairs else
             [(i, j) for i in range(k) for j in range(i + 1, k)])
    return h, circuit, refs, theta[active], pairs


def _parse_pair(text: str, k: int) -> Tuple[int, int]:
    """An "i,j" pair of distinct state indices in 0..k-1."""
    try:
        i, j = (int(x) for x in text.split(","))
        if 0 <= i < k and 0 <= j < k and i != j:
            return i, j
    except ValueError:
        pass
    raise ValueError(f"pair {text!r} is not two distinct state indices "
                     f"in 0..{k - 1}")


def cmd_run(args) -> int:
    seed = _seed_from(args)
    sector = _parse_sector(args.sector)
    h, circuit, refs, weights, prep = _setup_problem(
        args.hamiltonian, sector, args.k, args.excitations)
    config = QpvqeConfig(lr=args.lr, max_iterations=args.max_iterations,
                         convergence_threshold=args.threshold, seed=seed)
    result = optimize(h, circuit, prep, config)
    if not args.no_ed:
        ed = exact_diagonalize(h, sector=sector, k=args.k)
        attach_certificate(result, weights, ed.energies)
    record = _result_record(args, h, refs, weights, result, seed,
                            args.excitations)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(record)
    else:
        sys.stdout.write(record)
    print(f"converged: {result.converged} after {result.iterations_used} "
          f"iterations; ensemble {result.ensemble_trace[-1]:.12g} Ha",
          file=sys.stderr)
    return 0


def _sweep_point(label: str, path: str, sector: Tuple[int, float], k: int,
                 max_iterations: int, threshold: float,
                 seed: int) -> List[str]:
    h, circuit, refs, weights, prep = _setup_problem(path, sector, k)
    config = QpvqeConfig(max_iterations=max_iterations,
                         convergence_threshold=threshold, seed=seed)
    result = optimize(h, circuit, prep, config)
    ed = exact_diagonalize(h, sector=sector, k=k)
    attach_certificate(result, weights, ed.energies)
    rows = []
    for j in range(k):
        fid = ed.subspace_fidelity(result.states[j].amplitudes, j)
        rows.append(",".join([
            label, str(j),
            f"{result.energies[j]:.12g}", f"{ed.energies[j]:.12g}",
            f"{abs(result.energies[j] - ed.energies[j]):.12g}",
            f"{fid:.12g}", f"{result.e_w:.12g}", f"{result.bound:.12g}"]))
    return rows


def cmd_sweep(args) -> int:
    manifest = load_manifest(args.manifest)
    sector = _parse_sector(manifest.options.get("sector", args.sector))
    k = int(manifest.options.get("k", args.k))
    max_iterations = int(manifest.options.get("max_iterations",
                                              args.max_iterations))
    threshold = float(manifest.options.get("threshold", args.threshold))
    options = (sector, k, max_iterations, threshold, _seed_from(args))
    if args.jobs > 1:
        # Points are pure Python work, so only processes run them in
        # parallel; spawned workers import qpvqe afresh.  Imported here so
        # single-job commands do not load multiprocessing.
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
                args.jobs, mp_context=context) as pool:
            futures = [pool.submit(_sweep_point, label, path, *options)
                       for label, path in manifest.points]
            out_rows = [future.result() for future in futures]
    else:
        out_rows = [_sweep_point(label, path, *options)
                    for label, path in manifest.points]

    lines = [CSV_HEADER]
    for rows in out_rows:
        lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_ed(args) -> int:
    h = load_hamiltonian(args.hamiltonian)
    sector = _parse_sector(args.sector) if args.sector else None
    ref = exact_diagonalize(h, sector=sector, k=args.k)
    for e in ref.energies:
        print(f"{e:.12g}")
    return 0


def cmd_gaps(args) -> int:
    h, circuit, refs, theta, pairs = _load_readout(args)
    projector_pairs = (supported_projector_pairs(refs.k) & set(pairs)
                       if args.projector else set())
    print("i,j,gap_ha")
    pair_states = prepare_pair(circuit, theta, refs, pairs)
    gaps = energy_gap(pair_states, h)
    projector_gaps = {}
    if projector_pairs:
        projected = sorted(projector_pairs)
        projector_gaps = dict(zip(projected, gap_from_full_purified(
            circuit, theta, refs, h, projected,
            full_purified_state(circuit, theta, refs))))
    for pair, gap in zip(pair_states, gaps):
        i, j = pair.i, pair.j
        print(f"{i},{j},{gap:.12g}")
        if (i, j) in projector_gaps:
            print(f"{i},{j},{projector_gaps[i, j]:.12g} # projector")
    return 0


def cmd_amplitudes(args) -> int:
    h, circuit, refs, theta, pairs = _load_readout(args)
    obs = load_hamiltonian(args.observable) if args.observable else h
    if obs.n_qubits > h.n_qubits:  # it would reach the readout ancillas
        raise ValueError(f"{args.observable} acts on {obs.n_qubits} qubits "
                         f"but {args.result} was run on {h.n_qubits}")
    print("i,j,re,im")
    pair_states = prepare_pair(circuit, theta, refs, pairs)
    for pair, amp in zip(pair_states, transition_amplitude(pair_states, obs)):
        print(f"{pair.i},{pair.j},{amp.real:.12g},{amp.imag:.12g}")
    return 0


def cmd_noisy_run(args) -> int:
    seed = _seed_from(args)
    sector = _parse_sector(args.sector)
    excitations = args.excitations or ["d:0,1,2,3", "d:0,3,1,2"]
    h, circuit, refs, weights, prep = _setup_problem(
        args.hamiltonian, sector, args.k, excitations)
    calib = load_calibration(args.calibration)
    sampler = ShotSampler(shots=args.shots, rng=np.random.default_rng(seed))

    def objective(theta):
        return noisy_ensemble_energy(h, circuit, prep, theta, calib, sampler)

    result = spsa_optimize(objective, np.zeros(circuit.parameter_count),
                           SpsaConfig(), args.iterations, seed=seed)
    fields: List[Tuple[str, str]] = [
        ("kind", "noisy_result"),
        ("hamiltonian", args.hamiltonian),
        ("calibration", args.calibration),
        ("seed", str(seed)),
        ("shots", str(args.shots)),
        ("iterations", str(result.iterations_used)),
        ("best_value", format_float(result.best_value)),
        ("totally_mixed", format_float(totally_mixed_energy(h))),
        ("theta", " ".join(format_float(t) for t in result.theta_star)),
    ]
    record = write_record(fields)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(record)
    else:
        sys.stdout.write(record)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write("iteration,ensemble_ha\n")
            for i, value in enumerate(result.trace):
                fh.write(f"{i},{value:.12g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpvqe", description="purified ensemble VQE spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("run", help="one optimization, result record out")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--sector", required=True, help="N,Sz e.g. 2,0")
    p.add_argument("--max-iterations", type=int,
                   default=QpvqeConfig.max_iterations)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_HA)
    p.add_argument("--lr", type=float, default=QpvqeConfig.lr)
    p.add_argument("--excitations", nargs="*", default=None,
                   help="effective generator labels like d:0,1,2,3")
    p.add_argument("--no-ed", action="store_true",
                   help="skip the exact-diagonalization certificate")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="manifest sweep, CSV out")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sector", default="2,0")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--max-iterations", type=int,
                   default=QpvqeConfig.max_iterations)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_HA)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ed", help="print the exact spectrum")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--sector", default=None)
    p.add_argument("-k", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_ed)

    p = sub.add_parser("gaps", help="ancilla-measured energy gaps")
    p.add_argument("--result", required=True)
    p.add_argument("--hamiltonian", default=None)
    p.add_argument("--pairs", nargs="*", default=None, help="i,j pairs")
    p.add_argument("--projector", action="store_true",
                   help="also measure through the equal-branch projectors")
    common(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("amplitudes", help="transition amplitudes")
    p.add_argument("--result", required=True)
    p.add_argument("--hamiltonian", default=None)
    p.add_argument("--observable", default=None,
                   help="PauliSum file; defaults to the Hamiltonian")
    p.add_argument("--pairs", nargs="*", default=None)
    common(p)
    p.set_defaults(func=cmd_amplitudes)

    p = sub.add_parser("noisy-run", help="SPSA under a calibration file")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--sector", required=True)
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--iterations", type=int, default=400)
    p.add_argument("--excitations", nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--trace-out", default=None)
    common(p)
    p.set_defaults(func=cmd_noisy_run)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

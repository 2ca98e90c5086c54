"""The benchmark's four workloads: the commands of one round and the checks
of their outputs against the independent references in reference.py."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import reference

CHEMICAL_ACCURACY_HA = 1.6e-3
SWEEP_MANIFEST = "data/manifests/h2.sweep"
LIH = "data/hamiltonians/lih_1.60.ham"
H2_NOISY = "data/hamiltonians/h2_0.70.ham"
CALIBRATION = "data/calibration/ibmq_manila.cal"
BENCH_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
LIH_RECORD = os.path.join(BENCH_DATA, "lih_1.60.rec")
HOPPING = os.path.join(BENCH_DATA, "hopping.ham")
DEFAULT_WEIGHTS = (0.4, 0.3, 0.2, 0.1)  # default_weights(4), as records list


@dataclass
class Command:
    argv: List[str]
    post: Optional[str] = None     # see child.py


@dataclass
class Workload:
    name: str
    commands: Callable[[int, str, bool], List[Command]]
    references: Callable[[], dict]
    check: Callable[[List[dict], dict], List[str]]
    outputs: Tuple[str, ...]        # files of a round compared across rounds
    step_is_command: bool = False   # a step is a whole command (readout)


def _sector_energies(path: str, k: int = 4) -> np.ndarray:
    return reference.sector_ed(reference.load(path), 2, 0.0)[:k]


def _read_record(path: str) -> Dict[str, List[str]]:
    fields: Dict[str, List[str]] = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            fields.setdefault(key, []).append(value)
    return fields


def _record_energies(fields: Dict[str, List[str]], key: str = "energy"
                     ) -> np.ndarray:
    return np.array([float(fields[f"{key} {j}"][0])
                     for j in range(int(fields["k"][0]))])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# h2_sweep: the 26-point dissociation sweep through `qpvqe sweep`.
# --------------------------------------------------------------------------

def _sweep_points() -> List[Tuple[str, str]]:
    base = os.path.dirname(SWEEP_MANIFEST)
    points = []
    with open(SWEEP_MANIFEST) as fh:
        for line in fh:
            key, _, value = line.split("#", 1)[0].partition(":")
            if key.strip() == "point":
                label, path = value.split()
                points.append((label, os.path.normpath(os.path.join(base, path))))
    return points


def sweep_commands(seed: int, out: str, first: bool) -> List[Command]:
    return [Command(["sweep", "--manifest", SWEEP_MANIFEST, "--seed", str(seed),
                     "--out", os.path.join(out, "0", "sweep.csv")])]


def sweep_references() -> dict:
    return {label: _sector_energies(path) for label, path in _sweep_points()}


def sweep_check(results: List[dict], refs: dict) -> List[str]:
    errors = []
    with open(os.path.join(results[0]["dir"], "sweep.csv")) as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    by_label: Dict[str, list] = {}
    for row in rows:
        by_label.setdefault(row[0], []).append([float(x) for x in row[2:]])
    if sorted(by_label) != sorted(refs):
        return [f"sweep points {sorted(by_label)} != manifest {sorted(refs)}"]
    for label, ed in refs.items():
        table = np.array(by_label[label])
        if table.shape[0] != len(ed):
            errors.append(f"{label}: {table.shape[0]} rows, expected {len(ed)}")
            continue
        energy, ed_column, fidelity = table[:, 0], table[:, 1], table[:, 3]
        e_w, bound = table[0, 4], table[0, 5]
        if np.max(np.abs(energy - ed)) > CHEMICAL_ACCURACY_HA:
            errors.append(f"{label}: energies off the ED by "
                          f"{np.max(np.abs(energy - ed)):.3e} Ha")
        if np.any(np.diff(energy) < -1e-9):
            errors.append(f"{label}: energies not ascending {energy}")
        if np.max(np.abs(ed_column - ed)) > 1e-10:
            errors.append(f"{label}: ed_energy_ha column off the independent "
                          f"ED by {np.max(np.abs(ed_column - ed)):.3e}")
        if e_w < 0 or np.sum(np.abs(energy - ed)) > bound + 1e-10:
            errors.append(f"{label}: certificate fails (e_w {e_w:.3e}, "
                          f"sum|err| {np.sum(np.abs(energy - ed)):.3e}, "
                          f"bound {bound:.3e})")
        if np.min(fidelity) < 0.99:
            errors.append(f"{label}: fidelity {np.min(fidelity):.6f} < 0.99")
    return errors


# --------------------------------------------------------------------------
# lih_spectrum: `qpvqe run` on LiH to convergence with the ED certificate.
# --------------------------------------------------------------------------

def spectrum_commands(seed: int, out: str, first: bool) -> List[Command]:
    return [Command(["run", "--hamiltonian", LIH, "--sector", "2,0", "-k", "4",
                     "--seed", str(seed),
                     "--out", os.path.join(out, "0", "lih.rec")], "states")]


def spectrum_references() -> dict:
    return {"ed": _sector_energies(LIH),
            "stored": _read_record(LIH_RECORD)}


# Numeric record lines are compared with the stored record within a
# tolerance: the engine may move them at roundoff, and the LAPACK digits
# (ed_energy, e_w, bound) differ between the OpenBLAS kernels picked for
# different CPU models.  Every other line must match byte for byte.
_NUMERIC_KEYS = ("theta", "ensemble_energy", "energy", "ed_energy", "e_w",
                 "bound")
RECORD_TOL = 1e-9


def spectrum_check(results: List[dict], refs: dict) -> List[str]:
    errors = []
    fields = _read_record(os.path.join(results[0]["dir"], "lih.rec"))
    ed = refs["ed"]
    if fields["converged"] != ["true"]:
        errors.append("LiH run did not converge")
    energies = _record_energies(fields)
    if np.max(np.abs(energies - ed)) > CHEMICAL_ACCURACY_HA:
        errors.append(f"LiH energies off the ED by "
                      f"{np.max(np.abs(energies - ed)):.3e} Ha")
    weights = np.array([float(w) for w in fields["weight"]])
    ensemble = float(fields["ensemble_energy"][0])
    if ensemble < float(np.dot(weights, ed)) - 1e-10:
        errors.append(f"ensemble energy {ensemble} below sum w_j E_j")
    states = np.load(os.path.join(results[0]["dir"], "states.npy"))
    for j, amplitudes in enumerate(states):
        n_mean, sz_mean = reference.number_and_sz(amplitudes)
        if not (_close(n_mean, 2, 1e-10) and _close(sz_mean, 0, 1e-10)):
            errors.append(f"state {j}: <N> = {n_mean!r}, <S_z> = {sz_mean!r}")
    stored = refs["stored"]
    for key in sorted(set(fields) | set(stored)):
        if key == "seed":
            continue
        ours, theirs = fields.get(key, []), stored.get(key, [])
        if key.split()[0] in _NUMERIC_KEYS:
            a = [float(x) for line in ours for x in line.split()]
            b = [float(x) for line in theirs for x in line.split()]
            same = len(a) == len(b) and all(_close(x, y, RECORD_TOL)
                                            for x, y in zip(a, b))
        else:
            same = ours == theirs
        if not same:
            errors.append(f"record line {key!r} differs from the stored "
                          f"record made by the same command")
    return errors


# --------------------------------------------------------------------------
# lih_readout: gaps and transition amplitudes from the stored LiH record.
# --------------------------------------------------------------------------

def readout_commands(seed: int, out: str, first: bool) -> List[Command]:
    base = ["--result", LIH_RECORD, "--hamiltonian", LIH]
    return [Command(["gaps"] + base + ["--projector"]),
            Command(["amplitudes"] + base),
            Command(["amplitudes"] + base + ["--observable", HOPPING],
                    "readout_states" if first else None)]


def readout_references() -> dict:
    return {"ed": _sector_energies(LIH),
            "record": _record_energies(_read_record(LIH_RECORD)),
            "h": reference.dense_matrix(reference.load(LIH)),
            "hopping": reference.dense_matrix(reference.load(HOPPING))}


def _csv_rows(path: str) -> List[List[str]]:
    with open(path) as fh:
        return [line.strip().split(",") for line in fh.readlines()[1:]]


def readout_check(results: List[dict], refs: dict) -> List[str]:
    errors = []
    energies, ed = refs["record"], refs["ed"]
    pair_gaps, projector_gaps = {}, {}
    for row in _csv_rows(os.path.join(results[0]["dir"], "stdout.txt")):
        i, j = int(row[0]), int(row[1])
        value = float(row[2].split()[0])
        (projector_gaps if "projector" in row[2] else pair_gaps)[i, j] = value
    expected_pairs = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    if set(pair_gaps) != expected_pairs or \
            set(projector_gaps) != {(0, 1), (2, 3), (0, 2)}:
        errors.append(f"gap pairs {sorted(pair_gaps)} / projector pairs "
                      f"{sorted(projector_gaps)}")
        return errors
    for (i, j), gap in pair_gaps.items():
        if not _close(gap, energies[i] - energies[j], 1e-10):
            errors.append(f"gap {i},{j} = {gap!r} vs record difference "
                          f"{energies[i] - energies[j]!r}")
        if not _close(gap, ed[i] - ed[j], CHEMICAL_ACCURACY_HA):
            errors.append(f"gap {i},{j} = {gap!r} vs ED gap {ed[i] - ed[j]!r}")
    for pair, gap in projector_gaps.items():
        if not _close(gap, pair_gaps[pair], 1e-10):
            errors.append(f"projector gap {pair} = {gap!r} vs pair gap "
                          f"{pair_gaps[pair]!r}")
    saved = os.path.join(results[2]["dir"], "states.npy")
    if os.path.exists(saved):  # written by the first round only
        refs["states"] = np.load(saved)
    states = refs.get("states")
    if states is None:
        return errors + ["no extracted states to check amplitudes against"]
    for result, key in ((results[1], "h"), (results[2], "hopping")):
        matrix = states.conj() @ refs[key] @ states.T
        rows = _csv_rows(os.path.join(result["dir"], "stdout.txt"))
        if {(int(r[0]), int(r[1])) for r in rows} != expected_pairs:
            errors.append(f"{key} amplitude pairs {rows}")
        for row in rows:
            i, j = int(row[0]), int(row[1])
            amp = complex(float(row[2]), float(row[3]))
            if abs(amp - matrix[i, j]) > 1e-10:
                errors.append(f"{key} amplitude {i},{j} = {amp!r} vs dense "
                              f"<e_i|O|e_j> = {matrix[i, j]!r}")
    diag = np.real(np.diag(states.conj() @ refs["h"] @ states.T))
    if np.max(np.abs(diag - energies)) > 1e-10:
        errors.append("extracted states do not reproduce the record energies")
    return errors


# --------------------------------------------------------------------------
# noisy_h2: SPSA under device noise through `qpvqe noisy-run`.
# --------------------------------------------------------------------------

def noisy_commands(seed: int, out: str, first: bool) -> List[Command]:
    target = os.path.join(out, "0")
    return [Command(["noisy-run", "--hamiltonian", H2_NOISY,
                     "--calibration", CALIBRATION, "--sector", "2,0",
                     "--shots", "10000", "--iterations", "400",
                     "--seed", str(seed),
                     "--out", os.path.join(target, "noisy.rec"),
                     "--trace-out", os.path.join(target, "trace.csv")],
                    "zero_noise")]


def noisy_references() -> dict:
    h = reference.load(H2_NOISY)
    return {"exact": float(np.dot(DEFAULT_WEIGHTS, _sector_energies(H2_NOISY))),
            "mixed": h.identity_coefficient()}


def noisy_check(results: List[dict], refs: dict) -> List[str]:
    errors = []
    result = results[0]
    trace = [float(row[1]) for row in
             _csv_rows(os.path.join(result["dir"], "trace.csv"))]
    if len(trace) != 400:
        errors.append(f"SPSA trace has {len(trace)} iterations, expected 400")
    trailing = float(np.mean(trace[-100:]))
    if not refs["exact"] < trailing < refs["mixed"]:
        errors.append(f"trailing-100 mean {trailing} outside "
                      f"({refs['exact']}, {refs['mixed']})")
    gap = abs(result["zero_noise_dm"] - result["zero_noise_sv"])
    if gap > 1e-12:
        errors.append(f"zero-noise density matrix differs from the "
                      f"statevector by {gap:.3e}")
    return errors


WORKLOADS = {w.name: w for w in (
    Workload("h2_sweep", sweep_commands, sweep_references, sweep_check,
             ("0/sweep.csv",)),
    Workload("lih_spectrum", spectrum_commands, spectrum_references,
             spectrum_check, ("0/lih.rec",)),
    Workload("lih_readout", readout_commands, readout_references,
             readout_check, ("0/stdout.txt", "1/stdout.txt", "2/stdout.txt"),
             step_is_command=True),
    Workload("noisy_h2", noisy_commands, noisy_references, noisy_check,
             ("0/noisy.rec", "0/trace.csv")),
)}

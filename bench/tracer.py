"""Span tracing around the calls into qpvqe's public functions.

The wrappers go on every module attribute that is bound to a traced
function, because ``from .x import f`` binds ``f`` in the importing
module: wrapping only ``qpvqe.x.f`` would miss the calls made through
that copy.  Each span keeps its name, start, end and parent in
preallocated arrays (about 24 bytes a span), so a multi-million-call run
stays small; nothing is aggregated until the spans are written out.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

MODULES = ("pauli", "statevector", "fermion", "ansatz", "state_prep",
           "driver", "observables", "noise", "harness", "cli")

# (module, attribute) pairs timed as spans.  "DensityMatrix.expectation"
# is a method and is wrapped on its class.
SPANS = (
    ("pauli", "paulisum_action"), ("pauli", "pauli_action"),
    ("pauli", "expectation"),
    ("statevector", "apply_pauli_exponential"),
    ("fermion", "enumerate_sz_excitations"),
    ("ansatz", "build_uccgsd"), ("ansatz", "value_and_gradient"),
    ("ansatz", "apply_ansatz"),
    ("state_prep", "select_reference_determinants"),
    ("state_prep", "build_purified_prep"),
    ("driver", "optimize"), ("driver", "extract_eigenpairs"),
    ("observables", "prepare_pair"), ("observables", "energy_gap"),
    ("observables", "transition_amplitude"),
    ("observables", "gap_from_full_purified"),
    ("noise", "noisy_ensemble_energy"), ("noise", "apply_noisy_gate"),
    ("noise", "DensityMatrix.expectation"), ("noise", "spsa_optimize"),
    ("harness", "load_hamiltonian"), ("harness", "exact_diagonalize"),
    ("cli", "run_cli"),
)


def _state_bytes(state, *_args, **_kw) -> float:
    """Computed bytes of one rotation: 3 passes x 16 B x 2^n amplitudes."""
    return 3 * 16 * float(1 << state.n_qubits)


def _conj_flops(rho, *_args, **_kw) -> float:
    """Computed flops of U rho U^dag: two dense complex matmuls, 8 dim^3 each."""
    dim = float(1 << rho.n_qubits)
    return 2 * 8 * dim ** 3


# Work computed from a call's arguments: (span name, counter name, function).
WORK = {
    "statevector.apply_pauli_exponential": ("statevector.bytes", _state_bytes),
    "noise.apply_noisy_gate": ("noise.conj_flops", _conj_flops),
}

# Counts read from a call's return value or made by counting a private call.
RESULTS = {
    "driver.optimize": (("driver.optimize.iterations", "iterations_used"),
                        ("driver.optimize.evaluations", "evaluations")),
    "noise.spsa_optimize": (("noise.spsa_optimize.iterations",
                             "iterations_used"),),
}
COUNTED = (("driver", "_adam_descent", "driver.optimize.descents"),)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable,
             work: Optional[tuple] = None,
             results: tuple = ()) -> Callable:
        ident = self._id(name)
        stack = self._stack
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(ident)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if work is not None:
                self._count(work[0], work[1](*args, **kwargs))
            for key, attribute in results:
                self._count(key, getattr(return_value, attribute))
            return return_value

        return traced

    def counting(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(key, 1)
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap every traced name wherever it is bound in the package."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for module_name, attribute in SPANS:
            name = f"{module_name}.{attribute}"
            owner = getattr(package, module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attribute)
            wrapped = self.wrap(name, original, WORK.get(name),
                                RESULTS.get(name, ()))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for module_name, attribute, key in COUNTED:
            owner = getattr(package, module_name)
            setattr(owner, attribute,
                    self.counting(key, getattr(owner, attribute)))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 counter_keys=np.array(list(self.counters), dtype=str),
                 counter_values=np.array(list(self.counters.values()),
                                         dtype=float))


class SpanTable:
    """Per-name durations and self times of one or more saved traces."""

    def __init__(self, paths: List[str]):
        self.durations: Dict[str, List[np.ndarray]] = {}
        self.self_times: Dict[str, List[np.ndarray]] = {}
        self.counters: Dict[str, float] = {}
        for path in paths:
            with np.load(path) as data:
                self._add(data)

    def _add(self, data) -> None:
        duration = (data["end"] - data["start"]).astype(float) * 1e-9
        parent = data["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=duration.size)
        self_time = duration - covered
        name_id = data["name_id"]
        for ident, name in enumerate(data["names"]):
            mask = name_id == ident
            self.durations.setdefault(str(name), []).append(duration[mask])
            self.self_times.setdefault(str(name), []).append(self_time[mask])
        for key, value in zip(data["counter_keys"], data["counter_values"]):
            self.counters[str(key)] = self.counters.get(str(key), 0.0) + value

    def _values(self, table, name: str) -> np.ndarray:
        parts = table.get(name)
        return np.concatenate(parts) if parts else np.zeros(0)

    def calls(self, name: str) -> int:
        return int(self._values(self.durations, name).size)

    def median(self, name: str, self_time: bool = False) -> float:
        """Median seconds per call; 0 when the name was never called."""
        values = self._values(self.self_times if self_time
                              else self.durations, name)
        return float(np.median(values)) if values.size else 0.0

    def total(self, name: str, self_time: bool = False) -> float:
        return float(np.sum(self._values(self.self_times if self_time
                                         else self.durations, name)))

    def counter(self, key: str) -> float:
        return float(self.counters.get(key, 0.0))

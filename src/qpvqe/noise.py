"""Density-matrix simulation with calibration-driven gate noise and SPSA.

Per gate: ideal unitary conjugation, then a depolarizing channel, then
thermal relaxation (amplitude damping from T1 plus pure dephasing from
T2), in that fixed order.  One-qubit gates use each operand's calibrated
error rate and the global one-qubit gate time; two-qubit gates use the
pair's CNOT error through the 15-Pauli two-qubit depolarizing channel and
the pair's gate time on both operands.  Multi-qubit Pauli rotations fall
back to per-operand one-qubit channels (we simulate gates, we do not
transpile).  Readout error is never applied.

An n-qubit density matrix is simulated as vec(rho), the row-major flat
buffer of ``DensityMatrix.matrix``: a 2n-qubit amplitude vector whose
qubits 0..n-1 index rows and qubits n..2n-1 index columns, so
vec(U rho U^dag) = (U (x) conj U) vec(rho).  Each operation therefore
runs twice: on the row qubits and, by the conjugate rule, on the column
qubits.  The preparation gates (X, RY and their controlled forms) are
real and run through ``apply_gate`` again on qubits shifted by n.  The
ansatz runs on its circuit's compiled plans (``AnsatzCircuit.plans``):
rotation r is ``plans(2n).strings[r]`` on the row qubits, then
``plans(n).strings[r]``, whose leading Ellipsis addresses the last n axes
of the 2n-axis tensor, on the column qubits at angle -(-1)^{#Y} phi,
because conj P = (-1)^{#Y} P.  Either costs O(4^n) and no 2^n x 2^n
operator is ever built.  Each calibrated channel is a 4x4 (one qubit) or
16x16 (pair) superoperator applied as one gather -> matmul -> scatter
over an index plan of its row and column qubits.  Pauli expectations read
the strings' compiled ``StringPlan``s: Tr(P rho) is a gather of
rho[j, j ^ m] along the diagonal flipped by the plan's mask m, weighted by
its signs and conjugate scalar.

Everything derived from a calibration lives on that calibration object
and is filled on first use: channel superoperators and gather plans per
operand set, and the noisy, theta-independent preparation state per
preparation program, which every evaluation then copies.  Nothing derived
is kept at module level, so a freed calibration can never lend its
channels to a new one.

Circuits may address more qubits than the calibration covers (the device
table has five qubits); lookups wrap around the table and unknown pairs
use the table average.  Both policies are deterministic and documented
here because the noisy experiments are property-based, not device-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ansatz import AnsatzCircuit, parameter_vector
from .pauli import DimensionMismatch, PauliString, PauliSum, StringPlan
from .statevector import GateOp, StateVector, apply_gate

DEFAULT_GATE_TIME_1Q_NS = 35.6
DEFAULT_SHOTS = 10_000


class CalibrationError(ValueError):
    """Malformed or physically impossible calibration data."""


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    err_1q: float
    freq_ghz: Optional[float] = None

    def __post_init__(self):
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise CalibrationError("T1 and T2 must be positive")
        if self.t2_us > 2.0 * self.t1_us + 1e-9:
            raise CalibrationError(f"T2 = {self.t2_us} exceeds 2*T1")
        if not 0.0 <= self.err_1q <= 1.0:
            raise CalibrationError(f"1q error rate {self.err_1q} outside [0, 1]")


@dataclass(frozen=True)
class PairCalibration:
    err_cnot: float
    time_ns: float

    def __post_init__(self):
        if not 0.0 <= self.err_cnot <= 1.0:
            raise CalibrationError(f"CNOT error rate {self.err_cnot} outside [0, 1]")
        if self.time_ns <= 0:
            raise CalibrationError("gate time must be positive")


@dataclass(frozen=True)
class CalibrationData:
    qubits: Tuple[QubitCalibration, ...]
    pairs: Dict[Tuple[int, int], PairCalibration]
    gate_time_1q_ns: float = DEFAULT_GATE_TIME_1Q_NS
    # Simulator state derived from this calibration, filled on first use:
    # noise channels, gather plans and noisy preparation states (see the
    # module docstring).  Keyed on content, so it never outlives its data.
    _derived: Dict[tuple, object] = field(default_factory=dict, init=False,
                                          compare=False, repr=False)

    def qubit(self, q: int) -> QubitCalibration:
        return self.qubits[q % len(self.qubits)]

    def pair(self, a: int, b: int) -> PairCalibration:
        key = (min(a, b), max(a, b))
        hit = self.pairs.get(key)
        if hit is not None:
            return hit
        if not self.pairs:
            raise CalibrationError("calibration has no pair records")
        errs = [p.err_cnot for p in self.pairs.values()]
        times = [p.time_ns for p in self.pairs.values()]
        return PairCalibration(sum(errs) / len(errs), sum(times) / len(times))


def parse_calibration(text: str) -> CalibrationData:
    """Grammar: ``gate_time_1q_ns <t>``, ``qubit <q> key=value ...`` records
    (t1_us, t2_us, err_1q required; freq_ghz optional; 'inf' allowed for
    T1/T2), and ``pair <a>,<b> err_cnot=<e> time_ns=<t>`` records."""
    gate_time = DEFAULT_GATE_TIME_1Q_NS
    qubit_rows: Dict[int, QubitCalibration] = {}
    pairs: Dict[Tuple[int, int], PairCalibration] = {}

    def parse_kv(tokens: Sequence[str], lineno: int) -> Dict[str, float]:
        out = {}
        for token in tokens:
            key, sep, value = token.partition("=")
            if not sep:
                raise CalibrationError(
                    f"line {lineno}: expected key=value, got {token!r}")
            out[key] = float(value)
        return out

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head == "gate_time_1q_ns":
            gate_time = float(rest[0])
        elif head == "qubit":
            index = int(rest[0])
            kv = parse_kv(rest[1:], lineno)
            missing = {"t1_us", "t2_us", "err_1q"} - set(kv)
            if missing:
                raise CalibrationError(
                    f"line {lineno}: qubit {index} missing {sorted(missing)}")
            qubit_rows[index] = QubitCalibration(
                kv["t1_us"], kv["t2_us"], kv["err_1q"], kv.get("freq_ghz"))
        elif head == "pair":
            a, b = (int(t) for t in rest[0].split(","))
            kv = parse_kv(rest[1:], lineno)
            missing = {"err_cnot", "time_ns"} - set(kv)
            if missing:
                raise CalibrationError(
                    f"line {lineno}: pair {a},{b} missing {sorted(missing)}")
            pairs[(min(a, b), max(a, b))] = PairCalibration(
                kv["err_cnot"], kv["time_ns"])
        else:
            raise CalibrationError(f"line {lineno}: unknown record {head!r}")
    if not qubit_rows:
        raise CalibrationError("calibration has no qubit records")
    n = max(qubit_rows) + 1
    if set(qubit_rows) != set(range(n)):
        raise CalibrationError("qubit records must cover 0..n-1")
    return CalibrationData(tuple(qubit_rows[q] for q in range(n)), pairs,
                           gate_time)


def load_calibration(path: str) -> CalibrationData:
    with open(path) as fh:
        return parse_calibration(fh.read())


def zero_noise_calibration(n_qubits: int = 1) -> CalibrationData:
    row = QubitCalibration(math.inf, math.inf, 0.0)
    return CalibrationData((row,) * n_qubits,
                           {(0, 1): PairCalibration(0.0, 1.0)})


# ---------------------------------------------------------------------------
# Density matrices and channels.
# ---------------------------------------------------------------------------

class DensityMatrix:
    """n-qubit density matrix held as vec(rho), a 2n-qubit ``StateVector``.

    ``matrix`` is the 2^n x 2^n view of that buffer; writes through it
    reach the state, and assigning it replaces the buffer.
    """

    __slots__ = ("n_qubits", "vec")

    def __init__(self, n_qubits: int, matrix: Optional[np.ndarray] = None):
        self.n_qubits = n_qubits
        self.vec = StateVector(2 * n_qubits)
        if matrix is not None:
            self.matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        return self.vec.amplitudes.reshape(dim, dim)

    @matrix.setter
    def matrix(self, matrix: np.ndarray):
        dim = 1 << self.n_qubits
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix")
        self.vec.amplitudes = matrix.reshape(-1)

    @classmethod
    def totally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 1 << n_qubits
        return cls(n_qubits, np.eye(dim, dtype=complex) / dim)

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.matrix)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, op: PauliSum) -> float:
        """Re Tr(op rho); op may act on fewer qubits (identity on the rest)."""
        if op.n_qubits > self.n_qubits:
            raise DimensionMismatch("operator larger than density matrix")
        value = 0.0 + 0.0j
        for coeff, plan in op.plans(self.n_qubits):
            value += coeff * self.pauli_trace(plan)
        return float(value.real)

    def pauli_trace(self, plan: StringPlan) -> complex:
        """Tr(P rho) for a string compiled for this register.

        P[j ^ m, j] = scalar * sign[j ^ m] = conj(scalar) * sign[j], so
        Tr(P rho) = conj(scalar) * sum_j sign[j] rho[j, j ^ m]: one gather
        of 2^n entries.
        """
        dim = 1 << self.n_qubits
        rows = np.arange(dim)
        signs = (np.ones(dim, dtype=np.int8) if plan.signs is None
                 else plan.signs.reshape(-1))
        return np.conj(plan.scalar) * np.dot(
            signs, self.vec.amplitudes[rows * dim + (rows ^ plan.mask)])


# I, X, Y, Z as 2x2 matrices.
_PAULIS = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """rho -> (1-p) rho + p I/2; Bloch vector contracts by (1-p)."""
    if not 0.0 <= p <= 1.0:
        raise CalibrationError("depolarizing rate outside [0, 1]")
    return [math.sqrt(1 - 0.75 * p) * _PAULIS[0]] + [
        math.sqrt(p / 4.0) * pauli for pauli in _PAULIS[1:]]


def two_qubit_depolarizing_kraus(p: float) -> List[np.ndarray]:
    """15-Pauli channel rho -> (1-p) rho + p I/4 on a qubit pair."""
    if not 0.0 <= p <= 1.0:
        raise CalibrationError("depolarizing rate outside [0, 1]")
    out = [math.sqrt(1 - 15.0 * p / 16.0) * np.kron(_PAULIS[0], _PAULIS[0])]
    for i in range(4):
        for j in range(4):
            if i == j == 0:
                continue
            out.append(math.sqrt(p / 16.0) * np.kron(_PAULIS[i], _PAULIS[j]))
    return out


def thermal_relaxation_kraus(t_ns: float, t1_us: float,
                             t2_us: float) -> List[np.ndarray]:
    """Amplitude damping p1 = 1 - exp(-t/T1) composed with the pure
    dephasing left over once T2 <= 2 T1 is accounted for."""
    if t1_us <= 0 or t2_us <= 0:
        raise CalibrationError("T1 and T2 must be positive")
    t_us = t_ns * 1e-3
    gamma = 0.0 if math.isinf(t1_us) else 1.0 - math.exp(-t_us / t1_us)
    # residual off-diagonal decay after amplitude damping's exp(-t/2T1)
    exponent = (0.0 if math.isinf(t2_us) else t_us / t2_us) \
        - (0.0 if math.isinf(t1_us) else t_us / (2.0 * t1_us))
    dephase = max(0.0, 1.0 - math.exp(-exponent))
    p_z = 0.5 * dephase
    damp = [np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]
    if p_z == 0.0:
        return damp
    phase = [math.sqrt(1 - p_z) * _PAULIS[0], math.sqrt(p_z) * _PAULIS[3]]
    return [p @ d for p in phase for d in damp]


def channel_superoperator(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Row-major-vec superoperator sum_k K (x) conj(K) of a local channel."""
    dim = kraus[0].shape[0]
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus:
        out += np.kron(k, k.conj())
    return out


def _gather_plan(calib: CalibrationData, n: int,
                 qubits: Tuple[int, ...]) -> np.ndarray:
    """Indices of vec(rho) that line up a k-qubit channel's operands.

    Row j of the (4^k, 4^{n-k}) plan lists the flat positions whose row
    bits on ``qubits``, then column bits on ``qubits``, spell j, so that
    ``amps[plan] = superop @ amps[plan]`` applies the channel.
    """
    key = ("gather", n, qubits)
    plan = calib._derived.get(key)
    if plan is None:
        axes = qubits + tuple(n + q for q in qubits)
        order = np.arange(1 << (2 * n)).reshape((2,) * (2 * n))
        order = np.moveaxis(order, axes, range(len(axes)))
        plan = np.ascontiguousarray(order).reshape(1 << len(axes), -1)
        calib._derived[key] = plan
    return plan


def _noise_channels(calib: CalibrationData, n: int, operands: Tuple[int, ...],
                    two_qubit: bool) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(superoperator, gather plan) pairs of the noise on sorted operands,
    cached on the calibration by operand set.

    A two-qubit gate draws the pair's 16x16 depolarizing channel, then
    each operand's relaxation over the pair's gate time.  Anything else
    (a one-qubit gate or a Pauli rotation) draws each operand's
    depolarizing and relaxation composed into one 4x4 superoperator.
    Identity channels are dropped.
    """
    key = ("channels", n, operands, two_qubit)
    channels = calib._derived.get(key)
    if channels is not None:
        return channels
    channels = []

    def push(superop: np.ndarray, qubits: Tuple[int, ...]):
        if not np.allclose(superop, np.eye(superop.shape[0]), atol=1e-15):
            channels.append((superop, _gather_plan(calib, n, qubits)))

    if two_qubit:
        pair = calib.pair(operands[0], operands[1])
        if pair.err_cnot > 0.0:
            push(channel_superoperator(
                two_qubit_depolarizing_kraus(pair.err_cnot)), operands)
        for q in operands:
            row = calib.qubit(q)
            push(channel_superoperator(thermal_relaxation_kraus(
                pair.time_ns, row.t1_us, row.t2_us)), (q,))
    else:
        for q in operands:
            row = calib.qubit(q)
            combined = channel_superoperator(
                thermal_relaxation_kraus(calib.gate_time_1q_ns, row.t1_us,
                                         row.t2_us))
            if row.err_1q > 0.0:
                combined = combined @ channel_superoperator(
                    depolarizing_kraus(row.err_1q))
            push(combined, (q,))
    calib._derived[key] = channels
    return channels


def apply_noisy_gate(rho: DensityMatrix, gate: GateOp,
                     calib: CalibrationData) -> DensityMatrix:
    """Ideal gate, then depolarizing, then relaxation on the operands.

    Serves the theta-independent preparation gates.  Every gate kind is
    real, so its column half is the same gate on qubits shifted by n.
    """
    n = rho.n_qubits
    operands = tuple(sorted(gate.operands()))
    for q in operands:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    apply_gate(rho.vec, gate)
    apply_gate(rho.vec, gate.shifted(n))
    amps = rho.vec.amplitudes
    two_qubit = gate.kind == "CONTROLLED" and len(operands) == 2
    for superop, plan in _noise_channels(calib, n, operands, two_qubit):
        amps[plan] = superop @ amps[plan]
    return rho


def apply_noisy_ansatz(rho: DensityMatrix, circuit: AnsatzCircuit, theta,
                       calib: CalibrationData) -> DensityMatrix:
    """U(theta) rotation by rotation, each followed by its operands'
    one-qubit channels; zero angles are skipped.

    Rotation r at angle phi runs ``circuit.plans(2n).strings[r]`` on the
    row qubits, then ``circuit.plans(n).strings[r]`` on the column qubits
    at -(-1)^{#Y} phi; that plan's scalar (-i)^{#Y} squares to (-1)^{#Y}.
    """
    n = rho.n_qubits
    narrow = circuit.plans(n)  # raises if the circuit is wider than rho
    wide = circuit.plans(2 * n)
    tensor = rho.vec.tensor()
    for rot, row, column, angle in zip(circuit.rotations, wide.strings,
                                       narrow.strings,
                                       narrow.angles(parameter_vector(theta))):
        if angle == 0.0:
            continue
        tensor = row.rotate(tensor, angle)
        tensor = column.rotate(tensor, -(column.scalar ** 2).real * angle)
        amps = tensor.reshape(-1)
        for superop, plan in _noise_channels(calib, n, rot.string.support(),
                                             False):
            amps[plan] = superop @ amps[plan]
    rho.vec.amplitudes = tensor.reshape(-1)
    return rho


# ---------------------------------------------------------------------------
# Shot-sampled expectations and the noisy objective.
# ---------------------------------------------------------------------------

@dataclass
class ShotSampler:
    """Binomial sampler around exact noisy expectations; shots=0 is the
    exact-value sentinel."""

    shots: int = DEFAULT_SHOTS
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0 (0 = exact sentinel)")

    def sample(self, exact_value: float) -> float:
        if self.shots == 0:
            return exact_value
        p = min(1.0, max(0.0, 0.5 * (1.0 + exact_value)))
        hits = self.rng.binomial(self.shots, p)
        return 2.0 * hits / self.shots - 1.0


def evolve_noisy(gates: Sequence[GateOp], n_qubits: int,
                 calib: CalibrationData) -> DensityMatrix:
    rho = DensityMatrix(n_qubits)
    for gate in gates:
        apply_noisy_gate(rho, gate, calib)
    return rho


def noisy_ensemble_energy(h: PauliSum, circuit, prep, theta,
                          calib: CalibrationData,
                          sampler: Optional[ShotSampler] = None) -> float:
    """Noisy-gate evolution of prep + ansatz, then per-term shot estimates.

    The preparation does not depend on theta: its noisy state is evolved
    once per calibration and program, and each call starts from a copy.
    Every non-identity Pauli term is sampled independently (no measurement
    grouping); the identity term contributes its coefficient exactly.
    Per-term traces read the plans ``h.plans(n)`` compiled once per
    Hamiltonian.
    """
    n = prep.n_qubits
    key = ("prep", n, prep.program)
    prepared = calib._derived.get(key)
    if prepared is None:
        prepared = evolve_noisy(prep.program, n, calib)
        calib._derived[key] = prepared
    rho = apply_noisy_ansatz(prepared.copy(), circuit, theta, calib)
    total = 0.0
    for coeff, plan in h.plans(n):
        if plan.flip is None and plan.signs is None:  # the identity string
            total += coeff.real
            continue
        exact_value = float(rho.pauli_trace(plan).real)
        total += coeff.real * (sampler.sample(exact_value)
                               if sampler is not None else exact_value)
    return total


def totally_mixed_energy(h: PauliSum) -> float:
    """Tr(H)/2^n: the identity coefficient, the noise-saturation reference."""
    return float(h.coefficient(PauliString(h.n_qubits)).real)


# ---------------------------------------------------------------------------
# SPSA.
# ---------------------------------------------------------------------------

@dataclass
class SpsaResult:
    theta_star: np.ndarray
    best_value: float
    trace: List[float]
    iterations_used: int


def spsa_optimize(objective: Callable[[np.ndarray], float],
                  theta0: Sequence[float], config, max_iterations: int,
                  seed: int = 0) -> SpsaResult:
    """Two-evaluation SPSA with gain schedules a_k = a/(k+1+A)^alpha and
    c_k = c/(k+1)^gamma, Rademacher perturbations, best-seen tracking.

    The trace records (y+ + y-)/2 per iteration; reproducibility is exact
    for a fixed seed.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    rng = np.random.default_rng(seed)
    best_theta = theta.copy()
    best_value = math.inf
    trace: List[float] = []
    for k in range(max_iterations):
        a_k = config.a / (k + 1 + config.big_a) ** config.alpha
        c_k = config.c / (k + 1) ** config.gamma
        delta = rng.integers(0, 2, size=theta.size) * 2.0 - 1.0
        y_plus = objective(theta + c_k * delta)
        y_minus = objective(theta - c_k * delta)
        if not (np.isfinite(y_plus) and np.isfinite(y_minus)):
            raise FloatingPointError(f"objective diverged at iteration {k}")
        ghat = (y_plus - y_minus) / (2.0 * c_k) * delta
        theta = theta - a_k * ghat
        mid = 0.5 * (y_plus + y_minus)
        trace.append(mid)
        if mid < best_value:
            best_value = mid
            best_theta = theta.copy()
    return SpsaResult(best_theta, best_value, trace, len(trace))

"""Monte Carlo noise injection: stochastic Pauli errors after every gate,
plus classical measurement-bit flips.

Each trajectory inserts X (probability eps_bitflip) and Z (eps_phase)
independently on every qubit a gate touches, immediately after the gate.
Averaging exact fidelities over trajectories estimates the density-matrix
fidelity under the corresponding stochastic Pauli channel.

Trajectories advance together: a batch of them is one C-contiguous
``(rows, 2**n)`` amplitude array. The whole batch goes once through
``statevector.apply_gates_inplace``, the executor ``statevector.run`` uses,
with the drawn errors. Every row runs the fused runs of the noiseless
circuit, each once, and the rows an error hits take it after its run,
conjugated through the run's gates after the error's own. Each drawn error
lies on a qubit of its own gate, so only errors on basis runs take a map.
A trajectory's bits depend on its own errors alone: each row of a batch
equals the one-row batch of its errors, and a single trajectory
(``run_noisy``) is that one-row batch. The errors are drawn as the
executor reaches them, one chunk of error slots at a time, and a draw
costs about as much as the errors it yields.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain, groupby
from operator import itemgetter

import numpy as np

from .circuit import _QUBITS, Circuit, Gate, GateKind, _integer
from .protocol import (
    LogicalLabel,
    ProtocolParams,
    chain_fidelity,
    compile_scenario,
)
from .statevector import (
    QuantumState,
    SampleCounts,
    apply_gates_inplace,
    batch_rows_within,
    check_register,
    index_to_bitstring,
    zero_state,
)

# Memory of one batch of trajectories in ``noisy_fidelity``; a batch always
# holds at least one row.
BATCH_BYTES = 32 << 20
# Memory of the drawn hits of one chunk of error slots: a chunk has 16 bytes
# per slot and row. A hit takes about 150 bytes of Python objects while its
# chunk is sorted, so the hits fit for error rates up to about 0.05; the
# rates of the paper's regime draw a few hits a chunk.
_DRAW_BYTES = 64 << 10
_PAULIS = (GateKind.X, GateKind.Z)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate, per-touched-qubit error probabilities.

    ``eps_bitflip`` / ``eps_phase`` apply to all gates; the optional
    per-arity overrides replace them for one- or two-qubit gates only.
    """

    eps_bitflip: float = 0.0
    eps_phase: float = 0.0
    trajectories: int = 200
    eps_bitflip_1q: float | None = None
    eps_bitflip_2q: float | None = None
    eps_phase_1q: float | None = None
    eps_phase_2q: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name.startswith("eps_") and v is not None and not 0.0 <= v <= 0.5:
                raise ValueError(f"{f.name} = {v} outside [0, 0.5]")
        trajectories = _integer("trajectories", self.trajectories)
        object.__setattr__(self, "trajectories", trajectories)
        if trajectories < 1:
            raise ValueError("trajectories must be >= 1")

    def bitflip_for(self, arity: int) -> float:
        override = self.eps_bitflip_1q if arity == 1 else self.eps_bitflip_2q
        return self.eps_bitflip if override is None else override

    def phase_for(self, arity: int) -> float:
        override = self.eps_phase_1q if arity == 1 else self.eps_phase_2q
        return self.eps_phase if override is None else override


def _slots(gates: tuple[Gate, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The arity of each gate and the qubit of each error slot (each touched
    qubit of each gate, in gate order), from one pass over the gates' qubit
    tuples. Their list is dropped on return, so no per-gate Python object
    stays alive while the trajectories run. An arity is 1 or 2, so it is
    kept as one byte: the arrays of a batch's slots stay alive while the
    whole batch runs."""
    qubits = list(map(_QUBITS, gates))
    arity = np.fromiter(map(len, qubits), dtype=np.int8, count=len(qubits))
    qubit_of = np.fromiter(
        chain.from_iterable(qubits), dtype=np.intp, count=int(arity.sum())
    )
    return arity, qubit_of


def draw_errors(
    circuit: Circuit, model: NoiseModel, rows: int, rng: np.random.Generator
) -> Iterator[tuple[int, Gate, np.ndarray]]:
    """The Pauli errors of ``rows`` trajectories, in the order they act.

    Yields (gate index, error gate, rows it hits): each touched qubit of
    each gate, in order, gets an X with probability ``bitflip_for(arity)``
    and then a Z with ``phase_for(arity)``, independently for every row.

    The slots are drawn a chunk at a time, as the executor reaches them. In
    each chunk, each class of error (arity, Pauli) draws its number of hits
    from the binomial law of its slots x rows trials, then that many
    distinct (slot, row) positions, every set of them equally likely: the
    same law as one Bernoulli draw per trial, at a cost that goes with the
    hits drawn and not with the gates x trajectories. A class of
    probability zero draws nothing, and a model of zero rates leaves
    ``rng`` untouched and reads no gate.
    """
    # The classes in the order (1, X), (1, Z), (2, X), (2, Z).
    probs = [f(a) for a in (1, 2) for f in (model.bitflip_for, model.phase_for)]
    if not any(probs):
        return
    arity, qubit_of = _slots(circuit.gates)
    # One slot per touched qubit of each gate, in gate order.
    gate_of = np.repeat(np.arange(arity.size), arity)
    slot_arity = np.repeat(arity, arity)
    chunk = max(1, _DRAW_BYTES // (16 * rows))
    for start in range(0, slot_arity.size, chunk):
        arities = slot_arity[start:start + chunk]
        twos = int(arities.sum()) - arities.size
        hits = []
        for cls, p in enumerate(probs):
            trials = (twos if cls > 1 else arities.size - twos) * rows
            count = rng.binomial(trials, p) if p and trials else 0
            if count:
                slots = (arities == cls // 2 + 1).nonzero()[0].tolist()
                pauli = cls % 2
                for position in _distinct(rng, trials, count):
                    s, row = divmod(position, rows)
                    hits.append((2 * (start + slots[s]) + pauli, row))
        # Hits by slot, then X before Z, then row: each run of equal keys
        # 2 * slot + pauli is one error gate and the rows it hits.
        hits.sort()
        for key, group in groupby(hits, key=itemgetter(0)):
            s, pauli = divmod(key, 2)
            gate = Gate._trusted(_PAULIS[pauli], (int(qubit_of[s]),))
            yield int(gate_of[s]), gate, np.array([row for _, row in group])


def _distinct(rng: np.random.Generator, trials: int, count: int) -> set[int]:
    """``count`` distinct integers below ``trials``, every such set equally
    likely (R. Floyd's algorithm): one bounded integer draw each."""
    picked: set[int] = set()
    for j in range(trials - count, trials):
        t = int(rng.integers(j + 1))
        picked.add(j if t in picked else t)
    return picked


def run_trajectories(
    circuit: Circuit,
    initial: QuantumState,
    model: NoiseModel,
    rows: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``rows`` noise trajectories of ``circuit`` from ``initial``, advanced
    together; row r of the returned ``(rows, 2**n)`` array is trajectory r.

    The whole batch goes through ``statevector.apply_gates_inplace`` once,
    with the drawn errors; each row's bits are those of its own errors run
    alone. ``rows`` below one is rejected before anything is allocated."""
    rows = _integer("rows", rows)
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    if circuit.n_qubits != initial.n_qubits:
        raise ValueError("register mismatch")
    amps = np.empty((rows, initial.amplitudes.size), dtype=complex)
    amps[:] = initial.amplitudes
    errors = draw_errors(circuit, model, rows, rng)
    apply_gates_inplace(amps, initial.n_qubits, circuit.gates, errors)
    return amps


def run_noisy(
    circuit: Circuit, initial: QuantumState, model: NoiseModel, seed
) -> QuantumState:
    """One noise trajectory; deterministic given ``seed`` (an int or a
    sequence of ints, as accepted by ``numpy.random.default_rng``)."""
    amps = run_trajectories(circuit, initial, model, 1, np.random.default_rng(seed))
    return QuantumState(initial.n_qubits, amps[0])


def batch_rows(n_qubits: int) -> int:
    """Rows of a full batch: as many as the executor runs within
    ``BATCH_BYTES`` beside one chunk of drawn errors, and at least one."""
    return batch_rows_within(BATCH_BYTES - _DRAW_BYTES, n_qubits)


def noisy_fidelity(
    params: ProtocolParams,
    scenario: str,
    init: LogicalLabel,
    model: NoiseModel,
    seed: int | None = None,
) -> tuple[float, float]:
    """Mean and standard error of the exact scenario fidelity over noise
    trajectories. All trajectories draw from one generator seeded by the
    master seed (``seed``, else ``params.seed``) and run in batches of
    ``batch_rows`` rows. A register too large to simulate is rejected
    before anything is compiled."""
    check_register(params.n_qubits)
    run_ = compile_scenario(params, scenario, init)
    eff = run_.params
    full = run_.prepared_circuit
    initial = zero_state(eff.n_qubits)
    rng = np.random.default_rng(params.seed if seed is None else seed)
    total = model.trajectories
    step = batch_rows(eff.n_qubits)
    values = np.empty(total)
    for start in range(0, total, step):
        amps = run_trajectories(full, initial, model, min(step, total - start), rng)
        for r, row in enumerate(amps, start):
            values[r] = chain_fidelity(
                QuantumState(eff.n_qubits, row), run_.target_chain, eff.coupler_qubit
            )
    # Taken about the first value, so that equal values, as with zero noise,
    # give exactly that value and a zero stderr: values.mean() of three equal
    # values can differ from them in the last bit.
    dev = values - values[0]
    mean = float(values[0] + dev.mean())
    stderr = float(dev.std(ddof=1) / math.sqrt(total)) if total > 1 else 0.0
    return mean, stderr


def apply_measurement_error(
    counts: SampleCounts, eps_meas: float, seed: int
) -> SampleCounts:
    """Flip each recorded bit independently with probability ``eps_meas``."""
    if not 0.0 <= eps_meas <= 1.0:
        raise ValueError("eps_meas must be in [0, 1]")
    if eps_meas == 0.0:
        return counts
    if counts.n_bits > 62:
        raise ValueError("measurement error packs each shot into one int64")
    rng = np.random.default_rng(seed)
    keys = sorted(counts.counts)
    bits = np.array([[c == "1" for c in k] for k in keys], dtype=bool).reshape(
        len(keys), counts.n_bits
    )
    shots = np.repeat(bits, [counts.counts[k] for k in keys], axis=0)
    shots ^= rng.random(shots.shape) < eps_meas
    packed = shots @ (1 << np.arange(counts.n_bits))
    values, tallies = np.unique(packed, return_counts=True)
    flipped = {
        index_to_bitstring(v, counts.n_bits): int(c)
        for v, c in zip(values.tolist(), tallies)
    }
    return SampleCounts(counts=flipped, shots=counts.shots, n_bits=counts.n_bits)

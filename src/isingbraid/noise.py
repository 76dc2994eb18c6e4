"""Monte Carlo noise injection: stochastic Pauli errors after every gate,
plus classical measurement-bit flips.

Each trajectory inserts X (probability eps_bitflip) and Z (eps_phase)
independently on every qubit a gate touches, immediately after the gate.
Averaging exact fidelities over trajectories estimates the density-matrix
fidelity under the corresponding stochastic Pauli channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .protocol import (
    LogicalLabel,
    ProtocolParams,
    chain_fidelity,
    compile_scenario,
)
from .statevector import (
    QuantumState,
    SampleCounts,
    apply_gate_inplace,
    check_register,
    run,
    zero_state,
)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate, per-touched-qubit error probabilities.

    ``eps_bitflip`` / ``eps_phase`` apply to all gates; the optional
    per-arity overrides replace them for one- or two-qubit gates only.
    """

    eps_bitflip: float = 0.0
    eps_phase: float = 0.0
    eps_meas: float = 0.0
    trajectories: int = 200
    eps_bitflip_1q: float | None = None
    eps_bitflip_2q: float | None = None
    eps_phase_1q: float | None = None
    eps_phase_2q: float | None = None

    def __post_init__(self) -> None:
        for name in (
            "eps_bitflip",
            "eps_phase",
            "eps_meas",
            "eps_bitflip_1q",
            "eps_bitflip_2q",
            "eps_phase_1q",
            "eps_phase_2q",
        ):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} = {v} outside [0, 0.5]")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")

    def bitflip_for(self, arity: int) -> float:
        override = self.eps_bitflip_1q if arity == 1 else self.eps_bitflip_2q
        return self.eps_bitflip if override is None else override

    def phase_for(self, arity: int) -> float:
        override = self.eps_phase_1q if arity == 1 else self.eps_phase_2q
        return self.eps_phase if override is None else override

    @property
    def is_noiseless(self) -> bool:
        return all(
            self.bitflip_for(a) == 0.0 and self.phase_for(a) == 0.0
            for a in (1, 2)
        )


def run_noisy(
    circuit: Circuit, initial: QuantumState, model: NoiseModel, seed
) -> QuantumState:
    """One noise trajectory; deterministic given ``seed`` (an int or a
    sequence of ints, as accepted by ``numpy.random.default_rng``)."""
    if circuit.n_qubits != initial.n_qubits:
        raise ValueError("register mismatch")
    if model.is_noiseless:
        return run(initial, circuit)
    out = initial.copy()
    amps, n = out.amplitudes, out.n_qubits
    rng = np.random.default_rng(seed)
    for gate in circuit.gates:
        apply_gate_inplace(amps, n, gate)
        p_x = model.bitflip_for(gate.arity)
        p_z = model.phase_for(gate.arity)
        for q in gate.qubits:
            if p_x > 0.0 and rng.random() < p_x:
                apply_gate_inplace(amps, n, Gate(GateKind.X, (q,)))
            if p_z > 0.0 and rng.random() < p_z:
                apply_gate_inplace(amps, n, Gate(GateKind.Z, (q,)))
    return out


def noisy_fidelity(
    params: ProtocolParams,
    scenario: str,
    init: LogicalLabel,
    model: NoiseModel,
    seed: int | None = None,
) -> tuple[float, float]:
    """Mean and standard error of the exact scenario fidelity over noise
    trajectories. Trajectory seeds derive from (master seed, index). A
    register too large to simulate is rejected before anything is compiled."""
    check_register(params.n_qubits)
    run_ = compile_scenario(params, scenario, init)
    eff = run_.params
    full = run_.prepared_circuit
    initial = zero_state(eff.n_qubits)
    master = params.seed if seed is None else seed
    values = np.empty(model.trajectories)
    for t in range(model.trajectories):
        final = run_noisy(full, initial, model, seed=[master, t])
        values[t] = chain_fidelity(final, run_.target_chain, eff.coupler_qubit)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(model.trajectories)) if model.trajectories > 1 else 0.0
    return mean, stderr


def apply_measurement_error(
    counts: SampleCounts, eps_meas: float, seed: int
) -> SampleCounts:
    """Flip each recorded bit independently with probability ``eps_meas``."""
    if not 0.0 <= eps_meas <= 1.0:
        raise ValueError("eps_meas must be in [0, 1]")
    if eps_meas == 0.0:
        return counts
    rng = np.random.default_rng(seed)
    flipped: dict[str, int] = {}
    for bits, c in sorted(counts.counts.items()):
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        for _ in range(c):
            flips = rng.random(counts.n_bits) < eps_meas
            out = arr ^ flips
            key = "".join("1" if b else "0" for b in out)
            flipped[key] = flipped.get(key, 0) + 1
    return SampleCounts(counts=flipped, shots=counts.shots, n_bits=counts.n_bits)

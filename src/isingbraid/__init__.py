"""Gate-level simulator and experiment harness for a braiding-like exchange
protocol on two coupled transverse-field Ising chains."""

from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateCounts,
    GateKind,
    concat,
    depth,
    gate_counts,
    inverse,
    to_qasm,
)
from .statevector import (
    QuantumState,
    SampleCounts,
    apply_gate,
    fidelity,
    run,
    sample,
    zero_state,
)
from .trotter import ChainConfig, trotter_step_circuit
from .protocol import (
    LogicalLabel,
    ProtocolParams,
    FidelityReport,
    build_protocol_circuit,
    depth_upper_bound,
    run_scenario,
)
from .schedule import build_field_schedule
from .noise import NoiseModel, apply_measurement_error, noisy_fidelity, run_noisy
from .analysis import (
    adiabatic_margin,
    commutator_norms,
    exact_evolve,
    per_step_error_bound,
    total_error_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitError",
    "Gate",
    "GateCounts",
    "GateKind",
    "concat",
    "depth",
    "gate_counts",
    "inverse",
    "to_qasm",
    "QuantumState",
    "SampleCounts",
    "apply_gate",
    "fidelity",
    "run",
    "sample",
    "zero_state",
    "ChainConfig",
    "trotter_step_circuit",
    "LogicalLabel",
    "ProtocolParams",
    "FidelityReport",
    "build_field_schedule",
    "build_protocol_circuit",
    "run_scenario",
    "NoiseModel",
    "apply_measurement_error",
    "noisy_fidelity",
    "run_noisy",
    "adiabatic_margin",
    "commutator_norms",
    "depth_upper_bound",
    "exact_evolve",
    "per_step_error_bound",
    "total_error_bound",
    "__version__",
]

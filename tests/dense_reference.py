"""Dense references the tests check the library against: the unitary of a
circuit built gate by gate, the distance of two unitaries up to global
phase, and the Zeeman layer of a Trotter step as a circuit of its own."""
import numpy as np

from isingbraid.analysis import MAX_DENSE_QUBITS, operator_norm
from isingbraid.circuit import Circuit, CircuitError, Gate, GateKind
from isingbraid.statevector import apply_gate_inplace
from isingbraid.trotter import ChainConfig


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary, built gate by gate from the basis states."""
    n = circuit.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense construction limited to {MAX_DENSE_QUBITS} qubits")
    dim = 1 << n
    # Rows are contiguous, so transform the basis states as one batch of
    # rows and transpose at the end: row r ends up holding U|r>.
    rows = np.eye(dim, dtype=complex)
    flat = rows.reshape(-1)
    for gate in circuit.gates:
        apply_gate_inplace(flat, n, gate)
    return rows.T.copy()


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of ||u - e^{i a} v|| in operator norm."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return operator_norm(u - phase * v)


def zeeman_circuit(cfg: ChainConfig, fields, dt: float) -> Circuit:
    """Circuit for exp(-i H_Z dt) with H_Z = -sum_n h_n X_n: RX(-2 h_n dt)."""
    fields = tuple(float(h) for h in fields)
    if len(fields) != cfg.n_sites:
        raise CircuitError(f"need {cfg.n_sites} field values, got {len(fields)}")
    return Circuit(cfg.n_qubits, tuple(
        Gate(GateKind.RX, (cfg.site_qubit(site),), -2.0 * h * dt)
        for site, h in enumerate(fields)
    ))

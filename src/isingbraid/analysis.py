"""Analytic error bounds, commutator diagnostics, exact-evolution oracles,
and depth accounting.

Dense constructions are restricted to small registers (<= 10 qubits); the
bound formulas themselves are closed-form and size-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .statevector import MAX_DENSE_QUBITS
from .trotter import (
    ChainConfig,
    first_layer_pairs,
    second_layer_pairs,
)

if TYPE_CHECKING:
    from .protocol import FieldSchedule, ProtocolParams
    from .statevector import QuantumState

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(n_qubits: int, ops: dict[int, str]) -> np.ndarray:
    """Dense matrix of a Pauli string, little-endian qubit ordering."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense construction limited to {MAX_DENSE_QUBITS} qubits")
    m = np.array([[1.0 + 0j]])
    for q in range(n_qubits):
        m = np.kron(_PAULI[ops[q]] if q in ops else _I2, m)
    return m


def dense_zz_layer(cfg: ChainConfig, pairs) -> np.ndarray:
    """-J sum over ``pairs`` of Z_i Z_j on the full register."""
    n = cfg.n_qubits
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j in pairs:
        h -= cfg.J * pauli_string(
            n, {cfg.site_qubit(i): "z", cfg.site_qubit(j): "z"}
        )
    return h


def dense_zeeman(cfg: ChainConfig) -> np.ndarray:
    """-sum_n h_n X_n on the full register."""
    n = cfg.n_qubits
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for site, hn in enumerate(cfg.fields):
        if hn != 0.0:
            h -= hn * pauli_string(n, {cfg.site_qubit(site): "x"})
    return h


def dense_coupler(cfg: ChainConfig) -> np.ndarray:
    """-J_C Z_left-end Z_coupler Z_right-start on the full register."""
    n = cfg.n_qubits
    if cfg.J_C == 0.0:
        return np.zeros((1 << n, 1 << n), dtype=complex)
    return -cfg.J_C * pauli_string(
        n,
        {
            cfg.site_qubit(cfg.left_end_site): "z",
            cfg.coupler_qubit: "z",
            cfg.site_qubit(cfg.right_start_site): "z",
        },
    )


def dense_summands(cfg: ChainConfig) -> dict[str, np.ndarray]:
    return {
        "zz_first": dense_zz_layer(cfg, first_layer_pairs(cfg)),
        "zz_second": dense_zz_layer(cfg, second_layer_pairs(cfg)),
        "zeeman": dense_zeeman(cfg),
        "coupler": dense_coupler(cfg),
    }


def dense_hamiltonian(cfg: ChainConfig) -> np.ndarray:
    parts = dense_summands(cfg)
    return parts["zz_first"] + parts["zz_second"] + parts["zeeman"] + parts["coupler"]


def expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) by eigendecomposition of the Hermitian matrix ``h``."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(m, 2))


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of ||u - e^{i a} v|| in operator norm."""
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return operator_norm(u - phase * v)


# ---------------------------------------------------------------------------
# Closed-form bounds


def per_step_error_bound(params: "ProtocolParams") -> float:
    """Upper bound on the leading operator-norm error of one first-order step:
    (N_s J + 2 J_C) h_para dt^2.

    The leading error itself is (dt^2/2) ||sum_{i<j} [H_i, H_j]||, the
    summands taken in the order the step applies them (``dense_summands``).
    With the domain on one chain of a 6-site register it is 0.46-0.47 of
    this bound."""
    return (params.N_s * params.J + 2.0 * params.J_C) * params.h_para * params.dt**2


def total_error_bound(params: "ProtocolParams") -> float:
    """Upper bound on the accumulated leading error over the full
    there-and-back transport: N_s (h_para/dh) (T/dt) x per-step bound.

    To leading order the accumulated error is at most the sum of the
    per-step leading errors (dt^2/2) ||sum_{i<j} [H_i, H_j]||, each of which
    ``per_step_error_bound`` bounds."""
    return (
        params.N_s
        * (params.h_para / params.dh)
        * (params.T / params.dt)
        * per_step_error_bound(params)
    )


def adiabatic_margin(params: "ProtocolParams") -> float:
    """((2 J T) / dh) / dt; values >> 1 indicate adiabatic field updates."""
    return (2.0 * params.J * params.T / params.dh) / params.dt


def bound_values(params: "ProtocolParams") -> dict[str, float]:
    """The closed-form values every report carries, keyed as in a run
    report's ``bound_values``."""
    return {
        "per_step": per_step_error_bound(params),
        "total": total_error_bound(params),
        "adiabatic_margin": adiabatic_margin(params),
    }


STEP_DEPTH = 12  # layered depth of one full step, independent of system size


@dataclass(frozen=True)
class DepthBound:
    real: float
    integer: int


def depth_upper_bound(params: "ProtocolParams") -> DepthBound:
    """Depth bound D = 12 (T/dt) (N_s h_para/dh + pi/Gamma).

    ``real`` evaluates the formula with exact reals; ``integer`` uses the
    same rounding conventions as the compiled schedule (nearest step count
    per hold, ceil update and rotation counts).
    """
    from .protocol import rotation_count, steps_per_hold, updates_per_shift

    real = (
        STEP_DEPTH
        * (params.T / params.dt)
        * (params.N_s * (params.h_para / params.dh) + math.pi / params.Gamma)
    )
    integer = (
        STEP_DEPTH
        * steps_per_hold(params)
        * (params.N_s * updates_per_shift(params) + rotation_count(params))
    )
    return DepthBound(real=real, integer=integer)


# ---------------------------------------------------------------------------
# Commutator diagnostics


@dataclass(frozen=True)
class CommutatorReport:
    """Analytic bounds and exact norms of the three non-zero summand
    commutators."""

    bounds: dict[str, float]
    exact: dict[str, float]
    max_vanishing_norm: float


def commutator_bounds(cfg: ChainConfig) -> dict[str, float]:
    """Analytic upper bounds: 2J(h_i + h_j) per ZZ pair against the Zeeman
    term, and 2 J_C (h_a + h_b) for the coupler term."""
    def zz_bound(pairs) -> float:
        return sum(2.0 * cfg.J * (cfg.fields[i] + cfg.fields[j]) for i, j in pairs)

    return {
        "zz_first_zeeman": zz_bound(first_layer_pairs(cfg)),
        "zz_second_zeeman": zz_bound(second_layer_pairs(cfg)),
        "zeeman_coupler": 2.0
        * cfg.J_C
        * (cfg.fields[cfg.left_end_site] + cfg.fields[cfg.right_start_site]),
    }


def commutator_norms(cfg: ChainConfig) -> CommutatorReport:
    """Analytic bounds plus dense spectral norms on small registers.

    ``max_vanishing_norm`` is the largest norm among the summand pairs that
    should commute exactly (all ZZ/coupler combinations).
    """
    if cfg.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError("exact commutator norms limited to small registers")
    parts = dense_summands(cfg)

    def comm(a: str, b: str) -> float:
        return operator_norm(parts[a] @ parts[b] - parts[b] @ parts[a])

    exact_norms = {
        "zz_first_zeeman": comm("zz_first", "zeeman"),
        "zz_second_zeeman": comm("zz_second", "zeeman"),
        "zeeman_coupler": comm("zeeman", "coupler"),
    }
    vanishing = max(
        comm("zz_first", "zz_second"),
        comm("zz_first", "coupler"),
        comm("zz_second", "coupler"),
    )
    return CommutatorReport(
        bounds=commutator_bounds(cfg), exact=exact_norms, max_vanishing_norm=vanishing
    )


# ---------------------------------------------------------------------------
# Exact-evolution oracle


def exact_evolve(
    schedule: "FieldSchedule",
    params: "ProtocolParams",
    initial: "QuantumState",
) -> "QuantumState":
    """Trotter-free reference: piecewise-constant exact evolution.

    Applies exp(-i H(f) dt) as a dense matrix exponential for every Trotter
    step of the compiled schedule, walking it as ``build_protocol_circuit``
    does; a ``stepped`` hold builds its exponential once.
    """
    from .circuit import Gate, GateKind
    from .protocol import RotateCoupler, chain_config, walk_schedule
    from .statevector import QuantumState, apply_gate_inplace

    if params.N_s + 1 > MAX_DENSE_QUBITS:
        raise ValueError("exact evolution limited to small registers")
    if initial.n_qubits != params.N_s + 1:
        raise ValueError("register mismatch")

    state = initial.copy()
    amps = state.amplitudes
    n = state.n_qubits
    for item in walk_schedule(params, schedule):
        if isinstance(item, RotateCoupler):
            apply_gate_inplace(
                amps, n, Gate(GateKind.RY, (params.coupler_qubit,), item.angle)
            )
            continue
        fields, repeats = item
        u = expm_hermitian(dense_hamiltonian(chain_config(params, fields)), params.dt)
        for _ in range(repeats):
            amps[:] = u @ amps
    return QuantumState(n, amps)

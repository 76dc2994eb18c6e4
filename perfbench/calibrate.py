"""Fixed reference work, timed between ops, that gives op times at one speed.

The machine's speed drifts, by up to 2x over seconds to minutes, and a
run's op times follow the spell it falls in. The worker times its
workload's reference work after set-up and after every op. An op's time
divided by the mean time of the reference work just before and just after
it, times the reference work's nominal seconds, is the op's time at the
speed where the reference work takes those seconds. The reference work is
the benchmark's own frozen code, so a change to the library changes op
times but not the reference.

Different kinds of work slow down by different amounts in a slow spell, so
each workload's reference work is a small copy of the kind of work it
does: building gate tuples (compile), a Python loop of 2x2 gates and CNOTs
on a 7-qubit state (interpreter-bound kernels), the same with two random
draws per gate (noise trajectories), the same loop on a 15-qubit state of
512 KiB (memory-bound kernels), or a dense 128x128 Hamiltonian and its
``eigh`` (the exact oracle).
"""
from __future__ import annotations

import math
import time
from collections import namedtuple

import numpy as np

_Gate = namedtuple("_Gate", "kind qubits angle")
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def _compile(n_gates: int, n_qubits: int) -> list:
    """A Trotter-step-like gate list: two rotations per CNOT."""
    gates = []
    for i in range(n_gates):
        q = i % (n_qubits - 1)
        if i % 3:
            gates.append(_Gate("ry" if i & 1 else "rz", (q,), 1e-3 * i))
        else:
            gates.append(_Gate("cx", (q, q + 1), 0.0))
    return gates


def _run(gates: list, n_qubits: int, draws: bool = False) -> np.ndarray:
    """Apply ``gates`` to |0...0> one small numpy call at a time."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    rng = np.random.default_rng(0)
    for g in gates:
        if g.kind == "cx":
            c, t = g.qubits
            view = amps.reshape(-1, 2, 1 << (t - c - 1), 2, 1 << c)
            tmp = view[:, 1, :, 0, :].copy()
            view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
            view[:, 1, :, 1, :] = tmp
        else:
            cos, sin = math.cos(g.angle / 2), math.sin(g.angle / 2)
            m = (np.array([[cos, -sin], [sin, cos]]) if g.kind == "ry"
                 else np.diag([complex(cos, -sin), complex(cos, sin)]))
            view = amps.reshape(-1, 2, 1 << g.qubits[0])
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :]
            view[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
            view[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1
        if draws:
            rng.random()
            rng.random()
    return amps


def _eigh(n_matrices: int, n_qubits: int = 7) -> None:
    """Build a transverse-field Ising Hamiltonian term by term, then ``eigh``."""
    dim = 1 << n_qubits
    for k in range(n_matrices):
        h = np.zeros((dim, dim))
        for q in range(n_qubits):
            h += (1.0 + 0.01 * k) * np.kron(np.kron(np.eye(1 << q), _X),
                                            np.eye(dim >> (q + 1)))
        for q in range(n_qubits - 1):
            h += np.kron(np.kron(np.eye(1 << q), np.kron(_Z, _Z)),
                         np.eye(dim >> (q + 2)))
        np.linalg.eigh(h)


# Per workload: its reference work, and the seconds that work takes at the
# reference speed (about its median on a 2-vCPU Xeon KVM guest, numpy
# 2.4.6, one BLAS thread).
REFERENCE_WORK = {
    "braid_opt_n6": (lambda: _run(_compile(15000, 7), 7), 0.27),
    "braid_eff_n14": (lambda: _run(_compile(1700, 15), 15), 0.30),
    "noise_eff_n6": (lambda: _run(_compile(15000, 7), 7, draws=True), 0.22),
    "oracle_eff_n6": (lambda: _eigh(65), 0.28),
}


def reference_s(workload: str) -> float:
    """Seconds the workload's reference work takes now."""
    work, _ = REFERENCE_WORK[workload]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def at_reference_speed(workload: str, seconds: float,
                       reference_seconds: float) -> float:
    """``seconds`` measured while the workload's reference work took
    ``reference_seconds``, given at the reference speed."""
    return seconds * REFERENCE_WORK[workload][1] / reference_seconds

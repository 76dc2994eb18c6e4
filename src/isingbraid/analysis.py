"""Analytic error bounds, commutator diagnostics and exact-evolution
oracles.

Dense constructions are restricted to small registers (at most
``MAX_DENSE_QUBITS``); the bound formulas themselves are closed-form and
size-independent. The exact oracle, ``exact_evolve``, follows the field
schedule by the same walk (``schedule.walk_schedule``) as the gate
compiler. It is matrix-free: it applies exp(-i H t) to the state by a
Chebyshev expansion, whose spectral interval comes from
Gershgorin's bound and whose Bessel coefficients from Miller's backward
recurrence, and never builds H. The vectors of the expansion's three-term
recurrence are written in place, block by block, into one work array
allocated once per call, and each block's terms are summed by one
product. It keeps the same register cap, because the dense Hamiltonian
and exponential it is checked against stop there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Gate, GateKind
from .schedule import (
    FieldSchedule,
    RotateCoupler,
    chain_config,
    initial_fields,
    walk_schedule,
)
from .statevector import QuantumState, apply_gate_inplace
from .trotter import ChainConfig, first_layer_pairs, second_layer_pairs, zz_terms

if TYPE_CHECKING:
    from .protocol import ProtocolParams

# Largest register the dense constructions, and the oracle checked against
# them, are built for.
MAX_DENSE_QUBITS = 10

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

# Smallest Chebyshev coefficient |J_k| an expansion keeps, for a unit start
# vector: about ten times the rounding of one amplitude.
CHEBYSHEV_TOL = 1e-15
# Most Chebyshev vectors one block of the recurrence holds, and the most
# bytes its work array (``_block_rows``) or the Bessel recurrence of one
# expansion, at 8 bytes an order, may take.
CHEBYSHEV_BLOCK_ROWS = 32
CHEBYSHEV_BLOCK_BYTES = 1 << 21
_POWERS_OF_MINUS_I = np.array([1.0, -1.0j, -1.0, 1.0j])


def _diagonal_and_flips(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The field-free part of H as its diagonal d = sum c Z...Z over the
    terms of ``zz_terms`` (both ZZ layers and the coupler), the same table
    the Trotter step is built from, and for each chain site the basis index
    with its qubit flipped: H v = d * v - sum_n h_n v[flips[n]]."""
    idx = np.arange(1 << cfg.n_qubits)
    z = 1 - 2 * ((idx >> np.arange(cfg.n_qubits)[:, None]) & 1)
    d = np.zeros(idx.size)
    for term, c in zz_terms(cfg):
        d += c * np.prod(z[list(term)], axis=0)
    qubits = np.array([cfg.site_qubit(s) for s in range(cfg.n_sites)])
    return d, idx ^ (1 << qubits)[:, None]


def _miller_start(x: float) -> int:
    """The order at which ``_bessel_j`` starts Miller's recurrence for x,
    x + 10 x**(1/3) + 20; the recurrence holds a list of that many floats."""
    return int(x + 10.0 * x ** (1.0 / 3.0) + 20.0)


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x) for x > 0, K the last order with |J_K| at least
    ``CHEBYSHEV_TOL`` (and at least 1).

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started
    from J_{top+1} = 0, J_top = 1 at an order well past K, is stable for
    J; the values are rescaled before they overflow and normalised by
    J_0 + 2 (J_2 + J_4 + ...) = 1. The start order (``_miller_start``)
    lies past K for every x from 1e-14 to 1e3; starting at x + 20 x**(1/3)
    + 40 instead moves no coefficient by more than 1e-15."""
    top = _miller_start(x)
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
    jk = np.array(j[:-1])
    jk /= jk[0] + 2.0 * jk[2::2].sum()
    last = np.flatnonzero(np.abs(jk) >= CHEBYSHEV_TOL)[-1]
    return jk[: max(last, 1) + 1]


def _block_rows(n_qubits: int) -> int:
    """B, the Chebyshev vectors one block of the work array holds: at most
    ``CHEBYSHEV_BLOCK_ROWS``, and fewer where the B + 2 rows of the array
    would pass ``CHEBYSHEV_BLOCK_BYTES``; it does not grow with the number
    of terms."""
    fit = CHEBYSHEV_BLOCK_BYTES // (16 << n_qubits) - 2
    return max(1, min(CHEBYSHEV_BLOCK_ROWS, fit))


def _chebyshev_expm(
    work: np.ndarray,
    v: np.ndarray,
    d2: np.ndarray,
    h2: np.ndarray,
    flips: np.ndarray,
    x: float,
) -> np.ndarray:
    """exp(-i x A) v for the Hermitian A = (diag(d) - sum_n h_n X_n) / r,
    whose spectrum lies in [-1, 1]; d2 = 2 d / r and h2 = 2 h / r
    (complex), so 2 A u = d2 u - h2 @ u[flips].

    The Chebyshev expansion of Tal-Ezer & Kosloff (1984):
    exp(-i x A) = J_0(x) + 2 sum_{k>=1} (-i)^k J_k(x) T_k(A), with the
    vectors T_k(A) v from the three-term recurrence
    T_{k+1} = 2 A T_k - T_{k-1}, truncated where |J_k| < ``CHEBYSHEV_TOL``.
    ``work`` holds B + 2 vectors: rows 0 and 1 the two that start a block,
    rows 2 .. B + 1 the next B of the recurrence, written in place, whose
    terms are then summed by one product with their coefficients; the
    block's last two rows start the next block.
    """
    j = _bessel_j(x)
    coef = 2.0 * j * _POWERS_OF_MINUS_I[np.arange(j.size) % 4]
    coef[0] = j[0]
    work[0] = v
    av = work[1]
    np.multiply(d2, v, out=av)
    av -= h2 @ v[flips]
    av *= 0.5
    out = coef[0] * v + coef[1] * av
    block = work.shape[0] - 2
    for k in range(2, coef.size, block):
        if k > 2:
            work[:2] = work[block:]
        m = min(block, coef.size - k)
        for prev, cur, nxt in zip(work, work[1:], work[2:m + 2]):
            np.multiply(d2, cur, out=nxt)
            nxt -= h2 @ cur[flips]
            nxt -= prev
        out += coef[k:k + m] @ work[2:m + 2]
    return out


def exact_evolve(
    schedule: "FieldSchedule",
    params: "ProtocolParams",
    initial: "QuantumState",
) -> "QuantumState":
    """Trotter-free reference: piecewise-constant exact evolution.

    Follows ``walk_schedule``, as the gate compiler
    (``protocol.build_protocol_circuit``) does, and applies exp(-i H(f) t)
    to the state, matrix-free, by one Chebyshev expansion per row of
    fields of each walked hold (``_chebyshev_expm``):
    t is the row's repeat count times dt, so dt for a ``linear`` step and
    the whole hold for a ``stepped`` one, at whose fields H is constant.
    Each coupler rotation is one RY gate. H is never
    built: its field-free diagonal d and the site flips are built once per
    call, and H v = d v - sum_n h_n v[flip_n] costs O(N_s 2**n). By
    Gershgorin's bound H lies in [-r, r], r = max |d| + sum_n |h_n|, taken
    for all rows of a hold at once, and the expansion runs on H / r for
    x = r t; r > 0 because J > 0. The interval is centred on 0 with no
    loss: flipping every other site of each chain, and the coupler where
    needed, negates d, so d's range is symmetric. Each row's d and h are
    scaled by 2 / r once (h made complex), so a term of the recurrence is
    a multiply, a gather-and-product and two subtractions in place, into
    a row of one ``(B + 2, 2**n)`` work array allocated once per call
    after the checks (B from ``_block_rows``, capped in rows and bytes,
    independent of the number of terms). The register stays capped at
    ``MAX_DENSE_QUBITS``
    because the cross-checks of this oracle (``dense_hamiltonian``,
    ``expm_hermitian``) and every test that compares against it are dense.
    The call of the walk checks every field set of the schedule before
    anything is allocated, and each hold's arguments x = r * repeats * dt
    are checked before its first expansion: each must be finite, and its
    Bessel recurrence (``_miller_start``) must fit in
    ``CHEBYSHEV_BLOCK_BYTES``, which holds x up to about 2.6e5.
    """
    if params.N_s + 1 > MAX_DENSE_QUBITS:
        raise ValueError("exact evolution limited to small registers")
    if initial.n_qubits != params.N_s + 1:
        raise ValueError("register mismatch")
    cfg = chain_config(params, initial_fields(params))
    entries = walk_schedule(params, schedule)
    d, flips = _diagonal_and_flips(cfg)
    d_max = float(np.abs(d).max())
    n = initial.n_qubits
    work = np.empty((_block_rows(n) + 2, 1 << n), dtype=complex)
    amps = initial.amplitudes.copy()
    for item in entries:
        if isinstance(item, RotateCoupler):
            apply_gate_inplace(
                amps, n, Gate(GateKind.RY, (params.coupler_qubit,), item.angle)
            )
            continue
        rows, repeats = item
        radii = d_max + np.abs(rows).sum(axis=1)
        xs = radii * repeats * params.dt
        if (not np.isfinite(xs).all()
                or 8 * _miller_start(xs.max()) > CHEBYSHEV_BLOCK_BYTES):
            raise ValueError(
                "exact evolution needs a finite Chebyshev argument r * t whose "
                f"Bessel recurrence fits in {CHEBYSHEV_BLOCK_BYTES} bytes for "
                f"every step of a hold, got {xs.max()}"
            )
        scaled = (rows * (2.0 / radii)[:, None]).astype(complex)
        for r, x, h2 in zip(radii.tolist(), xs.tolist(), scaled):
            amps = _chebyshev_expm(work, amps, d * (2.0 / r), h2, flips, x)
    return QuantumState(n, amps)

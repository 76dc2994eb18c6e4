"""Compile the instantaneous chain Hamiltonian into first-order Trotter steps.

The Hamiltonian splits into four summands: two layers of nearest-neighbor
ZZ couplings (packed so disjoint pairs schedule simultaneously), the
transverse Zeeman terms, and the three-body coupler interaction. Each
subcircuit reproduces exp(-i H_X dt) of its summand exactly (up to global
phase); the product over summands is the first-order step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind, concat


@dataclass(frozen=True)
class ChainConfig:
    """Static description of two coupled chains plus the coupler spin.

    Register layout: qubits 0..chain_len-1 are the left chain (left to
    right), the coupler sits at index chain_len, then the right chain.
    ``fields`` lists the transverse field h_n per chain site (coupler has
    none), in site order left chain then right chain.
    """

    chain_len: int
    J: float
    J_C: float
    fields: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        if self.chain_len < 3:
            raise ValueError("each chain needs at least 3 sites")
        if self.J <= 0:
            raise ValueError("J must be positive")
        if self.J_C < 0:
            raise ValueError("J_C must be non-negative")
        if len(self.fields) != self.n_sites:
            raise ValueError(
                f"need {self.n_sites} field values, got {len(self.fields)}"
            )

    @property
    def n_sites(self) -> int:
        return 2 * self.chain_len

    @property
    def n_qubits(self) -> int:
        return self.n_sites + 1

    @property
    def coupler_qubit(self) -> int:
        return self.chain_len

    def site_qubit(self, site: int) -> int:
        """Register index of chain site ``site`` (coupler skipped)."""
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        return site if site < self.chain_len else site + 1

    @property
    def left_end_site(self) -> int:
        return self.chain_len - 1

    @property
    def right_start_site(self) -> int:
        return self.chain_len


def chain_pairs(cfg: ChainConfig) -> list[tuple[int, int]]:
    """All nearest-neighbor (site, site+1) pairs within each chain."""
    left = [(p, p + 1) for p in range(cfg.chain_len - 1)]
    right = [
        (cfg.chain_len + p, cfg.chain_len + p + 1) for p in range(cfg.chain_len - 1)
    ]
    return left + right


def first_layer_pairs(cfg: ChainConfig) -> list[tuple[int, int]]:
    """ZZ pairs emitted in the first scheduling layer (mutually disjoint)."""
    pairs = []
    for p in range(cfg.chain_len - 1):
        # Left chain: parity counted from the coupler end so the pair
        # adjacent to the coupler always lands in the second layer, which
        # keeps the step depth size-independent.
        if (cfg.chain_len - 2 - p) % 2 == 1:
            pairs.append((p, p + 1))
    for p in range(cfg.chain_len - 1):
        if p % 2 == 0:
            pairs.append((cfg.chain_len + p, cfg.chain_len + p + 1))
    return pairs


def second_layer_pairs(cfg: ChainConfig) -> list[tuple[int, int]]:
    """ZZ pairs emitted in the second scheduling layer (mutually disjoint)."""
    first = set(first_layer_pairs(cfg))
    return [pair for pair in chain_pairs(cfg) if pair not in first]


def pair_interaction_circuit(
    cfg: ChainConfig, i: int, j: int, J: float, dt: float
) -> Circuit:
    """Circuit whose unitary is exp(-i J dt Z_i Z_j), up to global phase.

    Realized as CNOT(i->j), RZ(2 J dt) on j, CNOT(i->j). Sites ``i`` and
    ``j`` must be adjacent within one chain.
    """
    if (i, j) not in chain_pairs(cfg) and (j, i) not in chain_pairs(cfg):
        raise CircuitError(f"sites ({i}, {j}) are not adjacent within a chain")
    qi, qj = cfg.site_qubit(i), cfg.site_qubit(j)
    gates = (
        Gate(GateKind.CNOT, (qi, qj)),
        Gate(GateKind.RZ, (qj,), 2.0 * J * dt),
        Gate(GateKind.CNOT, (qi, qj)),
    )
    return Circuit(cfg.n_qubits, gates)


def coupler_circuit(cfg: ChainConfig, J_C: float, dt: float) -> Circuit:
    """Circuit for exp(+i J_C dt Z Z Z) on (left end, coupler, right start).

    A CNOT ladder accumulates the three-qubit parity on the right-start
    qubit, where a single RZ(-2 J_C dt) applies the phase.
    """
    if J_C < 0:
        raise CircuitError("J_C must be non-negative")
    a = cfg.site_qubit(cfg.left_end_site)
    c = cfg.coupler_qubit
    b = cfg.site_qubit(cfg.right_start_site)
    gates = (
        Gate(GateKind.CNOT, (a, b)),
        Gate(GateKind.CNOT, (c, b)),
        Gate(GateKind.RZ, (b,), -2.0 * J_C * dt),
        Gate(GateKind.CNOT, (c, b)),
        Gate(GateKind.CNOT, (a, b)),
    )
    return Circuit(cfg.n_qubits, gates)


def zz_layer_circuit(cfg: ChainConfig, pairs, dt: float) -> Circuit:
    """One layer of pair interactions for H = -J sum Z_i Z_j over ``pairs``."""
    # Summand carries coefficient -J, hence the sign flip on J.
    return concat(
        [pair_interaction_circuit(cfg, i, j, -cfg.J, dt) for i, j in pairs]
    )


@lru_cache(maxsize=8)
def _step_layout(
    chain_len: int, J: float, J_C: float, dt: float
) -> tuple[tuple[Gate, ...], tuple[tuple[int], ...], tuple[Gate, ...]]:
    """The gates of both ZZ layers, the qubits of the RX gate of each site
    in site order, and the gates of the coupler ladder (empty for J_C = 0):
    everything of a step that every step with these constants shares."""
    cfg = ChainConfig(chain_len, J, J_C, (0.0,) * (2 * chain_len))
    zz = concat([
        zz_layer_circuit(cfg, first_layer_pairs(cfg), dt),
        zz_layer_circuit(cfg, second_layer_pairs(cfg), dt),
    ]).gates
    sites = tuple((cfg.site_qubit(site),) for site in range(cfg.n_sites))
    coupler = coupler_circuit(cfg, J_C, dt).gates if J_C != 0.0 else ()
    return zz, sites, coupler


def extend_trotter_steps(
    gates: list[Gate],
    cfg: ChainConfig,
    fields,
    dt: float,
    repeats: int = 1,
    zeeman: list[Gate] | None = None,
) -> list[Gate]:
    """Append first-order steps to ``gates``, each ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term: ``repeats`` steps at each row of ``fields``, the
    rows in order. Returns the RX gates of the last step, in site order.

    ``fields`` is a ``(k, n_sites)`` array of transverse fields, one row
    per step, and stands in for ``cfg.fields``; ``cfg`` gives the layout
    and the couplings. The Zeeman angles -2 h dt of all rows are computed
    as one array and checked once, so the RX gates are built without
    checking each again. A site whose angle has the same bits as in the
    step before keeps that step's RX gate; ``zeeman`` gives the RX gates
    of the step before the first row, if there is one (as returned by the
    previous call). Only the RX gates whose angle changes are new objects;
    the field-free gates are the same objects in every step with equal
    chain length, J, J_C and dt.
    """
    zz, sites, coupler = _step_layout(cfg.chain_len, cfg.J, cfg.J_C, dt)
    angles = (-2.0 * np.asarray(fields, dtype=float)) * dt
    if angles.ndim != 2 or angles.shape[1] != len(sites):
        raise CircuitError(
            f"need {len(sites)} field values per step, got shape {angles.shape}"
        )
    if not np.isfinite(angles).all():
        raise CircuitError("RX requires a finite angle")
    # Angles are compared by their bits, so that 0.0 and -0.0 stay apart.
    bits = angles.view(np.int64)
    changed = np.empty(angles.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    if zeeman is None:
        changed[0] = True
        zeeman = [None] * len(sites)
    else:
        before = np.array([g.angle for g in zeeman]).view(np.int64)
        np.not_equal(bits[0], before, out=changed[0])
    rx, trusted = GateKind.RX, Gate._trusted
    for row, new in zip(angles.tolist(), changed.tolist()):
        zeeman = [trusted(rx, q, a) if c else g
                  for q, a, c, g in zip(sites, row, new, zeeman)]
        for _ in range(repeats):
            gates += zz
            gates += zeeman
            gates += coupler
    return zeeman


def trotter_step_circuit(cfg: ChainConfig, dt: float) -> Circuit:
    """One first-order step at ``cfg.fields``: ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term (see ``extend_trotter_steps``)."""
    gates: list[Gate] = []
    extend_trotter_steps(gates, cfg, (cfg.fields,), dt)
    return Circuit._trusted(cfg.n_qubits, tuple(gates))

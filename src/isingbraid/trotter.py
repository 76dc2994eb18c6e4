"""Compile the instantaneous chain Hamiltonian into first-order Trotter steps.

The Hamiltonian splits into four summands: two layers of nearest-neighbor
ZZ couplings (packed so disjoint pairs schedule simultaneously), the
transverse Zeeman terms, and the three-body coupler interaction. The
diagonal terms, all summands but the Zeeman one, are listed once, in
``zz_terms``, which both the step and the exact oracle (``analysis``) read.
The gates of each summand equal exp(-i H_X dt) exactly; the product over
summands is the first-order step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind


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


def first_layer_pairs(cfg: ChainConfig) -> list[tuple[int, int]]:
    """ZZ pairs emitted in the first scheduling layer (mutually disjoint).

    Left-chain parity is counted from the coupler end, so the pair adjacent
    to the coupler always lands in the second layer, which keeps the step
    depth size-independent."""
    n = cfg.chain_len
    return ([(p, p + 1) for p in range(1 - n % 2, n - 1, 2)]
            + [(n + p, n + p + 1) for p in range(0, n - 1, 2)])


def second_layer_pairs(cfg: ChainConfig) -> list[tuple[int, int]]:
    """The other nearest-neighbor pairs within each chain (mutually disjoint)."""
    n = cfg.chain_len
    return ([(p, p + 1) for p in range(n % 2, n - 1, 2)]
            + [(n + p, n + p + 1) for p in range(1, n - 1, 2)])


def zz_terms(cfg: ChainConfig) -> list[tuple[tuple[int, ...], float]]:
    """Every diagonal term c Z...Z of H as (register qubits, c), in the
    order a step applies them: the pairs of ZZ layer 1, then those of ZZ
    layer 2, each with c = -J; then the coupler term on (left end,
    coupler, right start) with c = -J_C, left out for J_C = 0."""
    q = cfg.site_qubit
    terms = [((q(i), q(j)), -cfg.J)
             for i, j in first_layer_pairs(cfg) + second_layer_pairs(cfg)]
    if cfg.J_C != 0.0:
        coupler = (q(cfg.left_end_site), cfg.coupler_qubit, q(cfg.right_start_site))
        terms.append((coupler, -cfg.J_C))
    return terms


@lru_cache(maxsize=8)
def _step_layout(
    chain_len: int, J: float, J_C: float, dt: float
) -> tuple[tuple[Gate, ...], tuple[tuple[int], ...], tuple[Gate, ...]]:
    """The gates of both ZZ layers, the qubits of the RX gate of each site
    in site order, and the gates of the coupler ladder (empty for J_C = 0):
    everything of a step that every step with these constants shares.

    Each term (qubits, c) of ``zz_terms`` is exp(-i c dt Z...Z), exactly:
    a CNOT ladder from each of its other qubits onto its last one gathers
    their parity there, RZ(2 c dt) applies the phase, and the ladder
    reversed undoes the parity. The two-qubit terms go before the Zeeman
    layer and the coupler's three-qubit term after it."""
    cfg = ChainConfig(chain_len, J, J_C, (0.0,) * (2 * chain_len))
    zz: list[Gate] = []
    coupler: list[Gate] = []
    for qubits, c in zz_terms(cfg):
        *controls, target = qubits
        ladder = [Gate(GateKind.CNOT, (q, target)) for q in controls]
        (zz if len(qubits) == 2 else coupler).extend(
            [*ladder, Gate(GateKind.RZ, (target,), 2.0 * c * dt), *ladder[::-1]]
        )
    sites = tuple((cfg.site_qubit(site),) for site in range(cfg.n_sites))
    return tuple(zz), sites, tuple(coupler)


def extend_trotter_steps(
    gates: list[Gate],
    cfg: ChainConfig,
    holds,
    dt: float,
) -> None:
    """Append first-order steps to ``gates``, each ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term, for each entry of ``holds`` in order, as
    ``walk_schedule`` walks a schedule: a hold (fields, repeats) appends
    ``repeats`` steps at each row of ``fields``, a ``(k, n_sites)`` array of
    transverse fields that stands in for ``cfg.fields``; a ``Gate`` entry
    (a coupler rotation) is appended as it is. ``cfg`` gives the layout and
    the couplings.

    The Zeeman angles -2 h dt of every hold are computed as one array and
    checked once, before any gate is appended, so the RX gates are built
    without checking each again. A site whose angle has the same bits as
    in the step before, within a hold or across holds and rotations, keeps
    that step's RX gate. So each site's RX gates are built once per walk,
    as a column with one row per row of fields: a new gate only where the
    angle's bits change, each held over the rows after it until the next,
    and only those angles turned into Python floats. A step's Zeeman gates
    are the next row of the columns, taken by ``zip`` as the holds are
    walked. Only the RX gates whose angle changes are new objects; the
    field-free gates are the same objects in every step with equal chain
    length, J, J_C and dt.
    """
    zz, sites, coupler = _step_layout(cfg.chain_len, cfg.J, cfg.J_C, dt)
    walk, rows = [], []
    for entry in holds:
        if isinstance(entry, Gate):
            walk.append(entry)
            continue
        fields, repeats = entry
        fields = np.asarray(fields, dtype=float)
        if fields.ndim != 2 or fields.shape[1] != len(sites):
            raise CircuitError(
                f"need {len(sites)} field values per step, got shape {fields.shape}"
            )
        rows.append(fields)
        walk.append((len(fields), repeats))
    angles = np.concatenate(rows) if rows else np.empty((0, len(sites)))
    del rows
    angles *= -2.0
    angles *= dt
    if not np.isfinite(angles).all():
        raise CircuitError("RX requires a finite angle")
    # Angles are compared by their bits, so that 0.0 and -0.0 stay apart.
    bits = angles.view(np.int64)
    changed = np.empty(angles.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    changed[:1] = True
    rx, trusted = GateKind.RX, Gate._trusted
    columns = []
    for q, column, new in zip(sites, angles.T, changed.T):
        at = np.flatnonzero(new)
        made = [trusted(rx, q, a) for a in column[at].tolist()]
        held = np.diff(at, append=len(column)).tolist()
        columns.append(chain.from_iterable(map(repeat, made, held)))
    zeeman = zip(*columns)
    for entry in walk:
        if isinstance(entry, Gate):
            gates.append(entry)
            continue
        count, repeats = entry
        for step in islice(zeeman, count):
            for _ in range(repeats):
                gates += zz
                gates += step
                gates += coupler


def trotter_step_circuit(cfg: ChainConfig, dt: float) -> Circuit:
    """One first-order step at ``cfg.fields``: ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term (see ``extend_trotter_steps``)."""
    gates: list[Gate] = []
    extend_trotter_steps(gates, cfg, [((cfg.fields,), 1)], dt)
    return Circuit._trusted(cfg.n_qubits, tuple(gates))

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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind

# Most gates of the object table from which ``trotter_steps`` assembles a
# run of steps: 16 KiB of references, and about as much again in the row
# lists taken from it.
_TABLE_GATES = 2048


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


def trotter_steps(cfg: ChainConfig, holds, dt: float) -> "_Gates":
    """The gates of first-order steps, each ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term, for each entry of ``holds`` in order, as
    ``walk_schedule`` walks a schedule: a hold (fields, repeats) gives
    ``repeats`` steps at each row of ``fields``, a ``(k, n_sites)`` array of
    transverse fields that stands in for ``cfg.fields``; a ``Gate`` entry
    (a coupler rotation) is given as it is. ``cfg`` gives the layout and
    the couplings. Returns the gates as an iterable of known length, so
    that ``tuple`` of it allocates the gate tuple once, at its size, and
    no list of the gates is built beside it.

    The whole walk is checked before the gates are returned: the Zeeman
    angles -2 h dt of every hold are computed as one array and checked
    once, so the RX gates are built without checking each again. A site
    whose angle has the same bits as in the step before, within a hold or
    across holds and rotations, keeps that step's RX gate. So the RX gates
    are built once per walk, all at once (``Gate._trusted_many``): a new
    gate only where a site's angle's bits change, held over the rows after
    it until the next. Only the RX gates whose angle changes are new
    objects; the field-free gates are the same objects in every step with
    equal chain length, J, J_C and dt.

    The steps are assembled from an object table of up to
    ``_TABLE_GATES`` gates, one row per row of fields and one column per
    gate of a step, a run of rows at a time and across holds, cut at each
    rotation: the field-free gates are broadcast into their columns, and
    each RX column takes the gate held at each row. A table's steps are
    handed over as one list, or a list per row when the rows repeat, not
    one step at a time.
    """
    zz, sites, coupler = _step_layout(cfg.chain_len, cfg.J, cfg.J_C, dt)
    rows, count, steps, walk = [], 0, 0, []
    for entry in holds:
        if isinstance(entry, Gate):
            walk.append((count, entry))
            continue
        fields, repeats = entry
        fields = np.asarray(fields, dtype=float)
        if fields.ndim != 2 or fields.shape[1] != len(sites):
            raise CircuitError(
                f"need {len(sites)} field values per step, got shape {fields.shape}"
            )
        rows.append(fields)
        walk.append((count, repeats))
        count += len(fields)
        steps += len(fields) * repeats
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
    # The new RX gates site by site, each site's in row order.
    by_site = changed.T
    made = Gate._trusted_many(GateKind.RX,
                              map(sites.__getitem__, np.nonzero(by_site)[0].tolist()),
                              angles.T[by_site].tolist())
    made = np.fromiter(made, dtype=object, count=len(made))
    return _Gates(zz, coupler, changed, made, walk, steps)


class _Gates:
    """The gates of the ``steps`` Trotter steps and the rotations of a walk
    (``trotter_steps``), in order: iterating assembles them
    (``_assemble``), and ``len`` gives their number."""

    def __init__(self, zz: tuple[Gate, ...], coupler: tuple[Gate, ...],
                 changed: np.ndarray, made: np.ndarray, walk: list, steps: int):
        self._parts = (zz, coupler, changed, made, walk)
        period = len(zz) + changed.shape[1] + len(coupler)
        self._size = steps * period + sum(isinstance(e, Gate) for _, e in walk)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Gate]:
        return chain.from_iterable(_assemble(*self._parts))


def _assemble(zz: tuple[Gate, ...], coupler: tuple[Gate, ...], changed: np.ndarray,
              made: np.ndarray, walk: list):
    """The steps of ``trotter_steps``: ``changed`` tells where each site's
    angle changes from row to row and ``made`` holds the new RX gates site
    by site, each site's in row order, so the gate a site holds at a row
    is found by a running count of its changes. ``walk`` gives, in order,
    each rotation gate and each hold's repeat count, each with the number
    of rows before it.

    A table ends at each rotation and where the repeat count changes, and
    holds at most ``_TABLE_GATES`` gates. A table of rows taken once is
    given as one list; one of repeated rows a list per row, the row that
    many times over."""
    count, sites = changed.shape
    period = len(zz) + sites + len(coupler)
    rx = slice(len(zz), len(zz) + sites)
    step = np.empty(period, dtype=object)
    step[:rx.start] = zz
    step[rx.stop:] = coupler
    size = max(1, _TABLE_GATES // period)  # rows of a table
    # Holds that repeat their rows as often as the hold before them go on
    # with its tables.
    kept, repeats = [], None
    for row, entry in walk:
        if isinstance(entry, Gate):
            kept.append((row, entry))
        elif entry != repeats:
            kept.append((row, entry))
            repeats = entry
    # Each site's gate in ``made`` at the row before the table: one before
    # its first, as every site's angle changes at row 0.
    new = changed.sum(axis=0)
    held = np.cumsum(new) - new - 1
    for (first, entry), end in zip(kept, [row for row, _ in kept[1:]] + [count]):
        if isinstance(entry, Gate):
            yield (entry,)
        else:
            repeats = entry
        for a in range(first, end, size):
            ids = np.cumsum(changed[a:min(a + size, end)], axis=0, dtype=np.intp)
            ids += held
            held = ids[-1]
            table = np.empty((len(ids), period), dtype=object)
            table[:] = step
            table[:, rx] = made[ids]
            if repeats == 1:
                yield table.ravel().tolist()
            else:
                yield from map(mul, table.tolist(), repeat(repeats))


def trotter_step_circuit(cfg: ChainConfig, dt: float) -> Circuit:
    """One first-order step at ``cfg.fields``: ZZ layer 1, ZZ layer 2,
    Zeeman, coupler term (see ``trotter_steps``)."""
    return Circuit._trusted(cfg.n_qubits, tuple(trotter_steps(cfg, [((cfg.fields,), 1)], dt)))

"""Dense statevector engine: gate application, overlaps, sampling.

Conventions: qubit 0 is the least-significant bit of the basis index
(little-endian); spin-up maps to computational |0>. Bit-string keys in
``SampleCounts`` list qubit 0 as the leftmost character.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .circuit import (
    _MIXING_KINDS,
    _QUBITS,
    Circuit,
    Gate,
    GateKind,
    _integer,
    _leading,
    _steps,
)

MAX_QUBITS = 26

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Most adjacent qubits a layer block spans: one 2**k x 2**k matrix.
_BLOCK_QUBITS = 4
# Registers of at least this many qubits apply their one-qubit layers in
# the frame S = diag(1, i) on every qubit from _BLOCK_QUBITS up, where each
# RX factor is the real RY and a block of RX factors is applied in real
# arithmetic, at half the flops (see ``_layer_blocks``). The rows stay in
# the frame across diagonal runs, so a call of Trotter steps enters it once
# (see ``apply_gates_inplace``). Timed as steady Trotter steps, the
# real path is the faster at 11 qubits (0.095 against 0.114 ms) and the
# slower at 9 (0.077 against 0.059 ms). The threshold stays at 12, where it
# was set when every layer took two frame passes, so results below it are
# unchanged.
_REAL_QUBITS = 12
# Bytes of block matrices that one piece of a stretch's layers builds at
# once. A cap in bytes, not in layers, keeps a piece's matrices small at
# every register size: a Trotter step's blocks take 2 KiB at 7 qubits and
# 10 KiB at 15, so a piece holds 64 steps at 7 qubits and 13 at 15. Each
# piece costs one block build and one call of the piece loop: the linear
# OPT braid's plan builds 102 pieces, against 196 at 64 KiB and 55 at
# 256 KiB. A piece's blocks and their build's temporaries set the
# executor's peak memory on a small register: at 256 KiB a 20-row noise
# op at N_s = 6 peaked 0.43 MB higher (traced) than at 64 KiB, at 128 KiB
# 0.14 MB higher.
_BLOCK_BYTES = 128 << 10
# Bytes of the maps of errors conjugated through pieces of basis runs that
# ``_PIECE_MAPS`` keeps: 340 maps of a 7-qubit register, five of a 13-qubit
# one.
_PIECE_BYTES = 1 << 20
# i**k for k mod 4.
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
# The column that turns a row into the pair (row, -row).
_SIGNS = np.array([[1.0], [-1.0]])
_KIND = attrgetter("kind")
_ANGLE = attrgetter("angle")


def rotation_matrix(kind: GateKind, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind is GateKind.RZ:
        return np.array(
            [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
        )
    raise ValueError(f"not a rotation: {kind}")


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if gate.kind is GateKind.H:
        return _H
    if gate.kind is GateKind.X:
        return _X
    if gate.kind is GateKind.Z:
        return _Z
    return rotation_matrix(gate.kind, gate.angle)


class RegisterSizeError(ValueError):
    """A register outside the sizes the dense engine can hold."""


def check_register(n_qubits: int) -> None:
    """Reject a register the dense engine cannot hold, before anything of
    its size is allocated."""
    n_qubits = _integer("register size", n_qubits)
    if not 1 <= n_qubits <= MAX_QUBITS:
        gib = 16 * 2.0**n_qubits / 2**30
        raise RegisterSizeError(
            f"register size {n_qubits} outside [1, {MAX_QUBITS}]: its state "
            f"would need {gib:.3g} GiB"
        )


@dataclass
class QuantumState:
    """Normalized complex amplitude vector over 2**n_qubits basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_register(self.n_qubits)
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude vector length must be 2**n_qubits")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class SampleCounts:
    """Shot tallies keyed by bit string (qubit 0 leftmost)."""

    counts: dict[str, int]
    shots: int
    n_bits: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to total shots")


def zero_state(n: int) -> QuantumState:
    check_register(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n, amps)


def _apply_1q_inplace(amps: np.ndarray, q: int, m: np.ndarray) -> None:
    """Each new half m_k0 a0 + m_k1 a1, in that operand order, with two
    temporaries of half the size of ``amps``: a0 and one product."""
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    b0, a1 = view[:, 0, :], view[:, 1, :]
    term = np.multiply(m[0, 1], a1)
    np.add(np.multiply(m[0, 0], a0, out=b0), term, out=b0)
    np.multiply(m[1, 1], a1, out=a1)
    np.add(np.multiply(m[1, 0], a0, out=term), a1, out=a1)


def _apply_cnot_inplace(amps: np.ndarray, control: int, target: int) -> None:
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp
    else:
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp


def _check_range(gate: Gate, n_qubits: int) -> None:
    if max(gate.qubits) >= n_qubits:
        raise ValueError(f"gate on {gate.qubits} out of range for {n_qubits} qubits")


def apply_gate_inplace(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    _check_range(gate, n_qubits)
    if gate.kind is GateKind.CNOT:
        _apply_cnot_inplace(amps, *gate.qubits)
    else:
        _apply_1q_inplace(amps, gate.qubits[0], gate_matrix(gate))


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Return the state multiplied by the gate's unitary; norm preserved."""
    out = state.copy()
    apply_gate_inplace(out.amplitudes, out.n_qubits, gate)
    return out


def _parities(masks: np.ndarray, width: int) -> np.ndarray:
    """parity(m & x) for every mask m of ``masks`` and every x below
    2**width (at most 2**16), as a ``(len(masks), 2**width)`` int64 array
    of 0s and 1s.

    The bits are folded by shifts, not counted by ``np.bitwise_count``:
    its uint8 result needs ufunc loops that nothing else touches in a run
    on a small register. Their code pages, and those of a float matrix
    product in place of the sums in ``_basis_map``, added 0.28 MB to the
    peak RSS of the OPT braid at N_s = 6.
    """
    x = masks[:, None] & np.arange(1 << width)
    for shift in (8, 4, 2, 1):
        if shift < width:
            x ^= x >> shift
    return x & 1


def _basis_map(n_qubits: int, gates: Sequence[Gate]):
    """A run of basis gates as (src, phase): together they map amplitudes
    ``a`` to ``phase * a[src]``. ``src`` is None when the run is diagonal.

    The run is an affine map of the bits over GF(2) times a phase. Walked
    from its last gate back, each qubit's bit before a gate is a linear
    form of the output bits y (a mask) plus a constant: CNOT and X update
    the forms, each RZ adds +-angle/2 to the coefficient c_m of its qubit's
    mask m, and the Z gates fold into one sign mask, which keeps the sign
    exact. So phase(y) = exp(-i sum_m c_m (-1)**parity(m & y)) times that
    sign, and src(y) is the forms at the first gate. Both are built from
    tables over the low and the high half of the register; a mask that
    straddles the halves contributes one exact cos(c) -+ i sin(c) factor.
    """
    forms = [1 << q for q in range(n_qubits)]
    flips = 0  # bit q: the constant of qubit q's form
    angles: dict[int, float] = {}
    sign, negate = 0, 0
    for gate in reversed(gates):
        _check_range(gate, n_qubits)
        kind = gate.kind
        if kind is GateKind.CNOT:
            c, t = gate.qubits
            forms[t] ^= forms[c]
            flips ^= (flips >> c & 1) << t
            continue
        q = gate.qubits[0]
        if kind is GateKind.X:
            flips ^= 1 << q
        elif kind is GateKind.Z:
            sign ^= forms[q]
            negate ^= flips >> q & 1
        else:
            half = -0.5 * gate.angle if flips >> q & 1 else 0.5 * gate.angle
            angles[forms[q]] = angles.get(forms[q], 0.0) + half
    low = n_qubits // 2
    low_bits = (1 << low) - 1
    diagonal = flips == 0 and forms == [1 << q for q in range(n_qubits)]
    # One row per mask: the angle masks, the sign mask, then the forms when
    # src is needed. The low halves of the rows and their high halves take
    # one parity call, at the width of the high half, the wider one.
    masks = [*angles, sign, *([] if diagonal else forms)]
    count, size = len(angles), len(masks)
    halves = np.array([m & low_bits for m in masks] + [m >> low for m in masks])
    parity = _parities(halves, n_qubits - low)
    chi = 1.0 - 2.0 * parity
    p_low, p_high = parity[:size, :1 << low], parity[size:]
    chi_low, chi_high = chi[:size, :1 << low], chi[size:]
    # The coefficients of the masks inside each half, summed over the
    # masks; sums, not a matrix product, for the reason in ``_parities``.
    weights = np.array([[c if m >> low == 0 else 0.0 for m, c in angles.items()],
                        [c if m & low_bits == 0 else 0.0 for m, c in angles.items()]])
    energy_low = (chi_low[:count] * weights[0, :, None]).sum(axis=0)
    energy_high = (chi_high[:count] * weights[1, :, None]).sum(axis=0)
    # Multiplying by the sign row, +-1.0, is exact.
    phase_low = np.exp(-1j * energy_low) * chi_low[count]
    phase_high = np.exp(-1j * energy_high) * chi_high[count]
    if negate:
        phase_high = -phase_high
    # A mask that straddles the halves gives the factor cos(c) - i sin(c)
    # chi_low chi_high: f over the low half on the rows where chi_high = 1,
    # conj(f) on the others, the two as one pair. The first is taken into
    # the low half's phase before the halves are multiplied, so it needs no
    # temporary of the register's size.
    factors = []
    for k, (m, c) in enumerate(angles.items()):
        if m & low_bits and m >> low:
            pair = math.cos(c) - (1j * math.sin(c)) * (_SIGNS * chi_low[k])
            factors.append((pair, p_high[k]))
    if factors:
        pair, rows = factors.pop(0)
        phase = (pair * phase_low)[rows]
        phase *= phase_high[:, None]
    else:
        phase = np.multiply.outer(phase_high, phase_low)
    for pair, rows in factors:
        phase *= pair[rows]
    if diagonal:
        return None, phase.reshape(-1)
    shifts = np.arange(n_qubits)[:, None]
    src = np.bitwise_xor.outer(
        (p_high[count + 1:] << shifts).sum(axis=0),
        (p_low[count + 1:] << shifts).sum(axis=0) ^ flips)
    return src.reshape(-1), phase.reshape(-1)


def _layer_matrices(kinds: Sequence[GateKind], angles) -> np.ndarray:
    """The 2x2 matrices of k layers of RX, RY and H gates, as one
    ``(len(kinds), 2, 2, k)`` array, the layers last: ``kinds`` gives the
    kind of each gate of a layer and ``angles``, a ``(len(kinds), k)``
    array, its angle in each layer (any value for H)."""
    half = np.multiply(angles, 0.5)
    c, s = np.cos(half), np.sin(half)
    m = np.zeros((len(kinds), 2, 2, half.shape[1]), dtype=complex)
    m.real[:, 0, 0] = m.real[:, 1, 1] = c
    m.imag[:, 0, 1] = m.imag[:, 1, 0] = -s
    for j, kind in enumerate(kinds):
        if kind is GateKind.RY:
            m[j, 0, 1] = -s[j]
            m[j, 1, 0] = s[j]
        elif kind is GateKind.H:
            m[j] = _H[:, :, None]
    return m


@lru_cache(maxsize=4)
def _frame(n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of S = diag(1, i) on each of ``n_bits`` qubits,
    ``i**popcount(x)``, and its conjugate, as read-only ``(2**n_bits, 1)``
    columns. The executor takes it over a register's qubits from
    ``_BLOCK_QUBITS`` up, so each column has a sixteenth of the state's
    length. The columns of the last four register sizes are kept.

    The bits are counted by shifts and adds: ``np.bitwise_count`` needs
    numpy 2.0, and numpy 1.24 is supported.
    """
    index = np.arange(1 << n_bits)
    count = np.zeros_like(index)
    for q in range(n_bits):
        count += (index >> q) & 1
    into, back = _POWERS_OF_I[count & 3, None], _POWERS_OF_I[-count & 3, None]
    into.flags.writeable = back.flags.writeable = False
    return into, back


@lru_cache(maxsize=64)
def _block_plan(qubits: tuple[int, ...], n_qubits: int):
    """Split a layer on the sorted ``qubits`` into blocks of at most
    ``_BLOCK_QUBITS`` adjacent qubits. Returns the blocks, each as (lowest
    qubit, width, slice of the layer's gates, offsets of those gates in the
    block or None when they fill it), and the bytes of their matrices."""
    if qubits[-1] >= n_qubits:
        raise ValueError(f"gate on {qubits[-1:]} out of range for {n_qubits} qubits")
    # A block never spans the whole register: the lo == 0 product then has
    # at least two rows even for a one-row batch, and a one-row product
    # would go through a different BLAS kernel than a batch's.
    span = min(_BLOCK_QUBITS, n_qubits - 1)
    blocks, nbytes = [], 0
    b, count = 0, len(qubits)
    while b < count:
        lo = qubits[b]
        e = b + 1
        while e < count and qubits[e] < lo + span:
            e += 1
        width = qubits[e - 1] - lo + 1
        offsets = None if e - b == width else [q - lo for q in qubits[b:e]]
        blocks.append((lo, width, slice(b, e), offsets))
        nbytes += 16 << (2 * width)
        b = e
    return tuple(blocks), nbytes


def _layer_blocks(qubits: tuple[int, ...], kinds: Sequence[GateKind], angles,
                  n_qubits: int) -> list:
    """The dense blocks of k layers on the sorted ``qubits``, each gate of
    a layer with its kind of ``kinds``, and with its angle in each layer
    from the ``(len(qubits), k)`` array ``angles``: the layers of a piece
    of a stretch of repeated steps, or one layer. The result lists the k
    layers in parts of consecutive layers, each (count, blocks): ``blocks``
    holds one (key, stack) per block position, as the piece loop
    (``_apply_piece``) takes them, ``stack[t]`` the block of the part's
    layer t; a key is (lowest qubit, dimension, real). A part is all k
    layers unless a block position is real in some of them and complex in
    others; it then ends where any position changes.

    The 2x2 matrices are built by one ``_layer_matrices`` call, and the
    Kronecker products of each block position by broadcast products over
    all k layers at once, the factor of the highest qubit first, with the
    layers as the last axis so each product runs along them. Adding 0.0 to
    a product of two factors or more makes each of its zeros +0.0, as a
    sum of products starting from zero does, so the signs of exact zeros
    in the rows do not depend on how the products were formed. Each stack
    is then laid out layers first, each block a C-contiguous matrix; the
    stack at qubit 0 is given transposed, each block the right operand of
    its product.

    On registers of ``_REAL_QUBITS`` or more the blocks act on rows in the
    frame S = diag(1, i) on every qubit from ``_BLOCK_QUBITS`` up (see
    ``_frame``). Each factor M on such a qubit is taken into the frame as
    S M conj(S), its off-diagonals times -i and i, which is exact; RX(t)
    becomes the real RY(t). A block above qubit 0 is real when all of its
    factors are, decided layer by layer, and is then applied in real
    arithmetic. The block at qubit 0 lies below the frame and stays
    complex: it is one product whose row count grows with the batch, and a
    real product of that shape rounds differently for different row
    counts, which would make a row's bits depend on its batch.
    """
    framed = n_qubits >= _REAL_QUBITS
    plan, _ = _block_plan(qubits, n_qubits)
    mats = _layer_matrices(kinds, angles)
    count = mats.shape[3]
    if framed:
        inside = [q >= _BLOCK_QUBITS for q in qubits]
        mats[inside, 0, 1] *= -1j
        mats[inside, 1, 0] *= 1j
    positions = []
    for lo, width, gates, offsets in plan:
        if offsets is None:
            factors = mats[gates]
        else:
            # Qubits of the span that no gate of the layer touches.
            factors = np.zeros((width, 2, 2, count), dtype=complex)
            factors[:, 0, 0] = factors[:, 1, 1] = 1.0
            factors[offsets] = mats[gates]
        mixed = None
        if framed and lo:
            real = ~factors.imag.any(axis=(0, 1, 2))
            if real.all():
                factors = factors.real
            elif real.any():
                mixed = real
        blocks = factors[width - 1]
        for w in range(width - 2, -1, -1):
            dim = 2 * len(blocks)
            blocks = (blocks[:, None, :, None]
                      * factors[w, None, :, None]).reshape(dim, dim, count)
        if width > 1:
            blocks += 0.0
        dim = 1 << width
        key = (lo, dim, blocks.dtype != complex)
        blocks = np.ascontiguousarray(blocks.transpose(2, 0, 1))
        positions.append((key, blocks if lo else blocks.transpose(0, 2, 1), mixed))
    changes = [real[1:] != real[:-1] for _, _, real in positions if real is not None]
    if not changes:
        return [(count, tuple((key, stack) for key, stack, _ in positions))]
    bounds = [0, *(np.flatnonzero(np.any(changes, axis=0)) + 1).tolist(), count]
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        parts.append((b - a, tuple(
            ((key[0], key[1], True), stack[a:b].real.copy())
            if real is not None and real[a] else (key, stack[a:b])
            for key, stack, real in positions)))
    return parts


class _Views(dict):
    """The views of a C-contiguous batch ``rows`` and of a scratch buffer
    of its shape that the blocks of each key of ``_layer_blocks``
    multiply, made on first use and kept for one executor call: ``(-1,
    dim)`` at qubit 0, ``(-1, dim, 2**lo)`` for a complex block above it,
    and for a real block the real and imaginary parts of the batch as
    twice as many real columns, ``(-1, dim, 2 << lo)``."""

    def __init__(self, rows: np.ndarray) -> None:
        super().__init__()
        self.rows = rows
        self.scratch = np.empty_like(rows)

    def __missing__(self, key):
        lo, dim, real = key
        rows, scratch = self.rows, self.scratch
        if real:
            rows, scratch = rows.view(np.float64), scratch.view(np.float64)
        shape = (-1, dim, (2 if real else 1) << lo) if lo else (-1, dim)
        pair = self[key] = (rows.reshape(shape), scratch.reshape(shape))
        return pair


def _frame_multiply(rows: np.ndarray, column: np.ndarray) -> None:
    """Multiply the batch ``rows`` by a column of ``_frame``, which is
    exact: its factors are powers of i. The frame's qubits are the highest
    ones: one factor per row of this view, broadcast along the low
    qubits."""
    view = rows.reshape(-1, len(column), rows.shape[1] // len(column))
    view *= column


class _PieceMaps:
    """The maps ``_basis_map`` builds for errors taken after their basis
    run (see ``_apply_errors``), least recently used first, at most
    ``_PIECE_BYTES`` of them together. An entry is keyed by the register
    size, the error's kind and qubit and the ids of the gates of the run
    after the error's gate, the piece U that conjugates it, and holds those
    gates, so no id is reused while it lives. The field-free gates of every
    Trotter step are the same objects (``trotter._step_layout``), so the map
    of an error at one place of their runs is built once for every batch
    and every call."""

    def __init__(self) -> None:
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0

    def get(self, n_qubits: int, error: Gate, piece: tuple[Gate, ...]):
        """The map of U E U^-1, U the gates ``piece`` and E the one-qubit
        Pauli ``error``: of the gates U^-1, E, U in that order."""
        key = (n_qubits, error.kind, error.qubits[0], *map(id, piece))
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            return entry[1]
        undo = tuple(g.inverse() for g in reversed(piece))
        error_map = _basis_map(n_qubits, (*undo, error, *piece))
        size = sum(a.nbytes for a in error_map if a is not None)
        if size <= _PIECE_BYTES:
            while self.nbytes + size > _PIECE_BYTES:
                _, (_, _, freed) = self.entries.popitem(last=False)
                self.nbytes -= freed
            self.entries[key] = (piece, error_map, size)
            self.nbytes += size
        return error_map


_PIECE_MAPS = _PieceMaps()


def _runs(gates: Sequence[Gate], n_qubits: int):
    """Every run of ``gates`` in order, as ``circuit._steps`` finds them,
    in pieces of steps. A piece is (steps, size, period, part, op, blocks):
    ``steps`` steps of ``period`` gates each, every step the basis run or
    lone gate ``part`` of ``size`` gates and then a layer of the other
    ``period - size`` gates, whose blocks in step t are ``stack[t]`` of
    each (key, stack) of ``blocks`` (see ``_layer_blocks``). A basis run
    of two gates or more comes with its map ``op``, kept while an equal
    run comes again, which is then given as the same tuple, so a run
    repeated step after step is built once; a lone gate comes with None.
    A lone layer is a one-step piece with no part (``size`` 0), and a lone
    basis run or gate a one-step piece with no blocks.

    A lone layer's blocks are built alone, a stretch's a piece of steps at
    a time, each piece at most about ``_BLOCK_BYTES`` of blocks, so a
    stretch is yielded as a few pieces and no step as an item of its own.
    ``_steps`` checks a stretch's layers by their qubits only: a piece
    takes the kinds of its first step's layer and ends before the first
    step whose kinds differ, read from the same strided columns of the
    steps as the angles. A position whose gate stays the same costs one
    compare and no read, and a compiled circuit's shared gates make that
    compare an identity check. A step whose layer holds a basis gate is no
    step of a stretch, and the runs from it on are found anew.

    Every layer is checked against the register before its blocks are
    applied. Errors play no part in the plan: every row runs these runs,
    and the rows an error hits take it after its run (``_apply_errors``).
    """
    last_run, last_map = (), None
    start, count = 0, len(gates)
    while start < count:
        found, start = _steps(gates, start, count), count
        for i, j, k, steps in found:
            if j - i == 1:
                yield 1, 1, 1, gates[i], None, ()
                continue
            if not steps and gates[i].kind in _MIXING_KINDS:
                layer = sorted(gates[i:j], key=_QUBITS)
                angles = [[0.0 if g.angle is None else g.angle] for g in layer]
                [(_, blocks)] = _layer_blocks(tuple(g.qubits[0] for g in layer),
                                              tuple(map(_KIND, layer)), angles, n_qubits)
                yield 1, 0, j - i, None, None, blocks
                continue
            run = tuple(gates[i:j])
            if run != last_run:
                last_run, last_map = run, _basis_map(n_qubits, run)
            if not steps:
                yield 1, j - i, j - i, last_run, last_map, ()
                continue
            period = k - i
            order = sorted(range(j, k), key=lambda t: gates[t].qubits)
            qubits = tuple(gates[t].qubits[0] for t in order)
            most = -(-_BLOCK_BYTES // _block_plan(qubits, n_qubits)[1])
            done = 0
            while done < steps:
                places = [t + done * period for t in order]
                first = [gates[at] for at in places]
                kinds = tuple(map(_KIND, first))
                if not all(kind in _MIXING_KINDS for kind in kinds):
                    start = i + done * period
                    break
                size = min(most, steps - done)
                columns = []
                for at, gate in zip(places, first):
                    column = tuple(gates[at:at + size * period:period])
                    if _leading(column, gate) < size:
                        size = _leading(tuple(map(_KIND, column)), gate.kind)
                        columns.append(column)
                    else:
                        columns.append(None)
                angles = [[0.0] * size if gate.kind is GateKind.H
                          else [gate.angle] * size if column is None
                          else list(map(_ANGLE, column[:size]))
                          for gate, column in zip(first, columns)]
                # No name here keeps a piece's blocks while the next are built.
                yield from ((layers, j - i, period, last_run, last_map, blocks)
                            for layers, blocks in _layer_blocks(qubits, kinds, angles,
                                                                n_qubits))
                done += size
            if start < count:
                break


def _apply_basis(rows, n_qubits: int, part, op, frame, inside: bool) -> bool:
    """Apply a basis run of two gates or more by its map ``op`` = (src,
    phase), or the lone gate ``part`` (``op`` None), of any kind, by its
    per-gate kernel, to the batch ``rows``. ``inside`` tells whether the rows are in the S frame
    ``frame``, (into, back) columns of ``_frame`` or None below
    ``_REAL_QUBITS``; returns whether they are in it after the part.

    A diagonal map is applied as ``phase * rows``, phase first, inside the
    frame or not: in that operand order ``phase * (f * a) * conj(f)``
    equals ``phase * a`` bit for bit for every power of i ``f``. Anything
    else leaves the frame first.
    """
    if op is not None and op[0] is None:
        np.multiply(op[1], rows, rows)
        return inside
    if inside:
        _frame_multiply(rows, frame[1])
    if op is None:
        apply_gate_inplace(rows.reshape(-1), n_qubits, part)
    else:
        src, phase = op
        np.multiply(phase, rows.take(src, axis=1), rows)
    return False


def _apply_piece(views: _Views, n_qubits: int, piece, first: int, last: int,
                 frame, inside: bool) -> bool:
    """Apply the halves ``first`` to ``last`` of a piece of ``_runs`` to
    the batch of ``views``: half 2t is the basis run or lone gate of step
    t, half 2t + 1 its layer. ``inside`` tells whether the rows are in the
    S frame ``frame`` (see ``_apply_basis``); returns whether they are in
    it after the halves. The rows enter the frame before a layer.

    Each block position's views of the rows and of the scratch buffer are
    resolved once per call, and the halves then run in one loop. A layer's
    blocks are applied by one fixed sequence of products, the rows and the
    scratch buffer taking turns as input and output, so a layer gives the
    same bits whatever runs before or after it and however many rows the
    batch has. A complex block is applied by a complex product, a real one
    by a real product on the real and imaginary parts. The blocks of
    ``_layer_blocks`` expect a register of ``_REAL_QUBITS`` or more to be
    in its S frame.
    """
    _, _, _, part, op, blocks = piece
    rows = views.rows
    if not blocks:
        if first == 0 < last:
            inside = _apply_basis(rows, n_qubits, part, op, frame, inside)
        return inside
    products = []
    for p, (key, stack) in enumerate(blocks):
        pair = views[key]
        products.append((stack, *(pair[::-1] if p % 2 else pair), key[0] != 0))
    back = len(products) % 2
    phase = op[1] if op is not None and op[0] is None else None
    matmul = np.matmul
    for half in range(first, last):
        step = half >> 1
        if not half & 1:
            if phase is not None:
                np.multiply(phase, rows, rows)
            elif part is not None:
                inside = _apply_basis(rows, n_qubits, part, op, frame, inside)
            continue
        if frame is not None and not inside:
            _frame_multiply(rows, frame[0])
            inside = True
        for stack, src, dst, left in products:
            if left:
                matmul(stack[step], src, out=dst)
            else:
                matmul(src, stack[step], out=dst)
        if back:
            rows[...] = views.scratch
    return inside


def _apply_errors(rows, n_qubits: int, gates: Sequence[Gate], end: int, hits,
                  frame, inside: bool) -> None:
    """Apply the errors ``hits`` on the gates of the run that ends before
    gate ``end`` of ``gates``, each (gate index, error gate, rows it hits)
    in gate order, to the rows they hit, once the run is applied to every
    row of ``rows``. ``inside`` tells whether the rows are in the S frame
    ``frame`` (see ``_apply_basis``).

    An error E after gate k is U E U^-1 after the run, U the gates of the
    run after k, and the errors of a run are taken in gate order. When no
    gate of U acts on E's qubit that is E itself, applied by its per-gate
    kernel; otherwise it is the phase-permutation of U^-1, E, U from
    ``_PIECE_MAPS``. An error lies on a qubit of its own gate and a layer's
    gates act on distinct qubits, so only errors on basis runs take a map.
    A diagonal map is applied inside the frame; the rows an error hits
    leave it for any other error and enter it again after, which
    multiplies by powers of i and is exact. So a row's bits depend on its
    own errors only, as in a one-row batch.
    """
    for index, error, hit in hits:
        piece = tuple(gates[index + 1:end])
        q = error.qubits[0]
        op = None
        if any(q in g.qubits for g in piece):
            op = _PIECE_MAPS.get(n_qubits, error, piece)
        sub = rows if len(hit) == len(rows) else rows[hit]
        if not _apply_basis(sub, n_qubits, error, op, frame, inside) and inside:
            _frame_multiply(sub, frame[0])
        if sub is not rows:
            rows[hit] = sub


def apply_gates_inplace(
    rows: np.ndarray,
    n_qubits: int,
    gates: Sequence[Gate],
    errors: Iterable[tuple[int, Gate, np.ndarray]] = (),
) -> None:
    """Apply ``gates`` in order to every row of the C-contiguous
    ``(rows, 2**n_qubits)`` batch ``rows``, and after them the one-qubit
    ``errors``, each given as (gate index, error gate, indices of the rows
    it hits), in gate order, as ``noise.draw_errors`` yields them: each acts
    on its rows just after the gate of its index, on a qubit of that gate.

    Every gate is applied in a run (see ``_runs``). Each maximal run of two
    or more basis gates (CNOT, X, Z, RZ) is applied as one
    phase-permutation; the map of the most recent one is kept, so a run
    repeated step after step is built once. Each maximal run of two or more
    RX, RY and H gates on distinct qubits is applied as one layer of dense
    blocks. A lone gate takes its per-gate kernel. Repeated steps are
    planned as one stretch, and the blocks of its layers are built a piece
    of steps at a time. Each piece is applied by one loop over its steps
    (``_apply_piece``), through views of the rows and of one scratch buffer
    made once per call (``_Views``); a lone layer, basis run or gate is a
    piece of one step. A run and its errors are checked in full before any
    row changes: an error on a qubit its gate does not act on raises
    ValueError then, and one past the last gate or out of gate order when
    the runs reach it.

    Errors do not change the runs: every run is applied whole to every row,
    and then each error of the run to the rows it hits, conjugated through
    the run's gates after its own: as itself when none of them acts on its
    qubit, else as the phase-permutation of that conjugate, kept in
    ``_PIECE_MAPS`` (see ``_apply_errors``). The next error is compared
    with the end of each piece once; when it falls inside, the piece loop
    stops after that error's run, the errors of the run are taken, and the
    loop goes on from the next run of the piece. No run is applied twice.
    Every row's bits are those of a one-row batch with its own errors,
    whatever the other rows draw.

    On registers of ``_REAL_QUBITS`` or more the layers act in the
    register's S frame (see ``_layer_blocks``). The rows enter it before a
    layer and stay in it across diagonal basis runs, which commute with it,
    so a call of Trotter steps enters it once. They leave it before a
    permuting basis run or a lone gate and at the end of the call, a failed
    check included. Where the frame is entered and left does not change a
    bit of the result (see ``_apply_basis``).
    """
    views = _Views(rows)
    frame = _frame(n_qubits - _BLOCK_QUBITS) if n_qubits >= _REAL_QUBITS else None
    inside = False
    errors = iter(errors)
    error = next(errors, None)
    taken = 0  # the gate index of the last error taken
    at = 0  # the index of the first gate of the piece at hand
    try:
        for piece in _runs(gates, n_qubits):
            steps, size, period = piece[:3]
            end = at + steps * period
            half = 0  # the halves of the piece applied so far
            while error is not None and error[0] < end:
                # The error's run: the basis run or the layer of step t.
                t, offset = divmod(error[0] - at, period)
                in_layer = offset >= size
                stop = 2 * t + in_layer + 1
                run_end = at + t * period + (period if in_layer else size)
                hits = []
                while error is not None and error[0] < run_end:
                    index, qubits = error[0], error[1].qubits
                    if index < taken:
                        raise ValueError(f"error after gate {index} out of gate order")
                    if qubits[0] not in gates[index].qubits:
                        raise ValueError(f"error on qubit {qubits[0]} after gate "
                                         f"{index}, which acts on {gates[index].qubits}")
                    taken = index
                    hits.append(error)
                    error = next(errors, None)
                inside = _apply_piece(views, n_qubits, piece, half, stop, frame, inside)
                _apply_errors(rows, n_qubits, gates, run_end, hits, frame, inside)
                half = stop
            inside = _apply_piece(views, n_qubits, piece, half, 2 * steps, frame, inside)
            at = end
            del piece  # before the next piece's blocks are built
        if error is not None:
            raise ValueError(
                f"error after gate {error[0]}, past the last of {len(gates)} gates")
    finally:
        if inside:
            _frame_multiply(rows, frame[1])


def batch_rows_within(nbytes: int, n_qubits: int) -> int:
    """Rows, at least one, of the largest batch that ``apply_gates_inplace``
    runs within ``nbytes``: per row, the row, its scratch buffer, the copy
    of the rows an error hits (every row, at worst) and the permuted copy
    of them that the error's map takes, or the per-gate kernel's
    temporaries of the same size. A basis run's own permuted copy is freed
    before its errors are taken. Beside them, a piece's block matrices
    (``_BLOCK_BYTES``) and the error maps (``_PIECE_BYTES``)."""
    return max(1, (nbytes - _BLOCK_BYTES - _PIECE_BYTES) // (4 * (16 << n_qubits)))


def run(state: QuantumState, circuit: Circuit) -> QuantumState:
    """Apply all gates of ``circuit`` in order."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"register mismatch: state {state.n_qubits}, circuit {circuit.n_qubits}"
        )
    out = state.copy()
    apply_gates_inplace(out.amplitudes.reshape(1, -1), out.n_qubits, circuit.gates)
    return out


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register mismatch")
    f = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    return float(min(max(f, 0.0), 1.0))


def index_to_bitstring(index: int, n_bits: int) -> str:
    """Bit string with qubit 0 as the leftmost character."""
    return format(index, f"0{n_bits}b")[::-1]


def sample(state: QuantumState, shots: int, seed: int) -> SampleCounts:
    """Draw i.i.d. shots from the Born distribution; deterministic given seed."""
    shots = _integer("shots", shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    tallies = rng.multinomial(shots, probs)
    counts = {
        index_to_bitstring(i, state.n_qubits): int(tallies[i])
        for i in np.flatnonzero(tallies).tolist()
    }
    return SampleCounts(counts=counts, shots=shots, n_bits=state.n_qubits)

"""Dense statevector engine: gate application, overlaps, sampling.

Conventions: qubit 0 is the least-significant bit of the basis index
(little-endian); spin-up maps to computational |0>. Bit-string keys in
``SampleCounts`` list qubit 0 as the leftmost character.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import _QUBITS, Circuit, Gate, GateKind

MAX_QUBITS = 26

_SQ2 = 1.0 / math.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Gates that send each basis state to one basis state times a phase. A tuple,
# not a set: membership then compares identities instead of hashing enums.
_BASIS_KINDS = (GateKind.CNOT, GateKind.RZ, GateKind.X, GateKind.Z)
# The other one-qubit gates; a run of them on distinct qubits is one layer.
_MIXING_KINDS = (GateKind.RX, GateKind.RY, GateKind.H)
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
# Bytes of block matrices that one chunk of layers builds at once. A cap in
# bytes, not in layers, keeps a chunk's matrices small at every register
# size: a Trotter step's blocks take 2 KiB at 7 qubits and 10 KiB at 15.
_BLOCK_BYTES = 64 << 10
# i**k for k mod 4.
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
# The column that turns a row into the pair (row, -row).
_SIGNS = np.array([[1.0], [-1.0]])
# einsum subscripts of a batch of Kronecker products of w 2x2 factors, the
# factor of the highest qubit first: "...ae,...bf->...abef" for w = 2.
_KRON = {
    w: ",".join(f"...{chr(97 + j)}{chr(97 + w + j)}" for j in range(w))
    + "->..." + "".join(chr(97 + j) for j in range(2 * w))
    for w in range(1, _BLOCK_QUBITS + 1)
}


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


def _layer_matrices(layer: Sequence[Gate]) -> np.ndarray:
    """The 2x2 matrices of a run of RX, RY and H gates, as one
    ``(len(layer), 2, 2)`` array."""
    kinds = [g.kind for g in layer]
    half = 0.5 * np.array([0.0 if g.angle is None else g.angle for g in layer])
    c, s = np.cos(half), np.sin(half)
    m = np.zeros((len(layer), 2, 2), dtype=complex)
    m.real[:, 0, 0] = m.real[:, 1, 1] = c
    m.imag[:, 0, 1] = m.imag[:, 1, 0] = -s
    if GateKind.RY in kinds:
        ry = np.array([k is GateKind.RY for k in kinds])
        m[ry, 0, 1] = -s[ry]
        m[ry, 1, 0] = s[ry]
    if GateKind.H in kinds:
        m[np.array([k is GateKind.H for k in kinds])] = _H
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


def _layer_blocks(
    layers: list[tuple[tuple[int, ...], list[Gate]]], n_qubits: int
) -> list[list]:
    """The dense blocks of every layer of a chunk, given as (sorted qubits,
    gates in that order), in layer order. Each layer is a list of (lowest
    qubit, dimension, matrix) blocks, as ``_apply_blocks`` takes them.

    Layers on the same qubits share one block plan, so their 2x2 matrices
    are built by one ``_layer_matrices`` call and each block position's
    Kronecker products by one batched ``einsum``.

    On registers of ``_REAL_QUBITS`` or more the blocks act on rows in the
    frame S = diag(1, i) on every qubit from ``_BLOCK_QUBITS`` up (see
    ``_frame``). Each factor M on such a qubit is taken into the frame as
    S M conj(S), its off-diagonals times -i and i, which is exact; RX(t)
    becomes the real RY(t). A block above qubit 0 is real when all of its
    factors are, and is then applied in real arithmetic. The block at qubit
    0 lies below the frame and stays complex: it is one product whose row
    count grows with the batch, and a real product of that shape rounds
    differently for different row counts, which would make a row's bits
    depend on its batch.
    """
    framed = n_qubits >= _REAL_QUBITS
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, (qubits, _) in enumerate(layers):
        groups.setdefault(qubits, []).append(index)
    blocks_of: list[list] = [[] for _ in layers]
    for qubits, members in groups.items():
        count = len(members)
        plan, _ = _block_plan(qubits, n_qubits)
        mats = _layer_matrices([g for k in members for g in layers[k][1]])
        mats = mats.reshape(count, len(qubits), 2, 2)
        if framed:
            inside = [q >= _BLOCK_QUBITS for q in qubits]
            mats[:, inside, 0, 1] *= -1j
            mats[:, inside, 1, 0] *= 1j
        for lo, width, gates, offsets in plan:
            if offsets is None:
                factors = mats[:, gates]
            else:
                # Qubits of the span that no gate of the layer touches.
                factors = np.tile(np.eye(2, dtype=complex), (count, width, 1, 1))
                factors[:, offsets] = mats[:, gates]
            # Which layers' blocks are real, decided layer by layer, so a
            # layer's bits do not depend on the layers of its chunk.
            real = np.zeros(count, dtype=bool)
            if framed and lo:
                real = ~factors.imag.any(axis=(1, 2, 3))
                if real.all():
                    factors = factors.real
            dim = 1 << width
            # The factor of the highest qubit first.
            operands = [factors[:, w] for w in range(width - 1, -1, -1)]
            blocks = np.einsum(_KRON[width], *operands).reshape(count, dim, dim)
            for k, block, is_real in zip(members, blocks, real):
                if is_real and block.dtype == complex:
                    block = block.real.copy()
                blocks_of[k].append((lo, dim, block))
    return blocks_of


def _apply_blocks(rows: np.ndarray, scratch: np.ndarray, blocks: list) -> None:
    """Apply one layer's dense blocks to the batch ``rows``. ``scratch`` is
    a buffer of the batch's shape. A complex block is applied by a complex
    product, a real one by a real product on the real and imaginary parts.
    The blocks of ``_layer_blocks`` expect a register of ``_REAL_QUBITS``
    or more to be in its S frame, where ``apply_gates_inplace`` puts it.

    The blocks are applied by one fixed sequence of products, so a layer
    gives the same bits whatever runs before or after it and however many
    rows the batch has.
    """
    src, dst = rows, scratch
    for lo, dim, block in blocks:
        if lo == 0:
            np.matmul(src.reshape(-1, dim), block.T, out=dst.reshape(-1, dim))
        elif block.dtype == complex:
            shape = (-1, dim, 1 << lo)
            np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        else:
            # The real and imaginary parts of the batch as twice as many
            # real columns.
            shape = (-1, dim, 2 << lo)
            np.matmul(block, src.view(np.float64).reshape(shape),
                      out=dst.view(np.float64).reshape(shape))
        src, dst = dst, src
    if src is not rows:
        rows[...] = src


def _frame_multiply(rows: np.ndarray, column: np.ndarray) -> None:
    """Multiply the batch ``rows`` by a column of ``_frame``, which is
    exact: its factors are powers of i. The frame's qubits are the highest
    ones: one factor per row of this view, broadcast along the low
    qubits."""
    view = rows.reshape(-1, len(column), rows.shape[1] // len(column))
    view *= column


class _Piece(tuple):
    """A piece, two gates or more, of a basis run cut by an error: its map
    is built for one use and never held in place of a repeated run's."""


class _Error(tuple):
    """One error of ``apply_gates_inplace``'s ``errors``: (gate index,
    one-qubit error gate, indices of the rows it hits)."""


def _chunks(gates: Sequence[Gate], n_qubits: int, errors: Iterable = ()):
    """Split ``gates`` lazily into runs and yield them in chunks whose
    layers' block matrices fill about ``_BLOCK_BYTES``.

    A run is a maximal run of basis gates (a tuple) or of RX, RY and H gates
    on distinct qubits (a layer: a list of its gates sorted by qubit). A
    lone basis gate, and a mixing gate on a one-qubit register, whose block
    would span it, are yielded as the gate itself. A basis run equal to the
    one before it is yielded as that same tuple. Each chunk is yielded as
    its runs in order and its layers as (sorted qubits, gates); every layer
    is checked against the register before its chunk is yielded.

    ``errors``, (gate index, error gate, rows) in gate order, cut the runs:
    a run ends at each gate an error follows, and the errors of that gate
    come next in the chunk, each as an ``_Error``. So the runs are those
    that each stretch of gates between two errors gives on its own. A
    piece that an error cuts off a basis run is a ``_Piece`` and never
    becomes the run that the next gates are compared with.
    """
    chunk: list = []
    layers: list = []
    nbytes = 0
    last_run: tuple = ()
    i, count = 0, len(gates)
    errors = iter(errors)
    # The next error; runs stop at ``stop``, just past its gate.
    error = next(errors, None)
    stop = _stop(error, 0, count)
    cut = 0  # where the last cut fell
    while i < count:
        first = gates[i]
        j = i + 1
        if first.kind in _BASIS_KINDS:
            # Gates that repeat the last basis run, as step after step does,
            # are that run again when the gate after them or a cut ends it;
            # their kinds are not looked at again.
            end = i + len(last_run)
            if (last_run and end <= stop and gates[i:end] == last_run
                    and (end == stop or gates[end].kind not in _BASIS_KINDS)):
                chunk.append(last_run)
                j = end
            else:
                while j < stop and gates[j].kind in _BASIS_KINDS:
                    j += 1
                if j - i < 2:
                    chunk.append(first)
                elif (i == cut and i and gates[i - 1].kind in _BASIS_KINDS
                      or j < count and j == stop and gates[j].kind in _BASIS_KINDS):
                    chunk.append(_Piece(gates[i:j]))
                else:
                    last_run = tuple(gates[i:j])
                    chunk.append(last_run)
        else:
            seen = {first.qubits[0]}
            while j < stop:
                gate = gates[j]
                if gate.kind not in _MIXING_KINDS or gate.qubits[0] in seen:
                    break
                seen.add(gate.qubits[0])
                j += 1
            if j - i < 2 and n_qubits == 1:
                chunk.append(first)
            else:
                layer = sorted(gates[i:j], key=_QUBITS)
                qubits = tuple(g.qubits[0] for g in layer)
                nbytes += _block_plan(qubits, n_qubits)[1]
                chunk.append(layer)
                layers.append((qubits, layer))
        i = j
        if i == stop:
            while error is not None and error[0] == i - 1:
                chunk.append(_Error(error))
                error = next(errors, None)
            stop, cut = _stop(error, i, count), i
        if nbytes >= _BLOCK_BYTES:
            yield chunk, layers
            chunk, layers, nbytes = [], [], 0
    if error is not None:
        raise ValueError(f"error after gate {error[0]}, past the last of {count} gates")
    if chunk:
        yield chunk, layers


def _stop(error, i: int, count: int) -> int:
    """Where the runs from gate ``i`` on stop: just past the gate of the
    next error ``error``, or at ``count`` when there is none."""
    if error is None:
        return count
    if error[0] < i:
        raise ValueError(f"error after gate {error[0]} out of gate order")
    return min(error[0] + 1, count)


def apply_gates_inplace(
    rows: np.ndarray,
    n_qubits: int,
    gates: Sequence[Gate],
    errors: Iterable[tuple[int, Gate, np.ndarray]] = (),
) -> None:
    """Apply ``gates`` in order to every row of the C-contiguous
    ``(rows, 2**n_qubits)`` batch ``rows``, and after them the one-qubit
    ``errors``, each given as (gate index, error gate, indices of the rows
    it hits), in gate order, as ``noise.draw_errors`` yields them: each is
    applied to its rows just after the gate of its index.

    Every gate is applied in a run. Each maximal run of two or more basis
    gates (CNOT, X, Z, RZ) is applied as one phase-permutation; the map of
    the most recent one is kept for the next, so a run repeated step after
    step is built once. Each maximal run of RX, RY and H gates on distinct
    qubits is applied as one layer of dense blocks. A lone basis gate, and
    a mixing gate on a one-qubit register, take the per-gate kernel that
    each error takes. An error ends the run its gate is in; the map of a
    piece of a cut run is built for that use alone and the kept map stays.
    The runs are planned a chunk at a time (see ``_chunks``): the blocks of
    all layers of a chunk are built together, then the chunk's runs are
    applied in order. A run is checked in full before any row changes;
    an error past the last gate or out of gate order raises ValueError when
    the runs reach it.

    On registers of ``_REAL_QUBITS`` or more the layers act in the
    register's S frame (see ``_layer_blocks``). The rows enter it before a
    layer and stay in it across diagonal basis runs, which commute with it,
    so a call of Trotter steps enters it once. They leave it before a
    permuting basis run, a lone gate or an error and at the end of the
    call, a failed check included. The diagonal is applied as ``phase * rows``,
    phase first: in that operand order ``phase * (f * a) * conj(f)`` equals
    ``phase * a`` bit for bit for every power of i ``f``, so where the frame
    is entered and left does not change a bit of the result.
    """
    scratch = None
    last_run, last_map = (), None
    into = back = None
    if n_qubits >= _REAL_QUBITS:
        into, back = _frame(n_qubits - _BLOCK_QUBITS)
    inside = False
    try:
        for chunk, layers in _chunks(gates, n_qubits, errors):
            blocks = iter(_layer_blocks(layers, n_qubits))
            for part in chunk:
                kind = type(part)
                if kind is list:
                    if scratch is None:
                        scratch = np.empty_like(rows)
                    if into is not None and not inside:
                        _frame_multiply(rows, into)
                        inside = True
                    _apply_blocks(rows, scratch, next(blocks))
                    continue
                if kind is tuple and part != last_run:
                    last_run, last_map = part, _basis_map(n_qubits, part)
                basis = kind is tuple or kind is _Piece
                if basis:
                    src, phase = (last_map if kind is tuple
                                  else _basis_map(n_qubits, part))
                    if src is None:
                        np.multiply(phase, rows, rows)
                        continue
                if inside:
                    _frame_multiply(rows, back)
                    inside = False
                if basis:
                    np.multiply(phase, rows.take(src, axis=1), rows)
                elif kind is _Error:
                    _, error, hit = part
                    sub = rows[hit]
                    apply_gate_inplace(sub.reshape(-1), n_qubits, error)
                    rows[hit] = sub
                else:
                    # A lone basis gate, or a mixing gate on a one-qubit register.
                    apply_gate_inplace(rows.reshape(-1), n_qubits, part)
    finally:
        if inside:
            _frame_multiply(rows, back)


def batch_rows_within(nbytes: int, n_qubits: int) -> int:
    """Rows, at least one, of the largest batch that ``apply_gates_inplace``
    runs within ``nbytes``: the rows, its scratch buffer and the permuted
    copy a basis run takes, and a chunk's block matrices (``_BLOCK_BYTES``)."""
    return max(1, (nbytes - _BLOCK_BYTES) // (3 * (16 << n_qubits)))


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

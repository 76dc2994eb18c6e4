"""Gate-level circuit IR: construction, concatenation, inversion, depth layering, export.

Rotation conventions use half-angle generators:
    RX(t) = exp(-i t X / 2),  RY(t) = exp(-i t Y / 2),  RZ(t) = exp(-i t Z / 2).
Circuits are immutable after construction and safe to share across tasks.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from typing import Iterator, Sequence


class CircuitError(ValueError):
    """Raised for invalid gate or circuit construction."""


class GateKind(Enum):
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    H = "h"
    X = "x"
    Z = "z"
    CNOT = "cx"


# A tuple, not a set: membership then compares identities instead of hashing
# enums through the Python-level ``Enum.__hash__``.
ROTATION_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ)
# Gates that send each basis state to one basis state times a phase.
_BASIS_KINDS = (GateKind.CNOT, GateKind.RZ, GateKind.X, GateKind.Z)
# The other one-qubit gates; a run of them on distinct qubits is one layer.
_MIXING_KINDS = (GateKind.RX, GateKind.RY, GateKind.H)


@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate acting on 1 or 2 register qubits.

    For CNOT, ``qubits`` is (control, target). ``angle`` is present exactly
    for the rotation kinds, and is stored as a Python float.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        kind, angle = self.kind, self.angle
        try:
            qubits = tuple(map(operator.index, self.qubits))
        except TypeError:
            raise CircuitError(
                f"qubit indices must be integers, got {self.qubits!r}"
            ) from None
        arity = 2 if kind is GateKind.CNOT else 1
        if len(qubits) != arity:
            raise CircuitError(f"{kind.name} acts on {arity} qubit(s), got {qubits}")
        if qubits[0] < 0 or qubits[-1] < 0:
            raise CircuitError(f"negative qubit index in {qubits}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise CircuitError("control and target must be distinct")
        object.__setattr__(self, "qubits", qubits)
        if kind in ROTATION_KINDS:
            if type(angle) is not float:
                if not isinstance(angle, numbers.Real):
                    raise CircuitError(
                        f"{kind.name} requires a real angle, got {angle!r}"
                    )
                angle = float(angle)
                object.__setattr__(self, "angle", angle)
            if not math.isfinite(angle):
                raise CircuitError(f"{kind.name} requires a finite angle")
        elif angle is not None:
            raise CircuitError(f"{kind.name} carries no angle")

    @classmethod
    def _trusted(cls, kind: GateKind, qubits: tuple[int, ...],
                 angle: float | None = None) -> "Gate":
        """A gate whose fields are already checked (``qubits`` a tuple of
        valid indices, ``angle`` a finite float exactly for the rotation
        kinds), built without checking them again. Its three slots are set
        through their descriptors, which the frozen ``__setattr__`` does
        not guard."""
        gate = object.__new__(cls)
        _set_kind(gate, kind)
        _set_qubits(gate, qubits)
        _set_angle(gate, angle)
        return gate

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def inverse(self) -> "Gate":
        # A checked gate's negated angle is still a finite float.
        if self.kind in ROTATION_KINDS:
            return Gate._trusted(self.kind, self.qubits, -self.angle)
        return self


# The slots' own setters, which ``Gate._trusted`` calls.
_set_kind = Gate.kind.__set__
_set_qubits = Gate.qubits.__set__
_set_angle = Gate.angle.__set__
_QUBITS = operator.attrgetter("qubits")


def _integer(name: str, value) -> int:
    """``value`` as an int: a count or a seed taken as ``operator.index``
    takes it, so ``numpy.int64`` passes and a float does not. Anything else
    raises a ValueError that names ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GateCounts:
    one_qubit: int
    two_qubit: int


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program over a register of ``n_qubits`` qubits."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        n_qubits = _integer("register size", self.n_qubits)
        if n_qubits < 1:
            raise CircuitError("register needs at least one qubit")
        gates = tuple(self.gates)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", gates)
        if gates and max(map(max, map(_QUBITS, gates))) >= n_qubits:
            g = next(g for g in gates if max(g.qubits) >= n_qubits)
            raise CircuitError(
                f"gate {g.kind.name} on {g.qubits} exceeds register size "
                f"{n_qubits}"
            )

    @classmethod
    def _trusted(cls, n_qubits: int, gates: tuple[Gate, ...]) -> "Circuit":
        """A circuit of gates already checked against an ``n_qubits``
        register, built without checking them again."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "n_qubits", n_qubits)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)


def concat(circuits: Sequence[Circuit]) -> Circuit:
    """Concatenate many circuits at once (avoids quadratic tuple copying).
    Each part was checked against its register when it was built, so the
    result is not checked again. The gate tuple is built straight from the
    parts, with no list of the gates beside it: for a braid of 138,697
    gates that list took another 1.1 MB at the op's peak."""
    if not circuits:
        raise CircuitError("concat needs at least one circuit")
    n = circuits[0].n_qubits
    if any(c.n_qubits != n for c in circuits):
        raise CircuitError("register size mismatch in concat")
    return Circuit._trusted(n, tuple(chain.from_iterable(c.gates for c in circuits)))


def inverse(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, rotation angles negated."""
    return Circuit._trusted(
        circuit.n_qubits, tuple(g.inverse() for g in reversed(circuit.gates))
    )


def _run_end(gates: Sequence[Gate], i: int, stop: int) -> int:
    """Past the last gate of the run of ``gates[:stop]`` that starts at
    ``i``: the basis gates in a row, or the RX, RY and H gates in a row on
    distinct qubits (a layer)."""
    j = i + 1
    if gates[i].kind in _BASIS_KINDS:
        while j < stop and gates[j].kind in _BASIS_KINDS:
            j += 1
    else:
        seen = {gates[i].qubits[0]}
        while j < stop:
            gate = gates[j]
            if gate.kind not in _MIXING_KINDS or gate.qubits[0] in seen:
                break
            seen.add(gate.qubits[0])
            j += 1
    return j


def _leading(column: tuple, item) -> int:
    """How many items at the start of ``column`` equal ``item``: one
    C-level compare when all of them do. Otherwise the items that are
    ``item`` itself, as the shared gates of a compiled circuit's steps
    are, are passed over by C-level identity checks, and each other item
    up to the first that differs takes one compare."""
    n = len(column)
    if column == (item,) * n:
        return n
    for k in compress(range(n), map(operator.is_not, column, repeat(item))):
        if column[k] != item:
            break
    return k


def _repeated_steps(gates: Sequence[Gate], start: int, run: tuple,
                    layer: Sequence[Gate], most: int) -> int:
    """How many of the ``most`` steps of ``gates`` from ``start`` repeat
    the step ``run`` + ``layer``: the basis run ``run`` gate for gate, then
    the gates of ``layer`` qubit for qubit.

    Each gate position of a step is checked over all the steps at once, as
    one strided slice compared by C-level compares: a position whose gate
    stays the same takes one compare. The compare of a gate with itself,
    as in a compiled circuit, whose steps share their gates, takes the
    identity shortcut; equal gates that are other objects compare by a
    Python call each. A layer position whose gates change is checked by
    its qubit tuples, again one C-level compare.
    """
    period = len(run) + len(layer)
    for offset, gate in enumerate(run):
        most = _leading(tuple(gates[start + offset:start + most * period:period]), gate)
    for offset, gate in enumerate(layer, len(run)):
        column = tuple(gates[start + offset:start + most * period:period])
        if _leading(column, gate) < most:
            most = _leading(tuple(map(_QUBITS, column)), gate.qubits)
    return most


def _steps(gates: Sequence[Gate], start: int, stop: int):
    """Every run of ``gates[start:stop]`` in order, as (i, j, k, steps).

    With ``steps`` 0 the run is ``gates[i:j]``, as ``_run_end`` cuts it: a
    basis run, a layer or a lone gate (and ``k`` is ``j``). Otherwise a
    basis run of two gates or more, ``gates[i:j]``, is followed by a layer
    of two gates or more, ``gates[j:k]``, and the run is ``steps`` steps of
    ``k - i`` gates, the first of them included: each step repeats the
    basis run gate for gate and then the layer qubit for qubit.

    The steps are probed by ``_repeated_steps`` over 1, 2, 4, ... more
    steps until a probe falls short, so a stretch costs about its own
    length in C-level compares. A last step whose layer the gate after it
    would widen, a mixing gate on another qubit, is left to the runs after
    the stretch. So the steps' basis runs and layers are the runs that
    ``_run_end`` cuts wherever the layers hold RX, RY and H gates only.
    Their kinds are not read here: they may change from step to step, and
    a caller that needs them, as the executor does, reads them.
    """
    i = start
    while i < stop:
        j = _run_end(gates, i, stop)
        k = j
        if j - i >= 2 and j < stop and gates[i].kind in _BASIS_KINDS:
            k = _run_end(gates, j, stop)
        if k - j < 2:
            yield i, j, j, 0
            if k > j:
                yield j, k, k, 0
            i = k
            continue
        period = k - i
        run, layer = tuple(gates[i:j]), gates[j:k]
        steps = most = 1
        while True:
            most = min(most, (stop - i) // period - steps)
            if most < 1:
                break
            found = _repeated_steps(gates, i + steps * period, run, layer, most)
            steps += found
            if found < most:
                break
            most *= 2
        end = i + steps * period
        if (steps > 1 and end < stop and gates[end].kind in _MIXING_KINDS
                and gates[end].qubits not in map(_QUBITS, layer)):
            steps -= 1
        yield i, j, k, steps
        i += steps * period


def _walk_gates(busy: list[int], gates: Sequence[Gate]) -> int:
    """Schedule ``gates`` one at a time as soon as possible onto the
    frontier ``busy`` (the last layer used on each qubit), in place.
    Returns the number of two-qubit gates among them."""
    two = 0
    for g in gates:
        qubits = g.qubits
        if len(qubits) == 1:
            busy[qubits[0]] += 1
        else:
            a, b = qubits
            x, y = busy[a], busy[b]
            busy[a] = busy[b] = (x if x > y else y) + 1
            two += 1
    return two


def _walk(busy: list[int], gates: Sequence[Gate], start: int, stop: int) -> int:
    """Schedule ``gates[start:stop]`` as soon as possible onto the frontier
    ``busy``, in place, as ``_walk_gates`` does, but a stretch of repeated
    steps at a time. Returns the number of two-qubit gates among them.

    The stretches are the ones the executor runs: ``_steps`` finds them.
    Their steps are walked in blocks of 1, 2, 4, ... steps, the last step
    of each block on its own, only until such a step adds the same c to
    every qubit the step touches. A step's gates read and set only those
    qubits, and walking them commutes with adding one constant to all of
    them, so each later step adds c again: the rest of the stretch adds c
    times its steps to those qubits, and its two-qubit gates are one
    step's times its steps. A stretch whose steps never shift uniformly
    (two groups of qubits that no gate of the step links, moving at
    different rates, say) is walked gate by gate to its end, checked once
    per block. Runs outside stretches are walked one gate at a time.
    """
    two = 0
    for i, j, k, steps in _steps(gates, start, stop):
        if not steps:
            two += _walk_gates(busy, gates[i:j])
            continue
        step, period = gates[i:k], k - i
        touched = tuple(set(chain.from_iterable(map(_QUBITS, step))))
        done, block = 0, 1
        while done < steps:
            done += block
            last = i + (done - 1) * period
            two += _walk_gates(busy, gates[last - (block - 1) * period:last])
            before = [busy[q] for q in touched]
            per = _walk_gates(busy, step)
            two += per
            c = busy[touched[0]] - before[0]
            if all(busy[q] - b == c for q, b in zip(touched, before)):
                rest = steps - done
                for q in touched:
                    busy[q] += c * rest
                two += per * rest
                break
            block = min(2 * block, steps - done)
    return two


def depths_and_counts(
    head: Circuit, body: Circuit, tail: Circuit
) -> tuple[int, int, GateCounts]:
    """The depth of ``head + body + tail``, the depth of ``body`` alone and
    the gate counts of all three, in one walk.

    Depth is the number of layers under greedy as-soon-as-possible
    scheduling: a gate joins the earliest layer after the last layer
    touching any of its qubits, so two gates sharing a qubit are never
    reordered. Repeated steps are walked a stretch at a time (``_walk``);
    the result is that of the gate-by-gate walk. The body is walked from
    the head's frontier and from zero together, doubling the part walked
    between two looks at the frontiers. Once they differ by the same
    constant c on every qubit, only the frontier from zero goes on: each
    gate sets its qubits to one more than their maximum, so every later
    difference stays c. Frontiers that never meet that way (a qubit the
    body leaves idle, say) are both walked to the end.
    """
    n = body.n_qubits
    if head.n_qubits != n or tail.n_qubits != n:
        raise CircuitError("register size mismatch")
    lead = [0] * n
    two = _walk(lead, head.gates, 0, len(head))
    own = [0] * n
    gates, done, size = body.gates, 0, 1
    while done < len(gates):
        c = lead[0] - own[0]
        if all(x - y == c for x, y in zip(lead, own)):
            two += _walk(own, gates, done, len(gates))
            lead = [y + c for y in own]
            break
        end = min(done + size, len(gates))
        two += _walk(own, gates, done, end)
        _walk(lead, gates, done, end)
        done = end
        size *= 2
    two += _walk(lead, tail.gates, 0, len(tail))
    one = len(head) + len(body) + len(tail) - two
    return max(lead), max(own), GateCounts(one_qubit=one, two_qubit=two)


def depth(circuit: Circuit) -> int:
    """Number of layers under greedy as-soon-as-possible scheduling (see
    ``depths_and_counts``)."""
    return depths_and_counts(*_alone(circuit))[1]


def gate_counts(circuit: Circuit) -> GateCounts:
    return depths_and_counts(*_alone(circuit))[2]


def _alone(circuit: Circuit) -> tuple[Circuit, Circuit, Circuit]:
    """``circuit`` as the body between an empty head and an empty tail."""
    empty = Circuit._trusted(circuit.n_qubits, ())
    return empty, circuit, empty


def to_qasm(circuit: Circuit) -> str:
    """Export as OpenQASM 2.0 text, one gate per line."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
    ]
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            c, t = g.qubits
            lines.append(f"cx q[{c}],q[{t}];")
        elif g.kind in ROTATION_KINDS:
            lines.append(f"{g.kind.value}({g.angle!r}) q[{g.qubits[0]}];")
        else:
            lines.append(f"{g.kind.value} q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"

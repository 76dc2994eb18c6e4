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


@dataclass(frozen=True)
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
        kinds), built without checking them again."""
        # Attribute by attribute, as ``__init__`` does: filling ``__dict__``
        # directly is faster but gives each gate a full dict of its own.
        gate = object.__new__(cls)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "qubits", qubits)
        object.__setattr__(gate, "angle", angle)
        return gate

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def inverse(self) -> "Gate":
        # A checked gate's negated angle is still a finite float.
        if self.kind in ROTATION_KINDS:
            return Gate._trusted(self.kind, self.qubits, -self.angle)
        return self


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
        if self.n_qubits < 1:
            raise CircuitError("register needs at least one qubit")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if gates and max(map(max, map(_QUBITS, gates))) >= self.n_qubits:
            g = next(g for g in gates if max(g.qubits) >= self.n_qubits)
            raise CircuitError(
                f"gate {g.kind.name} on {g.qubits} exceeds register size "
                f"{self.n_qubits}"
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
    result is not checked again."""
    if not circuits:
        raise CircuitError("concat needs at least one circuit")
    n = circuits[0].n_qubits
    gates: list[Gate] = []
    for c in circuits:
        if c.n_qubits != n:
            raise CircuitError("register size mismatch in concat")
        gates.extend(c.gates)
    return Circuit._trusted(n, tuple(gates))


def inverse(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, rotation angles negated."""
    return Circuit._trusted(
        circuit.n_qubits, tuple(g.inverse() for g in reversed(circuit.gates))
    )


def _walk(busy: list[int], gates: Sequence[Gate]) -> int:
    """Schedule ``gates`` as soon as possible onto the frontier ``busy``
    (the last layer used on each qubit), in place. Returns the number of
    two-qubit gates among them."""
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


def depths_and_counts(
    head: Circuit, body: Circuit, tail: Circuit
) -> tuple[int, int, GateCounts]:
    """The depth of ``head + body + tail``, the depth of ``body`` alone and
    the gate counts of all three, in one walk.

    Depth is the number of layers under greedy as-soon-as-possible
    scheduling: a gate joins the earliest layer after the last layer
    touching any of its qubits, so two gates sharing a qubit are never
    reordered. The body is walked from the head's frontier and from zero
    together, doubling the stretch walked between two looks at the
    frontiers. Once they differ by the same constant c on every qubit, only
    the frontier from zero goes on: each gate sets its qubits to one more
    than their maximum, so every later difference stays c. Frontiers that
    never meet that way (a qubit the body leaves idle, say) are both walked
    to the end.
    """
    n = body.n_qubits
    if head.n_qubits != n or tail.n_qubits != n:
        raise CircuitError("register size mismatch")
    lead = [0] * n
    two = _walk(lead, head.gates)
    own = [0] * n
    gates, done, size = body.gates, 0, 1
    while done < len(gates):
        c = lead[0] - own[0]
        if all(x - y == c for x, y in zip(lead, own)):
            two += _walk(own, gates[done:])
            lead = [y + c for y in own]
            break
        part = gates[done:done + size]
        two += _walk(own, part)
        _walk(lead, part)
        done += size
        size *= 2
    two += _walk(lead, tail.gates)
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

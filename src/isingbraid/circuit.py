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
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.qubits, -self.angle)
        return self


_QUBITS = operator.attrgetter("qubits")


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


def depth(circuit: Circuit) -> int:
    """Number of layers under greedy as-soon-as-possible scheduling.

    A gate joins the earliest layer after the last layer touching any of its
    qubits, so two gates sharing a qubit are never reordered.
    """
    busy = [0] * circuit.n_qubits
    d = 0
    for g in circuit.gates:
        qubits = g.qubits
        if len(qubits) == 1:
            q = qubits[0]
            layer = busy[q] + 1
            busy[q] = layer
        else:
            a, b = qubits
            x, y = busy[a], busy[b]
            layer = (x if x > y else y) + 1
            busy[a] = busy[b] = layer
        if layer > d:
            d = layer
    return d


def gate_counts(circuit: Circuit) -> GateCounts:
    # Every gate touches one or two qubits, so the qubits touched in all
    # exceed the gate count by the number of two-qubit gates.
    two = sum(map(len, map(_QUBITS, circuit.gates))) - len(circuit.gates)
    return GateCounts(one_qubit=len(circuit.gates) - two, two_qubit=two)


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


QASM_HEADER_LINES = 3

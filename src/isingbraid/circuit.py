"""Gate-level circuit IR: construction, concatenation, inversion, depth layering, export.

Rotation conventions use half-angle generators:
    RX(t) = exp(-i t X / 2),  RY(t) = exp(-i t Y / 2),  RZ(t) = exp(-i t Z / 2).
Circuits are immutable after construction and safe to share across tasks.
"""
from __future__ import annotations

import math
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


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})


@dataclass(frozen=True)
class Gate:
    """A single gate acting on 1 or 2 register qubits.

    For CNOT, ``qubits`` is (control, target). ``angle`` is present exactly
    for the rotation kinds.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        arity = 2 if self.kind is GateKind.CNOT else 1
        if len(self.qubits) != arity:
            raise CircuitError(
                f"{self.kind.name} acts on {arity} qubit(s), got {self.qubits}"
            )
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError("control and target must be distinct")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise CircuitError(f"{self.kind.name} requires a finite angle")
        elif self.angle is not None:
            raise CircuitError(f"{self.kind.name} carries no angle")

    @property
    def arity(self) -> int:
        return len(self.qubits)

    def inverse(self) -> "Gate":
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.qubits, -self.angle)
        return self


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
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise CircuitError(
                    f"gate {g.kind.name} on {g.qubits} exceeds register size "
                    f"{self.n_qubits}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)


def empty(n_qubits: int) -> Circuit:
    return Circuit(n_qubits, ())


def concat(circuits: Sequence[Circuit]) -> Circuit:
    """Concatenate many circuits at once (avoids quadratic tuple copying)."""
    if not circuits:
        raise CircuitError("concat needs at least one circuit")
    n = circuits[0].n_qubits
    gates: list[Gate] = []
    for c in circuits:
        if c.n_qubits != n:
            raise CircuitError("register size mismatch in concat")
        gates.extend(c.gates)
    return Circuit(n, tuple(gates))


def inverse(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, rotation angles negated."""
    return Circuit(circuit.n_qubits, tuple(g.inverse() for g in reversed(circuit.gates)))


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
    one = sum(1 for g in circuit.gates if g.arity == 1)
    return GateCounts(one_qubit=one, two_qubit=len(circuit.gates) - one)


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

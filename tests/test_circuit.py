import gc
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingbraid.circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateCounts,
    GateKind,
    concat,
    depth,
    depths_and_counts,
    gate_counts,
    inverse,
    to_qasm,
)

from dense_reference import dense_unitary


def test_gate_validation():
    Gate(GateKind.RX, (0,), 0.5)
    Gate(GateKind.CNOT, (1, 0))
    with pytest.raises(CircuitError):
        Gate(GateKind.RX, (0, 1), 0.5)
    with pytest.raises(CircuitError):
        Gate(GateKind.CNOT, (2, 2))
    with pytest.raises(CircuitError):
        Gate(GateKind.RZ, (0,))  # missing angle
    with pytest.raises(CircuitError):
        Gate(GateKind.RZ, (0,), math.nan)
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0,), 1.0)  # angle on non-rotation
    with pytest.raises(CircuitError):
        Gate(GateKind.X, (-1,))


def test_gate_rejects_non_integer_qubit():
    with pytest.raises(CircuitError, match="integers"):
        Gate(GateKind.RX, (1.7,), 0.1)
    with pytest.raises(CircuitError, match="integers"):
        Gate(GateKind.CNOT, (0, np.float64(1.0)))
    g = Gate(GateKind.CNOT, (np.int64(2), np.int32(0)))
    assert g.qubits == (2, 0) and all(type(q) is int for q in g.qubits)


def test_gate_stores_real_angles_as_float():
    g = Gate(GateKind.RX, (2,), np.float64(0.3))
    assert type(g.angle) is float and g.angle == 0.3
    assert to_qasm(Circuit(3, (g,))).splitlines()[-1] == "rx(0.3) q[2];"
    assert type(Gate(GateKind.RZ, (0,), 1).angle) is float
    for bad in (1j, np.complex128(0.3), "0.3"):
        with pytest.raises(CircuitError, match="real angle"):
            Gate(GateKind.RY, (0,), bad)


@pytest.mark.parametrize("kind, qubits, angle", [
    (GateKind.RX, (2,), 0.3), (GateKind.RZ, (0,), -0.0), (GateKind.CNOT, (1, 0), None),
    (GateKind.H, (4,), None)])
def test_trusted_gate_is_the_checked_one(kind, qubits, angle):
    checked, trusted = Gate(kind, qubits, angle), Gate._trusted(kind, qubits, angle)
    for g in (checked, trusted):
        assert not hasattr(g, "__dict__")
        with pytest.raises(AttributeError):
            g.angle = 1.0
    assert trusted == checked and hash(trusted) == hash(checked)
    assert (trusted.kind, trusted.qubits, trusted.angle) == (kind, qubits, angle)
    copy = pickle.loads(pickle.dumps(trusted))
    assert copy == checked and hash(copy) == hash(checked)
    assert pickle.dumps(trusted) == pickle.dumps(checked)


@pytest.mark.parametrize("collecting", [True, False])
def test_trusted_gates_in_bulk_leave_the_collector_as_found(collecting):
    qubits, angles = [(2,), (0,), (2,)], [0.3, -0.0, 0.3]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        gates = Gate._trusted_many(GateKind.RX, qubits, angles)
        assert gc.isenabled() is collecting
        with pytest.raises(ZeroDivisionError):
            # The collector comes back on when the qubits fail to come.
            Gate._trusted_many(GateKind.RX, ((1 // q,) for q in [0]), angles)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert gates == [Gate(GateKind.RX, q, a) for q, a in zip(qubits, angles)]
    assert [g.angle.hex() for g in gates] == [a.hex() for a in angles]


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(CircuitError):
        Circuit(2, (Gate(GateKind.H, (2,)),))
    with pytest.raises(CircuitError):
        Circuit(0)


def test_circuit_register_size_must_be_an_integer():
    with pytest.raises(ValueError, match="register size must be an integer"):
        Circuit(2.5, (Gate(GateKind.H, (0,)),))
    c = Circuit(np.int64(3), (Gate(GateKind.CNOT, (0, 2)),))
    assert type(c.n_qubits) is int and c.n_qubits == 3
    assert to_qasm(c).splitlines()[2] == "qreg q[3];"
    assert depth(c) == 1


def test_concat_gate_order_and_length():
    a = Circuit(2, (Gate(GateKind.H, (0,)),))
    b = Circuit(2, (Gate(GateKind.CNOT, (0, 1)),))
    ab = concat([a, b])
    assert [g.kind for g in ab] == [GateKind.H, GateKind.CNOT]
    assert len(ab) == 2
    with pytest.raises(CircuitError, match="mismatch"):
        concat([a, Circuit(3, ())])


def test_concat_flattens_parts_and_rejects_empty_list():
    parts = [
        Circuit(2, (Gate(GateKind.RX, (0,), 0.1),)),
        Circuit(2, (Gate(GateKind.CNOT, (1, 0),),)),
        Circuit(2, ()),
        Circuit(2, (Gate(GateKind.RZ, (1,), -0.4),)),
    ]
    c = concat(parts)
    assert c == Circuit(2, tuple(g for part in parts for g in part))
    with pytest.raises(CircuitError, match="at least one"):
        concat([])


def test_concat_holds_one_copy_of_the_gates():
    # The result's tuple is the only array of gate references concat
    # builds: no list of the gates beside it.
    part = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))) * 20_000)
    one_copy = sys.getsizeof(part.gates)
    tracemalloc.start()
    try:
        both = concat([part, part])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert both.gates == part.gates * 2
    assert peak < 1.5 * 2 * one_copy


def test_inverse_is_unitary_inverse():
    rng = np.random.default_rng(7)
    gates = []
    for _ in range(30):
        if rng.random() < 0.4:
            q = int(rng.integers(3))
            t = int((q + 1 + rng.integers(2)) % 3)
            gates.append(Gate(GateKind.CNOT, (q, t)))
        else:
            kind = [GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.H][
                int(rng.integers(4))
            ]
            angle = float(rng.normal()) if kind is not GateKind.H else None
            gates.append(Gate(kind, (int(rng.integers(3)),), angle))
    c = Circuit(3, tuple(gates))
    u = dense_unitary(c)
    v = dense_unitary(inverse(c))
    assert np.allclose(u @ v, np.eye(8), atol=1e-10)


@pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ])
def test_inverse_of_a_rotation_equals_the_checked_gate(kind):
    g = Gate(kind, (2,), 0.3)
    inv = g.inverse()
    assert inv == Gate(kind, (2,), -0.3)
    assert type(inv.angle) is float and inv.qubits == (2,)
    assert inv.inverse() == g


def test_depth_simple_cases():
    assert depth(Circuit(3, ())) == 0
    c = Circuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.H, (1,)),  # parallel with the first
            Gate(GateKind.CNOT, (0, 1)),
            Gate(GateKind.H, (2,)),  # parallel with everything above
        ),
    )
    assert depth(c) == 2


def test_depth_respects_qubit_collisions():
    c = Circuit(2, tuple(Gate(GateKind.RX, (0,), 0.1) for _ in range(5)))
    assert depth(c) == 5


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1]),
        max_size=40,
    )
)
def test_depth_bounds_property(pairs):
    gates = tuple(Gate(GateKind.CNOT, p) for p in pairs)
    c = Circuit(4, gates)
    d = depth(c)
    assert d <= len(gates)
    # at least ceil(max gates per qubit)
    per_qubit = [0, 0, 0, 0]
    for g in gates:
        for q in g.qubits:
            per_qubit[q] += 1
    assert d >= max(per_qubit, default=0)


def _reference_depth(circuit):
    """Greedy as-soon-as-possible layering, one gate at a time."""
    busy = [0] * circuit.n_qubits
    layers = [0]
    for g in circuit.gates:
        layer = max(busy[q] for q in g.qubits) + 1
        for q in g.qubits:
            busy[q] = layer
        layers.append(layer)
    return max(layers)


def _draw_circuit(data, n, qubits, max_size):
    """A circuit on ``n`` qubits whose gates touch only ``qubits``."""
    gates = []
    for _ in range(data.draw(st.integers(0, max_size))):
        if len(qubits) > 1 and data.draw(st.booleans()):
            c, t = data.draw(st.permutations(qubits))[:2]
            gates.append(Gate(GateKind.CNOT, (c, t)))
        else:
            kind = data.draw(st.sampled_from([GateKind.RX, GateKind.H, GateKind.Z]))
            angle = 0.3 if kind is GateKind.RX else None
            gates.append(Gate(kind, (data.draw(st.sampled_from(qubits)),), angle))
    return Circuit(n, tuple(gates))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_walk_matches_per_circuit_depths_and_counts(data):
    n = data.draw(st.integers(1, 5))
    everywhere = list(range(n))
    # The evolution may leave qubits idle, so that the two frontiers never
    # differ by one constant; it is long enough to pass several looks.
    busy = data.draw(st.lists(st.sampled_from(everywhere), min_size=1, unique=True))
    head = _draw_circuit(data, n, everywhere, 8)
    body = _draw_circuit(data, n, sorted(busy), 60)
    tail = _draw_circuit(data, n, everywhere, 8)
    full = concat([head, body, tail])
    total, alone, counts = depths_and_counts(head, body, tail)
    assert total == depth(full) == _reference_depth(full)
    assert alone == depth(body) == _reference_depth(body)
    two = sum(g.arity == 2 for g in full)
    assert counts == gate_counts(full) == GateCounts(len(full) - two, two)


def _draw_step(data, n):
    """A step as the executor plans one: a basis run of two gates or more,
    then a layer of two or more RX, RY and H gates on distinct qubits, all
    on a drawn subset of the register, so the other qubits stay idle."""
    qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    run = []
    for _ in range(data.draw(st.integers(2, 5))):
        kind = data.draw(st.sampled_from([GateKind.CNOT, GateKind.RZ, GateKind.X]))
        if kind is GateKind.CNOT:
            run.append(Gate(kind, tuple(data.draw(st.permutations(qubits))[:2])))
        else:
            angle = 0.2 if kind is GateKind.RZ else None
            run.append(Gate(kind, (data.draw(st.sampled_from(qubits)),), angle))
    layer = [Gate(kind, (q,), None if kind is GateKind.H else 0.1)
             for q in data.draw(st.lists(st.sampled_from(qubits), min_size=2, unique=True))
             for kind in [data.draw(st.sampled_from(
                 [GateKind.RX, GateKind.RY, GateKind.H]))]]
    return run, layer


def _moved(gate, n):
    """``gate`` with its last qubit moved to the next qubit that is not
    its control (a CNOT of a 2-qubit register has no other place)."""
    *rest, last = gate.qubits
    last = (last + 1) % n
    if rest and rest[0] == last:
        last = (last + 1) % n
    return Gate(gate.kind, (*rest, last), gate.angle)


def _repeats(run, layer, count, fresh):
    """``count`` steps of ``run`` + ``layer``; with ``fresh``, each step's
    layer is new gates with new angles, as a compiled circuit's Zeeman
    layer is when its fields change."""
    gates = []
    for r in range(count):
        gates += run
        gates += [Gate(g.kind, g.qubits, None if g.angle is None else g.angle + r)
                  for g in layer] if fresh else layer
    return gates


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stretch_walk_matches_the_gate_by_gate_walk(data):
    n = data.draw(st.integers(2, 6))
    everywhere = list(range(n))
    gates = []
    for _ in range(data.draw(st.integers(1, 4))):
        run, layer = _draw_step(data, n)
        fresh = data.draw(st.booleans())
        gates += _repeats(run, layer, data.draw(st.integers(1, 70)), fresh)
        if data.draw(st.booleans()):
            # A step that breaks the stretch by one qubit, then more steps.
            step = run + layer
            at = data.draw(st.integers(0, len(step) - 1))
            gates += step[:at] + [_moved(step[at], n)] + step[at + 1:]
            gates += _repeats(run, layer, data.draw(st.integers(0, 40)), fresh)
        # Lone gates between stretches.
        gates += _draw_circuit(data, n, everywhere, 2).gates
    body = Circuit(n, tuple(gates))
    head = _draw_circuit(data, n, everywhere, 8)
    tail = _draw_circuit(data, n, everywhere, 8)
    full = concat([head, body, tail])
    total, alone, counts = depths_and_counts(head, body, tail)
    assert (total, alone) == (_reference_depth(full), _reference_depth(body))
    assert depth(body) == alone
    two = sum(g.arity == 2 for g in full)
    assert counts == GateCounts(len(full) - two, two)


@pytest.mark.parametrize("step", [
    [(0, 1), (1, 2), (0,), (1,), (2,)],
    [(0, 1), (0, 1), (0,), (2,)],
], ids=["linked", "never-uniform"])
def test_stretch_walk_matches_however_soon_the_shift_turns_uniform(step):
    """Walked from zero, the linked steps add 3 to every qubit from the
    second step on, and from the head's frontier from the third; the other
    steps add 3 to qubits 0 and 1 and 1 to qubit 2, never one constant."""
    gates = [Gate(GateKind.RX, q, 0.1) if len(q) == 1 else Gate(GateKind.CNOT, q)
             for q in step]
    body = Circuit(3, tuple(gates) * 500)
    head = Circuit(3, (Gate(GateKind.H, (2,)),) * 7)
    # Long enough that the total depth is read off qubit 2.
    tail = Circuit(3, (Gate(GateKind.H, (2,)),) * 2000)
    total, alone, counts = depths_and_counts(head, body, tail)
    assert total == _reference_depth(concat([head, body, tail]))
    assert alone == _reference_depth(body)
    assert counts.two_qubit == 500 * sum(len(q) == 2 for q in step)


def test_depth_walk_skips_the_repeated_steps_of_the_opt_braid(monkeypatch):
    from isingbraid import circuit
    from isingbraid.protocol import LogicalLabel, ProtocolParams, compile_scenario

    run_ = compile_scenario(ProtocolParams(update_mode="linear"), "braid",
                            LogicalLabel.ALL_UP)
    walked = []
    walk_gates = circuit._walk_gates

    def counted(busy, gates):
        walked.append(len(gates))
        return walk_gates(busy, gates)

    monkeypatch.setattr(circuit, "_walk_gates", counted)
    structure = run_.structure()
    assert (structure["depth_total"], structure["depth_evolution_only"]) == (54276, 54273)
    # 138,693 evolution gates; a gate-by-gate walk hands them all over.
    assert 0 < sum(walked) < 2000


@pytest.mark.parametrize("scenario", ["translate_no_coupler", "translate_with_coupler",
                                      "braid"])
@pytest.mark.parametrize("init", ["ALL_UP", "L0"])
def test_depth_walk_hands_each_gate_over_once(monkeypatch, scenario, init):
    # The body is walked onto both frontiers at once. In translate_no_coupler
    # (J_C = 0, no coupler preparation) no gate touches the coupler, and
    # the chains' frontiers shift by different amounts, so frontiers
    # walked apart would never meet: 216,008 gates were handed over there.
    from isingbraid import circuit
    from isingbraid.protocol import LogicalLabel, ProtocolParams, compile_scenario

    run_ = compile_scenario(ProtocolParams(update_mode="linear"), scenario,
                            LogicalLabel(init))
    parts = (run_.init_circuit, run_.evolution_circuit, run_.readout_circuit)
    handed = []
    walk = circuit._walk

    def counted(frontiers, gates, start, stop):
        handed.append(stop - start)
        return walk(frontiers, gates, start, stop)

    monkeypatch.setattr(circuit, "_walk", counted)
    structure = run_.structure()
    assert sum(handed) == sum(map(len, parts))
    assert structure["depth_total"] == _reference_depth(concat(parts))
    assert structure["depth_evolution_only"] == _reference_depth(run_.evolution_circuit)


def test_one_walk_rejects_mismatched_registers():
    with pytest.raises(CircuitError, match="mismatch"):
        depths_and_counts(Circuit(2, ()), Circuit(3, ()), Circuit(3, ()))


def test_gate_counts():
    c = Circuit(
        2,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CNOT, (0, 1)),
            Gate(GateKind.RZ, (1,), 0.3),
        ),
    )
    counts = gate_counts(c)
    assert counts.one_qubit == 2
    assert counts.two_qubit == 1


def test_qasm_format():
    c = Circuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CNOT, (0, 2)),
            Gate(GateKind.RX, (1,), -0.25),
        ),
    )
    text = to_qasm(c)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[3];"
    assert lines[3] == "h q[0];"
    assert lines[4] == "cx q[0],q[2];"
    assert lines[5] == "rx(-0.25) q[1];"
    assert len(lines) == len(c) + len(to_qasm(Circuit(3, ())).splitlines())
    assert text.endswith("\n")


def test_qasm_empty_circuit_is_header_only():
    assert to_qasm(Circuit(2, ())).splitlines() == [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[2];",
    ]

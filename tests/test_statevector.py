import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import isingbraid.statevector as sv
from isingbraid.circuit import Circuit, Gate, GateKind, inverse
from isingbraid.protocol import (
    LogicalLabel,
    ProtocolParams,
    build_protocol_circuit,
    initialization_circuit,
)
from isingbraid.schedule import FieldSchedule, RotateCoupler, SetFields, initial_fields
from isingbraid.statevector import (
    MAX_QUBITS,
    QuantumState,
    SampleCounts,
    apply_gate,
    apply_gate_inplace,
    apply_gates_inplace,
    fidelity,
    gate_matrix,
    index_to_bitstring,
    rotation_matrix,
    run,
    sample,
    zero_state,
)
from isingbraid.trotter import ChainConfig, trotter_step_circuit

from dense_reference import dense_unitary

_SQ2 = 1 / math.sqrt(2)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def _spy_on_basis_maps(monkeypatch):
    """The gate count of every run whose phase map is built from now on."""
    sizes = []
    build = sv._basis_map
    monkeypatch.setattr(sv, "_basis_map",
                        lambda n, gates: sizes.append(len(gates)) or build(n, gates))
    return sizes


def test_rotation_matrices_against_closed_forms():
    # RX(pi) = -iX, RY(pi) = -iY, RZ(t) diagonal phases
    assert np.allclose(
        rotation_matrix(GateKind.RX, math.pi), -1j * np.array([[0, 1], [1, 0]])
    )
    assert np.allclose(
        rotation_matrix(GateKind.RY, math.pi), -1j * np.array([[0, -1j], [1j, 0]])
    )
    t = 0.37
    assert np.allclose(
        rotation_matrix(GateKind.RZ, t),
        np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
    )
    with pytest.raises(ValueError, match="not a rotation"):
        rotation_matrix(GateKind.H, t)


def test_gate_matrices_unitary():
    for kind in GateKind:
        if kind is GateKind.CNOT:
            continue
        angle = 0.713 if kind.value.startswith("r") else None
        m = gate_matrix(Gate(kind, (0,), angle))
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_zero_state_checks_size_before_allocating(monkeypatch):
    import isingbraid.statevector as sv

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register size was checked")

    monkeypatch.setattr(sv.np, "zeros", refuse)
    with pytest.raises(ValueError, match=f"outside \\[1, {MAX_QUBITS}\\].*16 GiB"):
        zero_state(30)


def test_state_validation():
    with pytest.raises(ValueError):
        QuantumState(0, np.array([1.0]))
    with pytest.raises(ValueError):
        QuantumState(MAX_QUBITS + 1, np.zeros(4))
    with pytest.raises(ValueError):
        QuantumState(2, np.zeros(3))
    with pytest.raises(ValueError, match="register mismatch"):
        run(zero_state(2), Circuit(3, ()))
    with pytest.raises(ValueError, match="register mismatch"):
        fidelity(zero_state(2), zero_state(3))


def test_zero_state():
    s = zero_state(3)
    assert s.amplitudes[0] == 1.0
    assert s.norm() == pytest.approx(1.0)


def test_apply_h_gives_plus():
    s = apply_gate(zero_state(1), Gate(GateKind.H, (0,)))
    assert np.allclose(s.amplitudes, [_SQ2, _SQ2])


def test_cnot_truth_table():
    # |10> (qubit 0 = 1) -> |11>
    s = apply_gate(zero_state(2), Gate(GateKind.X, (0,)))
    s = apply_gate(s, Gate(GateKind.CNOT, (0, 1)))
    assert abs(s.amplitudes[0b11]) == pytest.approx(1.0)
    # control = qubit 1: |01...> untouched
    s2 = apply_gate(zero_state(2), Gate(GateKind.X, (0,)))
    s2 = apply_gate(s2, Gate(GateKind.CNOT, (1, 0)))
    assert abs(s2.amplitudes[0b01]) == pytest.approx(1.0)


def test_bell_state(monkeypatch):
    c = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))))
    # The lone CNOT takes its per-gate kernel; no phase map is built.
    sizes = _spy_on_basis_maps(monkeypatch)
    s = run(zero_state(2), c)
    assert np.allclose(s.amplitudes, [_SQ2, 0, 0, _SQ2])
    assert sizes == []


def test_one_qubit_kernel_keeps_its_bits_within_one_state_of_temporaries():
    import tracemalloc

    # The kernel serves lone basis gates of a whole batch, so its
    # temporaries must fit where a basis run's permuted copy would be: the
    # copy of a0 and one product, half the state each. numpy's ufunc buffers
    # for strided halves add a fixed few hundred KiB, an eighth of this state.
    n = 17
    amps = random_state(n, 11).amplitudes
    for q in (0, 5, n - 1):
        view = amps.reshape(-1, 2, 1 << q)
        a0, a1 = view[:, 0], view[:, 1]
        for gate in (Gate(GateKind.RX, (q,), 0.7), Gate(GateKind.X, (q,)),
                     Gate(GateKind.RZ, (q,), -1.3), Gate(GateKind.H, (q,))):
            m = gate_matrix(gate)
            expected = np.stack([m[0, 0] * a0 + m[0, 1] * a1,
                                 m[1, 0] * a0 + m[1, 1] * a1], axis=1)
            out = amps.copy()
            tracemalloc.start()
            try:
                apply_gate_inplace(out, n, gate)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.tobytes() == expected.tobytes(), (q, gate)
            assert peak <= 1.25 * amps.nbytes, (q, gate)


def test_apply_gate_agrees_with_dense_unitary():
    rng = np.random.default_rng(3)
    for kind in GateKind:
        for trial in range(3):
            n = 4
            if kind is GateKind.CNOT:
                q = rng.choice(n, size=2, replace=False)
                gate = Gate(kind, tuple(int(x) for x in q))
            else:
                angle = float(rng.normal()) if kind.value.startswith("r") else None
                gate = Gate(kind, (int(rng.integers(n)),), angle)
            state = random_state(n, 100 * trial + 17)
            via_gate = apply_gate(state, gate)
            u = dense_unitary(Circuit(n, (gate,)))
            assert np.allclose(via_gate.amplitudes, u @ state.amplitudes, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_norm_preserved_property(data):
    n = data.draw(st.integers(1, 4))
    state = random_state(n, data.draw(st.integers(0, 2**16)))
    kinds = [GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.H, GateKind.X,
             GateKind.Z, GateKind.CNOT]
    for _ in range(data.draw(st.integers(0, 10))):
        kind = data.draw(st.sampled_from(kinds))
        if kind is GateKind.CNOT:
            if n == 1:
                continue
            c = data.draw(st.integers(0, n - 1))
            t = data.draw(st.integers(0, n - 1).filter(lambda x: x != c))
            gate = Gate(kind, (c, t))
        else:
            angle = (
                data.draw(st.floats(-10, 10))
                if kind.value.startswith("r")
                else None
            )
            gate = Gate(kind, (data.draw(st.integers(0, n - 1)),), angle)
        state = apply_gate(state, gate)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_run_then_inverse_restores_state():
    rng = np.random.default_rng(11)
    gates = []
    for _ in range(40):
        if rng.random() < 0.3:
            q = rng.choice(4, size=2, replace=False)
            gates.append(Gate(GateKind.CNOT, tuple(int(x) for x in q)))
        else:
            gates.append(Gate(GateKind.RY, (int(rng.integers(4)),), float(rng.normal())))
    c = Circuit(4, tuple(gates))
    s = random_state(4, 5)
    back = run(run(s, c), inverse(c))
    assert fidelity(back, s) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_basics():
    plus = apply_gate(zero_state(1), Gate(GateKind.H, (0,)))
    one = apply_gate(zero_state(1), Gate(GateKind.X, (0,)))
    assert fidelity(zero_state(1), zero_state(1)) == pytest.approx(1.0)
    assert fidelity(zero_state(1), one) == pytest.approx(0.0)
    assert fidelity(plus, zero_state(1)) == pytest.approx(0.5)
    ghz = run(
        zero_state(3),
        Circuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1)),
                    Gate(GateKind.CNOT, (1, 2)))),
    )
    assert fidelity(ghz, zero_state(3)) == pytest.approx(0.5)


def test_index_to_bitstring_qubit0_leftmost():
    assert index_to_bitstring(0b01, 3) == "100"
    assert index_to_bitstring(0b110, 3) == "011"


def test_index_to_bitstring_matches_the_per_bit_form():
    rng = np.random.default_rng(6)
    for n_bits in range(1, MAX_QUBITS + 1):
        top = (1 << n_bits) - 1
        indices = {0, 1, top, top >> 1, 1 << (n_bits - 1)}
        indices.update(rng.integers(0, top, size=50, endpoint=True).tolist())
        for index in sorted(indices):
            bits = "".join("1" if index >> q & 1 else "0" for q in range(n_bits))
            assert index_to_bitstring(index, n_bits) == bits


def test_sample_deterministic_and_normalized():
    s = random_state(3, 9)
    c1 = sample(s, 5000, seed=42)
    c2 = sample(s, 5000, seed=42)
    assert c1 == c2
    assert sum(c1.counts.values()) == 5000
    assert c1.n_bits == 3
    assert sample(s, 5000, seed=43) != c1


def test_sample_keys_ascend_in_basis_order():
    s = random_state(15, 4)
    counts = sample(s, 10_000, seed=5)
    indices = [int(bits[::-1], 2) for bits in counts.counts]
    assert indices == sorted(set(indices))
    assert sum(counts.counts.values()) == 10_000


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        SampleCounts(counts={"00": 3}, shots=4, n_bits=2)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample(zero_state(2), 0, seed=1)


def test_sample_chi_square_goodness_of_fit():
    # frozen-seed chi-square against the Born distribution, p > 0.001
    state = random_state(4, 2024)
    probs = np.abs(state.amplitudes) ** 2
    counts = sample(state, 10_000, seed=7)
    observed = np.zeros(16)
    for bits, c in counts.counts.items():
        idx = sum(1 << q for q, b in enumerate(bits) if b == "1")
        observed[idx] = c
    keep = probs > 1e-12
    _, p_value = stats.chisquare(observed[keep], 10_000 * probs[keep] / probs[keep].sum())
    assert p_value > 0.001


def test_dense_unitary_is_unitary_and_matches_run():
    rng = np.random.default_rng(21)
    gates = tuple(
        Gate(GateKind.RY, (int(rng.integers(3)),), float(rng.normal()))
        for _ in range(10)
    ) + (Gate(GateKind.CNOT, (0, 2)),)
    c = Circuit(3, gates)
    u = dense_unitary(c)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    s = random_state(3, 1)
    assert np.allclose(run(s, c).amplitudes, u @ s.amplitudes, atol=1e-12)


_BASIS = [GateKind.CNOT, GateKind.X, GateKind.Z, GateKind.RZ]
_MIXING = [GateKind.RX, GateKind.RY, GateKind.H]


def _draw_gate(data, n, kinds):
    kind = data.draw(st.sampled_from(kinds))
    if kind is GateKind.CNOT:
        c, t = data.draw(st.permutations(range(n)))[:2]
        return Gate(kind, (c, t))
    angle = data.draw(st.floats(-10, 10)) if kind.value.startswith("r") else None
    return Gate(kind, (data.draw(st.integers(0, n - 1)),), angle)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_runs_match_gate_by_gate(data):
    n = data.draw(st.integers(2, 5))
    basis = _BASIS if data.draw(st.booleans()) else _BASIS[:3]
    gates = []
    for _ in range(data.draw(st.integers(0, 6))):
        gates += [_draw_gate(data, n, basis)
                  for _ in range(data.draw(st.integers(0, 6)))]
        gates += [_draw_gate(data, n, _MIXING)
                  for _ in range(data.draw(st.integers(0, 3)))]
    rows = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**16))
    batch = np.stack([random_state(n, seed + r).amplitudes for r in range(rows)])
    expected = batch.copy()
    for gate in gates:
        apply_gate_inplace(expected.reshape(-1), n, gate)
    single = run(QuantumState(n, batch[0]), Circuit(n, tuple(gates)))
    apply_gates_inplace(batch, n, gates)
    # Mixing gates, fused into a layer or alone, are applied as dense
    # blocks, which round differently from the per-gate kernels.
    if GateKind.RZ in basis or any(g.kind in _MIXING for g in gates):
        assert np.allclose(batch, expected, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(batch, expected)
    # A row's result does not depend on the rows beside it.
    assert np.array_equal(single.amplitudes, batch[0])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_qubit_layers_match_gate_by_gate(data):
    # Registers from the threshold up apply blocks above qubit 0 in real
    # arithmetic inside the S frame.
    n = data.draw(st.integers(1, 9) | st.just(sv._REAL_QUBITS + 1))
    # Any subset of the qubits, gaps and qubit 0 included or not, in any order.
    qubits = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    gates = [_draw_gate(data, n, _MIXING) for _ in qubits]
    gates = [Gate(g.kind, (q,), g.angle) for g, q in zip(gates, qubits)]
    rows = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**16))
    batch = np.stack([random_state(n, seed + r).amplitudes for r in range(rows)])
    expected = batch.copy()
    for gate in gates:
        apply_gate_inplace(expected.reshape(-1), n, gate)
    singles = [run(QuantumState(n, row), Circuit(n, tuple(gates))) for row in batch]
    apply_gates_inplace(batch, n, gates)
    assert np.allclose(batch, expected, rtol=0, atol=1e-12)
    for single, row in zip(singles, batch):
        assert np.array_equal(single.amplitudes, row)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_map_matches_gate_by_gate(data):
    # A CNOT ladder, basis gates, then the ladder undone (a diagonal run
    # when the middle gates are) or more basis gates (a permuting run). The
    # ladders mix the masks of the low and the high half of the register.
    n = data.draw(st.integers(1, 14))
    kinds = _BASIS if n > 1 else _BASIS[1:]
    if not data.draw(st.booleans()):
        kinds = [k for k in kinds if k is not GateKind.RZ]
    ladder = [_draw_gate(data, n, kinds[:1]) for _ in range(data.draw(st.integers(0, 8)))
              if n > 1]
    diagonal_kinds = [k for k in kinds if k in (GateKind.Z, GateKind.RZ)]
    middle = [_draw_gate(data, n, data.draw(st.sampled_from([kinds, diagonal_kinds])))
              for _ in range(data.draw(st.integers(1, 10)))]
    undo = ladder[::-1] if data.draw(st.booleans()) else [
        _draw_gate(data, n, kinds) for _ in range(data.draw(st.integers(0, 4)))]
    gates = ladder + middle + undo
    amps = random_state(n, data.draw(st.integers(0, 2**16))).amplitudes
    expected = amps.copy()
    for gate in gates:
        apply_gate_inplace(expected, n, gate)
    src, phase = sv._basis_map(n, gates)
    mapped = phase * (amps if src is None else amps[src])
    if any(g.kind is GateKind.RZ for g in gates):
        assert np.allclose(mapped, expected, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(mapped, expected)
    # src is None exactly when every basis state stays where it is.
    labels = np.arange(1.0, 1 + (1 << n), dtype=complex)
    for gate in gates:
        apply_gate_inplace(labels, n, gate)
    diagonal = np.allclose(np.abs(labels), np.arange(1, 1 + (1 << n)), rtol=1e-9, atol=0)
    assert (src is None) == diagonal


def test_parities_match_popcount_at_every_half_width():
    # Half of the largest register is 13 qubits wide.
    rng = np.random.default_rng(4)
    for width in range(1, sv.MAX_QUBITS - sv.MAX_QUBITS // 2 + 1):
        masks = np.append(rng.integers(0, 1 << width, size=4), (1 << width) - 1)
        expected = [[bin(int(m) & x).count("1") & 1 for x in range(1 << width)]
                    for m in masks]
        assert np.array_equal(sv._parities(masks, width), expected), width


def test_diagonal_phase_first_commutes_with_frame_bit_for_bit():
    # The executor applies a diagonal inside a held S frame as
    # phase * (a * f) and undoes the frame by * conj(f), f a power of i.
    rng = np.random.default_rng(8)
    a = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    phase = np.exp(1j * rng.uniform(-math.pi, math.pi, size=4096))
    for f in sv._POWERS_OF_I:
        framed = a * f
        np.multiply(phase, framed, out=framed)
        assert np.array_equal(framed * np.conj(f), phase * a)


@pytest.mark.parametrize("n_s", [12, 14])
def test_held_frame_matches_gate_by_gate_and_one_row_runs(monkeypatch, n_s):
    fields = np.linspace(0.2, 1.6, n_s)
    cfg = ChainConfig(n_s // 2, 1.0, 0.3, tuple(fields))
    step = trotter_step_circuit(cfg, 0.4).gates
    # A zero field at a site above the block at qubit 0 makes its RX(0)
    # real; the frame of the register is the same for that step.
    fields[5] = 0.0
    other = trotter_step_circuit(ChainConfig(n_s // 2, 1.0, 0.3, tuple(fields)), 0.4).gates
    n = cfg.n_qubits
    permuting = (Gate(GateKind.CNOT, (1, n - 2)), Gate(GateKind.X, (n - 1,)),
                 Gate(GateKind.RZ, (2,), 0.3))
    lone = (Gate(GateKind.RY, (n // 2,), 0.8),)
    gates = step + step + other + step + permuting + lone + step + step
    # In at the first layer; out before the permuting run; in at the next
    # layer and out at the end of the call.
    assert _frame_passes_of_checked_run(monkeypatch, n, gates, (1, 2, 3)) == 1 + 1 + 2


def test_coupler_rotation_between_steps_stays_in_the_frame(monkeypatch):
    # The braid's coupler RY between Trotter steps is a layer of one gate,
    # applied inside the frame like the steps' Zeeman layers.
    n_s = sv._REAL_QUBITS
    cfg = ChainConfig(n_s // 2, 1.0, 0.3, tuple(np.linspace(0.2, 1.6, n_s)))
    step = trotter_step_circuit(cfg, 0.4).gates
    gates = step + step + (Gate(GateKind.RY, (cfg.chain_len,), 0.7),) + step + step
    # In at the first layer and out at the end of the call.
    assert _frame_passes_of_checked_run(monkeypatch, cfg.n_qubits, gates, (6, 7)) == 2


def _frame_passes_of_checked_run(monkeypatch, n, gates, seeds):
    """Run ``gates`` on a batch of random states, one per seed; check it
    against the per-gate kernels and each row against its one-row run, and
    return how many frame passes the batch run made."""
    batch = np.stack([random_state(n, seed).amplitudes for seed in seeds])
    expected = batch.copy()
    for gate in gates:
        apply_gate_inplace(expected.reshape(-1), n, gate)
    singles = [run(QuantumState(n, row), Circuit(n, gates)) for row in batch]
    passes = []
    multiply = sv._frame_multiply
    monkeypatch.setattr(sv, "_frame_multiply", lambda *a: passes.append(1) or multiply(*a))
    apply_gates_inplace(batch, n, gates)
    assert np.allclose(batch, expected, rtol=0, atol=1e-12)
    for single, row in zip(singles, batch):
        assert np.array_equal(single.amplitudes, row)
    return len(passes)


def test_trotter_step_at_14_sites_matches_gate_by_gate():
    cfg = ChainConfig(7, 1.0, 0.3, tuple(np.linspace(0.1, 1.5, 14)))
    step = trotter_step_circuit(cfg, 0.7)
    state = random_state(cfg.n_qubits, 14)
    expected = state.amplitudes.copy()
    for gate in step:
        apply_gate_inplace(expected, cfg.n_qubits, gate)
    assert np.allclose(run(state, step).amplitudes, expected, rtol=0, atol=1e-12)


def test_cached_frame_is_a_sixteenth_of_the_state():
    # The frame spans the qubits from _BLOCK_QUBITS up: one factor per
    # 2**_BLOCK_QUBITS amplitudes, each way.
    n = sv._REAL_QUBITS + 1
    state = random_state(n, 3)
    sv._frame.cache_clear()
    run(state, Circuit(n, tuple(Gate(GateKind.RX, (q,), 0.3) for q in range(n))))
    assert sv._frame.cache_info().currsize == 1
    columns = sv._frame(n - sv._BLOCK_QUBITS)
    assert sv._frame.cache_info().hits == 1
    for column in columns:
        assert column.shape == (1 << (n - sv._BLOCK_QUBITS), 1)
        assert 16 * column.nbytes <= state.amplitudes.nbytes


def test_failed_check_mid_call_leaves_rows_out_of_frame():
    # Trotter steps leave the rows in the frame; the basis run after them
    # fails its check before it changes a row.
    n_s = sv._REAL_QUBITS
    cfg = ChainConfig(n_s // 2, 1.0, 0.3, tuple(np.linspace(0.2, 1.6, n_s)))
    n = cfg.n_qubits
    step = trotter_step_circuit(cfg, 0.4).gates
    gates = step + step + (Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.X, (n,)))
    # The last Trotter layer ends the part of the call that is applied: the
    # step's trailing basis gates join the failing run.
    cut = max(i for i, g in enumerate(gates) if g.kind in sv._MIXING_KINDS) + 1
    batch = np.stack([random_state(n, seed).amplitudes for seed in (4, 5)])
    expected = batch.copy()
    apply_gates_inplace(expected, n, gates[:cut])
    with pytest.raises(ValueError, match="out of range"):
        apply_gates_inplace(batch, n, gates)
    assert np.array_equal(batch, expected)


def _short_braid(n_s=6):
    """An init layer, three Trotter steps, a coupler RY and two more steps
    of the braid: mixing layers on two qubit sets and a lone RY."""
    p = ProtocolParams(N_s=n_s, dt=0.2, T=0.6, update_mode="linear")
    fields = initial_fields(p)
    sched = FieldSchedule((
        SetFields(fields[:2] + (2.0, 3.0) + fields[4:], p.T),
        RotateCoupler(0.7),
        SetFields(fields, 0.4),
    ))
    init = initialization_circuit(p, LogicalLabel.ALL_UP)
    return p.n_qubits, init.gates + build_protocol_circuit(p, sched).gates


def test_chunk_budget_does_not_change_the_result(monkeypatch):
    # N_s = 12 is a register above the threshold of the real-arithmetic path.
    for n_s in (6, 12):
        _check_chunk_budget(monkeypatch, n_s)


def _check_chunk_budget(monkeypatch, n_s):
    n, gates = _short_braid(n_s)
    batch = np.stack([random_state(n, seed).amplitudes for seed in (5, 6)])
    # All seven layers, the lone RY's included, share one chunk. At N_s = 12
    # their blocks pass the budget, so the final coupler ladder starts a
    # second chunk.
    chunks = list(sv._chunks(gates, n))
    assert [len(layers) for _, layers in chunks] == ([7] if n_s == 6 else [7, 0])
    # The Trotter layers' blocks above qubit 0 are real from the threshold
    # up, complex below. The init layer's H factors and the RY are complex
    # in the frame.
    layers = chunks[0][1]
    real = {}
    for (_, layer), blocks in zip(layers, sv._layer_blocks(layers, n)):
        trotter = all(g.kind is GateKind.RX for g in layer)
        real.setdefault(trotter, set()).update(
            block.dtype == np.float64 for lo, _, block in blocks if lo)
    assert real == {True: {n >= sv._REAL_QUBITS}, False: {False}}
    default = batch.copy()
    apply_gates_inplace(default, n, gates)
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 1)
    # The last chunk holds the final coupler ladder alone.
    layers_per_chunk = [len(layers) for _, layers in sv._chunks(gates, n)]
    assert layers_per_chunk == [1] * 7 + [0]
    one_layer = batch.copy()
    apply_gates_inplace(one_layer, n, gates)
    assert np.array_equal(one_layer, default)
    monkeypatch.undo()
    # A cut at a boundary between two runs gives the same bits; a cut inside
    # a run changes what is fused, and so only the rounding.
    parts = [part for chunk, _ in sv._chunks(gates, n) for part in chunk]
    bounds = np.cumsum([0] + [len(p) for p in parts])
    assert len(bounds) == 15 and bounds[-1] == len(gates)
    for cut in range(len(gates) + 1):
        split = batch.copy()
        apply_gates_inplace(split, n, gates[:cut])
        apply_gates_inplace(split, n, gates[cut:])
        if cut in bounds:
            assert np.array_equal(split, default), (n_s, cut)
        else:
            assert np.allclose(split, default, rtol=0, atol=1e-12), (n_s, cut)


def _runs_gate_by_gate(gates):
    """The runs of ``gates`` as ``_chunks`` defines them, each found by
    testing the kind of every gate in it; a basis run of one gate is the
    gate itself."""
    runs, i = [], 0
    while i < len(gates):
        j = i + 1
        if gates[i].kind in sv._BASIS_KINDS:
            while j < len(gates) and gates[j].kind in sv._BASIS_KINDS:
                j += 1
        else:
            seen = {gates[i].qubits[0]}
            while (j < len(gates) and gates[j].kind in sv._MIXING_KINDS
                   and gates[j].qubits[0] not in seen):
                seen.add(gates[j].qubits[0])
                j += 1
        if gates[i].kind in sv._MIXING_KINDS:
            runs.append(sorted(gates[i:j], key=lambda g: g.qubits))
        elif j - i == 1:
            runs.append(gates[i])
        else:
            runs.append(tuple(gates[i:j]))
        i = j
    return runs


def _planned_runs(gates, n):
    return [run for chunk, _ in sv._chunks(gates, n) for run in chunk]


def test_repeated_basis_runs_are_planned_as_the_same_run():
    n, gates = _short_braid()
    runs = _planned_runs(gates, n)
    assert runs == _runs_gate_by_gate(gates)
    basis = [run for run in runs if type(run) is tuple]
    repeats = [(a, b) for a, b in zip(basis, basis[1:]) if a == b]
    assert repeats and all(a is b for a, b in repeats)
    assert _planned_runs(list(gates), n) == runs


def _gates_of_pieces(pieces):
    """Three-qubit gates from pieces: a basis run that comes back, alone or
    followed by more basis gates, a layer, and lone gates of either kind."""
    g = Gate
    ladder = (g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.3),
              g(GateKind.CNOT, (0, 1)))
    layer = (g(GateKind.RX, (0,), 0.2), g(GateKind.RY, (2,), 0.5),
             g(GateKind.H, (1,)))
    parts = [ladder, ladder, layer, (g(GateKind.X, (2,)),),
             (g(GateKind.RX, (1,), -0.4),), ladder[:2]]
    return tuple(gate for k in pieces for gate in parts[k])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=16))
def test_plan_of_repeated_pieces_matches_gate_by_gate(pieces):
    gates = _gates_of_pieces(pieces)
    assert _planned_runs(gates, 3) == _runs_gate_by_gate(gates)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=16), st.data())
def test_errors_cut_the_plan_into_the_runs_of_their_stretches(pieces, data):
    gates = _gates_of_pieces(pieces)
    after = sorted(data.draw(st.lists(st.integers(0, len(gates) - 1), max_size=6)))
    # The rows an error hits are not looked at by the plan.
    errors = [(i, Gate(GateKind.X, (0,)), k) for k, i in enumerate(after)]
    plan = [run for chunk, _ in sv._chunks(gates, 3, errors) for run in chunk]
    expected, start = [], 0
    for index in sorted(set(after)):
        expected += _runs_gate_by_gate(gates[start:index + 1])
        expected += [e for e in errors if e[0] == index]
        start = index + 1
    expected += _runs_gate_by_gate(gates[start:])
    assert plan == expected
    assert [type(run) for run in plan].count(sv._Error) == len(errors)
    # Every piece of a basis run that an error cuts sits next to the error;
    # pieces and basis runs have two gates or more, a lone gate is itself.
    for k, run in enumerate(plan):
        if type(run) is sv._Piece:
            assert sv._Error in {type(r) for r in plan[k - 1:k] + plan[k + 1:k + 2]}
        assert type(run) not in (tuple, sv._Piece) or len(run) > 1


@pytest.mark.parametrize("n", [2, 5, sv._REAL_QUBITS])
def test_lone_basis_gates_take_the_per_gate_kernel(monkeypatch, n):
    # A lone CNOT, X, Z and RZ, each between two layers, then a CNOT and X
    # run that an error cuts into two lone gates.
    layer = tuple(Gate(GateKind.RY, (q,), 0.3 + 0.2 * q) for q in range(n))
    lone = (Gate(GateKind.CNOT, (0, n - 1)), Gate(GateKind.X, (1,)),
            Gate(GateKind.Z, (n - 1,)), Gate(GateKind.RZ, (0,), 0.7))
    gates = layer + sum(((gate,) + layer for gate in lone), ())
    errors = [(len(gates), Gate(GateKind.Z, (1,)), [0, 2])]
    gates += lone[:2] + layer
    batch = np.stack([random_state(n, seed).amplitudes for seed in (1, 2, 3)])
    expected = batch.copy()
    for k, gate in enumerate(gates):
        apply_gate_inplace(expected.reshape(-1), n, gate)
        for index, error, hit in errors:
            if index == k:
                for row in hit:
                    apply_gate_inplace(expected[row], n, error)
    singles = []
    for r, row in enumerate(batch):
        single = row.copy().reshape(1, -1)
        apply_gates_inplace(single, n, gates,
                            [(i, e, [0]) for i, e, hit in errors if r in hit])
        singles.append(single[0])
    sizes = _spy_on_basis_maps(monkeypatch)
    apply_gates_inplace(batch, n, gates, errors)
    assert sizes == []
    assert np.allclose(batch, expected, rtol=0, atol=1e-12)
    for single, row in zip(singles, batch):
        assert np.array_equal(single, row)


def test_chunk_of_mixed_layers_matches_gate_by_gate():
    n, gates = _short_braid()
    # One more layer whose blocks leave qubits of their span untouched.
    gates += (Gate(GateKind.H, (0,)), Gate(GateKind.RY, (2,), 0.4),
              Gate(GateKind.RX, (6,), -1.1))
    [(_, layers)] = sv._chunks(gates, n)
    # The init layer, the Trotter layers, the lone RY and the new layer.
    assert len({qubits for qubits, _ in layers}) == 4
    state = random_state(n, 7)
    expected = state.amplitudes.copy()
    for gate in gates:
        apply_gate_inplace(expected, n, gate)
    assert np.allclose(run(state, Circuit(n, gates)).amplitudes, expected,
                       rtol=0, atol=1e-12)


def _assert_rejected_before_any_row_changes(gates):
    rows = random_state(2, 3).amplitudes.reshape(1, -1)
    before = rows.copy()
    with pytest.raises(ValueError, match="out of range"):
        apply_gates_inplace(rows, 2, gates)
    assert np.array_equal(rows, before)


def test_out_of_range_gate_in_basis_run_raises():
    _assert_rejected_before_any_row_changes(
        [Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.X, (2,)),
         Gate(GateKind.Z, (0,))]
    )


def test_errors_past_the_last_gate_or_out_of_gate_order_raise():
    gates = [Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))]
    z = Gate(GateKind.Z, (0,))
    for errors, match in (([(2, z, [0])], "gate 2, past the last of 2 gates"),
                          ([(1, z, [0]), (0, z, [0])], "gate 0 out of gate order"),
                          ([(-1, z, [0])], "gate -1 out of gate order")):
        rows = zero_state(2).amplitudes.reshape(1, -1).copy()
        with pytest.raises(ValueError, match=match):
            apply_gates_inplace(rows, 2, gates, errors)


def test_out_of_range_gate_in_mixing_layer_raises():
    _assert_rejected_before_any_row_changes(
        [Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RY, (2,), 0.2),
         Gate(GateKind.H, (1,))]
    )

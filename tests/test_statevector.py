import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import isingbraid.circuit as ir
import isingbraid.statevector as sv
from isingbraid.circuit import Circuit, Gate, GateKind, inverse
from isingbraid.noise import NoiseModel, draw_errors
from isingbraid.protocol import (
    LogicalLabel,
    ProtocolParams,
    build_protocol_circuit,
    compile_scenario,
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
    """The gate count of every run whose phase map is built from now on,
    with no piece map kept from before."""
    sv._PIECE_MAPS.clear()
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


def test_executor_batches_start_on_a_cache_line(monkeypatch):
    # The batch that run and run_trajectories evolve and the scratch buffer
    # beside it start on a cache line, wherever malloc would place them.
    from isingbraid.noise import NoiseModel, run_trajectories

    n = 7
    gates = tuple(Gate(GateKind.RX, (q,), 0.1 * q + 0.3) for q in range(n)) * 2
    scratch = []
    views = sv._Views.__init__

    def recorded(self, rows):
        views(self, rows)
        scratch.append(self.scratch)

    monkeypatch.setattr(sv._Views, "__init__", recorded)
    state = random_state(n, 2)
    for _ in range(4):
        out = run(state, Circuit(n, gates))
        rows = run_trajectories(Circuit(n, gates), state, NoiseModel(), 3,
                                np.random.default_rng(1))
        assert out.amplitudes.ctypes.data % sv._ALIGN == 0
        assert rows.ctypes.data % sv._ALIGN == 0 and rows.shape == (3, 1 << n)
        assert rows.flags.c_contiguous and rows.dtype == complex
        assert np.array_equal(rows[0], out.amplitudes)
    assert len(scratch) == 8
    assert all(s.ctypes.data % sv._ALIGN == 0 for s in scratch)


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


def test_counts_that_are_not_integers_are_rejected():
    with pytest.raises(ValueError, match="register size must be an integer"):
        zero_state(2.0)
    with pytest.raises(ValueError, match="shots must be an integer"):
        sample(zero_state(2), 2.5, 1)


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


def test_coupler_rotation_between_steps_leaves_the_frame(monkeypatch):
    # The braid's coupler RY between Trotter steps is a lone gate: it takes
    # its per-gate kernel out of the frame, as a lone basis gate does.
    n_s = sv._REAL_QUBITS
    cfg = ChainConfig(n_s // 2, 1.0, 0.3, tuple(np.linspace(0.2, 1.6, n_s)))
    step = trotter_step_circuit(cfg, 0.4).gates
    gates = step + step + (Gate(GateKind.RY, (cfg.chain_len,), 0.7),) + step + step
    # In at the first layer, out before the RY, in at the next layer and
    # out at the end of the call.
    assert _frame_passes_of_checked_run(monkeypatch, cfg.n_qubits, gates, (6, 7)) == 4


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
    cut = max(i for i, g in enumerate(gates) if g.kind in ir._MIXING_KINDS) + 1
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


def test_piece_budget_does_not_change_the_result(monkeypatch):
    # N_s = 12 is a register above the threshold of the real-arithmetic path.
    for n_s in (6, 12):
        _check_piece_budget(monkeypatch, n_s)


def _check_piece_budget(monkeypatch, n_s):
    n, gates = _short_braid(n_s)
    batch = np.stack([random_state(n, seed).amplitudes for seed in (5, 6)])
    # The init layer alone, then the Trotter layers: the first step's,
    # whose basis run is the step's leading gates alone, a stretch of the
    # next two, and after the lone coupler RY two steps whose basis runs
    # differ.
    built = _built_layers(gates, n)
    assert [len(angles[0]) for _, _, angles, _ in built] == [1, 1, 2, 1, 1]
    # The Trotter layers' blocks above qubit 0 are real from the threshold
    # up, complex below. The init layer's H factors are complex in the
    # frame.
    real = {}
    for _, kinds, _, steps in built:
        trotter = all(kind is GateKind.RX for kind in kinds)
        real.setdefault(trotter, set()).update(
            block.dtype == np.float64 for step in steps for (lo, _, _), block in step
            if lo)
    assert real == {True: {n >= sv._REAL_QUBITS}, False: {False}}
    default = batch.copy()
    apply_gates_inplace(default, n, gates)
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 1)
    # Each piece holds one layer.
    assert [len(angles[0]) for _, _, angles, _ in _built_layers(gates, n)] == [1] * 6
    one_layer = batch.copy()
    apply_gates_inplace(one_layer, n, gates)
    assert np.array_equal(one_layer, default)
    monkeypatch.undo()
    # A cut at a boundary between two runs gives the same bits; a cut inside
    # a run changes what is fused, and so only the rounding.
    runs = _planned_runs(gates, n)
    bounds = np.cumsum([0] + [1 if type(r) is Gate else len(r) for r in runs])
    assert len(bounds) == 15 and bounds[-1] == len(gates)
    for cut in range(len(gates) + 1):
        split = batch.copy()
        apply_gates_inplace(split, n, gates[:cut])
        apply_gates_inplace(split, n, gates[cut:])
        if cut in bounds:
            assert np.array_equal(split, default), (n_s, cut)
        else:
            assert np.allclose(split, default, rtol=0, atol=1e-12), (n_s, cut)


def _built_layers(gates, n):
    """The layers whose blocks ``_runs`` builds for ``gates``, in order, a
    lone layer or a piece of a stretch at a time, each as the arguments of
    its ``_layer_blocks`` call and the blocks of each of its layers, a
    list of (key, block) per layer: (qubits, kinds, angles of each qubit in
    each layer, blocks of each layer)."""
    built = []
    build = sv._layer_blocks

    def spy(qubits, kinds, angles, n_qubits):
        blocks = build(qubits, kinds, angles, n_qubits)
        layers = [[(key, stack[t]) for key, stack in blocks]
                  for t in range(angles.shape[1])]
        built.append((qubits, kinds, angles, layers))
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sv, "_layer_blocks", spy)
        for _ in sv._runs(gates, n):
            pass
    return built


def _runs_gate_by_gate(gates):
    """The runs of ``gates`` as the executor plans them, each found by
    testing the kind of every gate in it; a run of one gate is the gate
    itself."""
    runs, i = [], 0
    while i < len(gates):
        j = i + 1
        if gates[i].kind in ir._BASIS_KINDS:
            while j < len(gates) and gates[j].kind in ir._BASIS_KINDS:
                j += 1
        else:
            seen = {gates[i].qubits[0]}
            while (j < len(gates) and gates[j].kind in ir._MIXING_KINDS
                   and gates[j].qubits[0] not in seen):
                seen.add(gates[j].qubits[0])
                j += 1
        if j - i == 1:
            runs.append(gates[i])
        elif gates[i].kind in ir._MIXING_KINDS:
            runs.append(sorted(gates[i:j], key=lambda g: g.qubits))
        else:
            runs.append(tuple(gates[i:j]))
        i = j
    return runs


def _planned_runs(gates, n):
    """The runs ``_runs`` plans for ``gates``, each piece of repeated steps
    as the runs of its steps: a basis run as the tuple it is given as, a
    layer as the list of its gates sorted by qubit and a lone gate as
    itself."""
    runs, start = [], 0
    for steps, size, period, part, _, blocks in sv._runs(gates, n):
        for _ in range(steps):
            if part is not None:
                runs.append(part)
            if blocks:
                runs.append(sorted(gates[start + size:start + period],
                                   key=lambda g: g.qubits))
            start += period
    return runs


def test_repeated_basis_runs_are_planned_as_the_same_run():
    n, gates = _short_braid()
    runs = _planned_runs(gates, n)
    assert runs == _runs_gate_by_gate(gates)
    basis = [run for run in runs if type(run) is tuple]
    repeats = [(a, b) for a, b in zip(basis, basis[1:]) if a == b]
    assert repeats and all(a is b for a, b in repeats)
    assert _planned_runs(list(gates), n) == runs


def test_executor_builds_a_map_per_run_that_differs_from_the_last(monkeypatch):
    # The OPT braid repeats its step runs hold after hold: the executor
    # reuses a map by the identity of the planned run, as often as a
    # comparison of the gates would.
    p = ProtocolParams(update_mode="linear")
    circuit = compile_scenario(p, "braid", LogicalLabel.ALL_UP).prepared_circuit
    basis = [r for r in _planned_runs(circuit.gates, p.n_qubits) if type(r) is tuple]
    changes = sum(a != b for a, b in zip([()] + basis, basis))
    built = []
    basis_map = sv._basis_map
    monkeypatch.setattr(sv, "_basis_map", lambda *a: built.append(a[1]) or basis_map(*a))
    run(zero_state(p.n_qubits), circuit)
    assert len(built) == changes < len(basis) // 2


def _braid(n_s, update_mode, **kw):
    p = ProtocolParams(N_s=n_s, update_mode=update_mode, **kw)
    return compile_scenario(p, "braid", LogicalLabel.ALL_UP).prepared_circuit


def _eff_braid(n_s, update_mode):
    return _braid(n_s, update_mode, dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)


def test_linear_braid_is_planned_in_hundreds_of_parts_not_a_part_per_run():
    # Repeated Trotter steps are found a stretch at a time and built a
    # piece of a stretch at a time: a change that falls back to planning
    # them run by run fails here. Nearly all of the 6,030 steps lie in
    # stretches.
    gates = _braid(6, "linear").gates
    found = list(ir._steps(gates, 0, len(gates)))
    assert sum(steps for *_, steps in found) > 6000
    assert len(found) < 100 < len(_built_layers(gates, 7)) < 1000
    assert 10_000 < len(_runs_gate_by_gate(gates))
    # Equal gates that are other objects repeat a step as well.
    fresh = tuple(Gate(g.kind, g.qubits, g.angle) for g in gates)
    assert list(ir._steps(fresh, 0, len(fresh))) == found


def test_linear_braid_plan_yields_a_piece_not_a_step_at_a_time():
    # The executor takes a piece of steps as one item: a plan that falls
    # back to yielding each step, or each run, of the 6,030 fails here.
    gates = _braid(6, "linear").gates
    pieces = list(sv._runs(gates, 7))
    assert sum(piece[0] for piece in pieces if piece[3] is not None and piece[5]) > 6000
    assert len(pieces) < 1000


def test_executor_and_depth_walk_share_one_step_finder(monkeypatch):
    # Both find the linear OPT braid's repeated steps by ``circuit._steps``,
    # so one run probes ``_repeated_steps`` about as often as one depth
    # walk does, not once per budget of blocks.
    scenario = compile_scenario(ProtocolParams(update_mode="linear"), "braid",
                                LogicalLabel.ALL_UP)
    calls = []
    probe = ir._repeated_steps
    monkeypatch.setattr(ir, "_repeated_steps", lambda *a: calls.append(a) or probe(*a))
    run(zero_state(7), scenario.prepared_circuit)
    ran = len(calls)
    scenario.structure()
    walked = len(calls) - ran
    assert 0 < ran < 100 and abs(ran - walked) <= 5, (ran, walked)


def _run_by_run(gates, n, batch, errors=()):
    """The per-gate reference: the runs of ``gates`` found gate by gate
    (``_runs_gate_by_gate``), each applied to ``batch`` by its own
    ``apply_gates_inplace`` call with the errors on its gates, so that no
    step, piece or stretch is planned across two runs."""
    start = 0
    for run_ in _runs_gate_by_gate(gates):
        stop = start + (1 if type(run_) is Gate else len(run_))
        own = [(i - start, e, hit) for i, e, hit in errors if start <= i < stop]
        apply_gates_inplace(batch, n, gates[start:stop], own)
        start = stop


def _assert_stretches_change_no_bit(circuit, rows=3, eps=0.0, errors=None):
    """Run ``circuit`` as planned, run by run (``_run_by_run``) and with no
    repeated step found, every step planned alone, on the same batch of
    random states and with the same errors: ``errors``, or else the ones
    drawn at ``eps`` (none for 0). Check the three batches are equal bit
    for bit, and each row to its one-row run with its own errors. The
    planner also forms stretches of equal gates that are other objects, so
    the ones of a rebuild from new ``Gate`` objects change no bit either."""
    n, gates = circuit.n_qubits, circuit.gates
    fresh = tuple(Gate(g.kind, g.qubits, g.angle) for g in gates)
    if errors is None:
        errors = []
        if eps:
            model = NoiseModel(eps_bitflip=eps, eps_phase=eps)
            errors = list(draw_errors(circuit, model, rows, np.random.default_rng(3)))
            assert errors
    batch = np.stack([random_state(n, seed).amplitudes for seed in range(rows)])
    planned, rebuilt, by_run = batch.copy(), batch.copy(), batch.copy()
    apply_gates_inplace(planned, n, gates, errors)
    apply_gates_inplace(rebuilt, n, fresh, errors)
    _run_by_run(gates, n, by_run, errors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ir, "_repeated_steps", lambda *a: 0)
        assert all(steps <= 1 for *_, steps in ir._steps(gates, 0, len(gates)))
        apply_gates_inplace(batch, n, gates, errors)
    assert planned.tobytes() == batch.tobytes() == rebuilt.tobytes() == by_run.tobytes()
    for r in range(rows if errors else 0):
        single = batch[r:r + 1].copy()
        single[0] = random_state(n, r).amplitudes
        apply_gates_inplace(single, n, gates,
                            [(i, e, [0]) for i, e, hit in errors if r in hit])
        assert single[0].tobytes() == planned[r].tobytes(), r


@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_stretches_change_no_bit_of_the_linear_opt_braid(eps):
    circuit = _braid(6, "linear")
    assert any(steps > 1 for *_, steps in ir._steps(circuit.gates, 0, len(circuit)))
    _assert_stretches_change_no_bit(circuit, eps=eps)


def test_stretches_change_no_bit_of_the_stepped_opt_braid():
    _assert_stretches_change_no_bit(_braid(6, "stepped"))


# N_s = 12 and 14 run their layers in the S frame.
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_stretches_change_no_bit_of_the_stepped_eff_braid_in_the_frame(eps):
    circuit = _eff_braid(12, "stepped")
    assert circuit.n_qubits >= sv._REAL_QUBITS
    _assert_stretches_change_no_bit(circuit, rows=2, eps=eps)


@pytest.mark.parametrize("n_s, update_mode", [(12, "linear"), (14, "stepped")])
def test_stretches_change_no_bit_of_the_eff_braid_in_the_frame(n_s, update_mode):
    _assert_stretches_change_no_bit(_eff_braid(n_s, update_mode), rows=2)


def test_errors_inside_pieces_change_no_bit(monkeypatch):
    # Errors on the first step of a piece, on a middle step's basis run and
    # its layer, on the piece's last layer and on a lone basis run, a row
    # each, and all of them on one more row: the piece loop stops after
    # each error's run, takes the error and goes on from the next half of
    # the piece.
    circuit = _eff_braid(6, "linear")
    gates, n = circuit.gates, circuit.n_qubits
    at, spans = 0, []
    for piece in sv._runs(gates, n):
        spans.append((at, piece))
        at += piece[0] * piece[2]
    start, (steps, size, period, *_) = next(
        (at, piece) for at, piece in spans if piece[0] > 2 and piece[1])
    lone = next(at for at, piece in spans if piece[0] == 1 and piece[1] > 1)
    middle = start + steps // 2 * period
    last = start + steps * period - 1
    # (gate index, kind); each error lies on the last qubit of its gate.
    places = [(start + size, GateKind.X), (middle + 1, GateKind.X),
              (middle + size + 1, GateKind.Z), (last, GateKind.Z), (lone, GateKind.X)]
    rows = len(places) + 1
    errors = sorted((k, Gate(kind, gates[k].qubits[-1:]), [r, rows - 1])
                    for r, (k, kind) in enumerate(places))
    halves = []
    apply_piece = sv._apply_piece

    def spy(views, n_qubits, piece, first, last, frame, inside):
        halves.append((first, last, 2 * piece[0]))
        return apply_piece(views, n_qubits, piece, first, last, frame, inside)

    monkeypatch.setattr(sv, "_apply_piece", spy)
    _assert_stretches_change_no_bit(circuit, rows=rows, errors=errors)
    monkeypatch.undo()
    # The planned run stopped inside a piece after a basis run and after a
    # layer, and went on from the half after each.
    planned = halves[:len(spans) + len(places)]
    assert any(last % 2 and last < whole for first, last, whole in planned)
    assert any(first % 2 for first, last, whole in planned)
    assert any(0 < last < whole and not last % 2 for first, last, whole in planned)


def test_coupler_rotation_cuts_a_stretch_without_changing_a_bit():
    cfg = ChainConfig(3, 1.0, 0.3, tuple(np.linspace(0.2, 1.6, 6)))
    step = trotter_step_circuit(cfg, 0.4).gates
    rotation = (Gate(GateKind.RY, (cfg.chain_len,), 0.7),)
    circuit = Circuit(7, step * 5 + rotation + step * 5)
    found = list(ir._steps(circuit.gates, 0, len(circuit)))
    # A stretch, the rotation's coupler run and the lone RY, then the
    # steps after it start a stretch of their own.
    at = [i for i, *_ in found].index(len(step) * 5)
    assert found[at][1] - found[at][0] == 1
    assert found[at - 2][3] > 1 and found[at - 1][3] == 0
    assert found[-2][3] > 1
    for eps in (0.0, 0.05):
        _assert_stretches_change_no_bit(circuit, eps=eps)


def test_stretch_ends_before_a_last_layer_that_a_later_gate_widens():
    # Steps of a CNOT-RZ-CNOT ladder and an RY-RX layer on qubits 1 and 0;
    # an H on qubit 2 after the last step joins its layer, so that step is
    # found alone, with a layer of three gates.
    g = Gate
    ladder = (g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.3),
              g(GateKind.CNOT, (0, 1)))
    steps = sum((ladder + (g(GateKind.RY, (1,), 0.1 * k), g(GateKind.RX, (0,), -0.2 * k))
                 for k in range(1, 7)), ())
    gates = steps + (g(GateKind.H, (2,)),)
    found = list(ir._steps(gates, 0, len(gates)))
    assert [steps for *_, steps in found] == [5, 1]
    assert found[-1][2] - found[-1][1] == 3
    assert _planned_runs(gates, 3) == _runs_gate_by_gate(gates)
    state = random_state(3, 2)
    expected = state.amplitudes.copy()
    for gate in gates:
        apply_gate_inplace(expected, 3, gate)
    assert np.allclose(run(state, Circuit(3, gates)).amplitudes, expected,
                       rtol=0, atol=1e-12)
    _assert_stretches_change_no_bit(Circuit(3, gates))


@pytest.mark.parametrize("change", ["run_angle", "layer_kind", "layer_qubit",
                                    "layer_basis_gate"])
def test_stretch_ends_at_a_step_whose_run_or_layer_differs(change):
    # Steps of one ladder and a layer, the ladder's CNOTs the same objects
    # throughout; from the fourth step on, one thing differs. The finder
    # checks a layer by its qubits, so a change of kind ends a piece of the
    # stretch, not the stretch; an RZ in the layer joins the ladder, and
    # the runs from its step on are found anew.
    g = Gate
    cx = g(GateKind.CNOT, (0, 1))
    ladder = (cx, g(GateKind.RZ, (1,), 0.3), cx)
    other = ladder
    if change == "run_angle":
        other = (cx, g(GateKind.RZ, (1,), 0.5), cx)
    kind = {"layer_kind": GateKind.RX, "layer_basis_gate": GateKind.RZ}.get(
        change, GateKind.RY)
    qubit = 2 if change == "layer_qubit" else 1

    def step(k, run, kind=GateKind.RY, qubit=1):
        return run + (g(kind, (qubit,), 0.1 * k), g(GateKind.RX, (0,), -0.2 * k))

    gates = (sum((step(k, ladder) for k in range(1, 4)), ())
             + sum((step(k, other, kind, qubit) for k in range(4, 7)), ()))
    same_qubits = change in ("layer_kind", "layer_basis_gate")
    assert ([steps for *_, steps in ir._steps(gates, 0, len(gates))]
            == ([6] if same_qubits else [3, 3]))
    assert ([len(angles[0]) for _, _, angles, _ in _built_layers(gates, 3)]
            == ([3] if change == "layer_basis_gate" else [3, 3]))
    assert _planned_runs(gates, 3) == _runs_gate_by_gate(gates)
    state = random_state(3, 5)
    expected = state.amplitudes.copy()
    for gate in gates:
        apply_gate_inplace(expected, 3, gate)
    assert np.allclose(run(state, Circuit(3, gates)).amplitudes, expected,
                       rtol=0, atol=1e-12)
    _assert_stretches_change_no_bit(Circuit(3, gates))


def test_stretch_of_real_and_complex_layers_in_the_frame_changes_no_bit():
    # RY layers in the S frame, every other one at angle zero: an RY block
    # is complex whatever its angles, so every step of the stretch is.
    n = sv._REAL_QUBITS
    g = Gate
    ladder = (g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.3),
              g(GateKind.CNOT, (0, 1)))
    gates = sum((ladder + tuple(g(GateKind.RY, (q,), 0.0 if k % 2 else 0.2 * k + 0.1 * q)
                                for q in range(n)) for k in range(6)), ())
    [(_, _, angles, steps)] = _built_layers(gates, n)
    assert len(angles[0]) == 6
    real = [[block.dtype == np.float64 for (lo, _, _), block in step if lo]
            for step in steps]
    assert real == [[False, False]] * 6
    state = random_state(n, 3)
    expected = state.amplitudes.copy()
    for gate in gates:
        apply_gate_inplace(expected, n, gate)
    assert np.allclose(run(state, Circuit(n, gates)).amplitudes, expected,
                       rtol=0, atol=1e-12)
    _assert_stretches_change_no_bit(Circuit(n, gates))


@pytest.mark.parametrize("eps", [0.0, 5e-2])
def test_stretch_with_a_permuting_run_in_the_frame_changes_no_bit(eps):
    # An X in each step's basis run makes it a permutation: in the S frame
    # the rows leave the frame for it and enter it again before the layer,
    # in every turn of the piece loop, and errors cut the pieces into
    # halves.
    n = sv._REAL_QUBITS
    g = Gate
    run_ = (g(GateKind.CNOT, (0, 5)), g(GateKind.X, (7,)), g(GateKind.RZ, (5,), 0.3),
            g(GateKind.CNOT, (0, 5)))
    gates = sum((run_ + tuple(g(GateKind.RX, (q,), 0.2 * k + 0.1 * q) for q in range(n))
                 for k in range(12)), ())
    assert [steps for *_, steps in ir._steps(gates, 0, len(gates))] == [12]
    state = random_state(n, 3)
    expected = state.amplitudes.copy()
    for gate in gates:
        apply_gate_inplace(expected, n, gate)
    assert np.allclose(run(state, Circuit(n, gates)).amplitudes, expected,
                       rtol=0, atol=1e-12)
    _assert_stretches_change_no_bit(Circuit(n, gates), eps=eps)


def test_piece_budget_cuts_a_stretch_without_changing_a_bit(monkeypatch):
    circuit = _braid(6, "linear", T=0.6)
    gates = circuit.gates
    expected = random_state(7, 4).amplitudes.reshape(1, -1).copy()
    apply_gates_inplace(expected, 7, gates)
    # Three layers' blocks and a byte: a piece takes at most four steps of
    # a stretch, and the stretch goes on in the next piece.
    layer_bytes = sv._block_plan((0, 1, 2, 4, 5, 6), 7)[1]
    monkeypatch.setattr(sv, "_BLOCK_BYTES", 3 * layer_bytes + 1)
    pieces = [len(angles[0]) for _, _, angles, _ in _built_layers(gates, 7)]
    assert max(pieces) == 4 and len(pieces) > 10
    assert _planned_runs(gates, 7) == _runs_gate_by_gate(gates)
    _assert_stretches_change_no_bit(circuit)
    cut = random_state(7, 4).amplitudes.reshape(1, -1).copy()
    apply_gates_inplace(cut, 7, gates)
    assert cut.tobytes() == expected.tobytes()


def _gates_of_pieces(pieces):
    """Three-qubit gates from pieces: a basis run that comes back, alone or
    followed by more basis gates, a layer, lone gates of either kind, and
    the basis run followed by the layer's qubits with other kinds: an RY
    for the RX, which ends a piece of a stretch, or an RZ, which joins the
    basis run."""
    g = Gate
    ladder = (g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.3),
              g(GateKind.CNOT, (0, 1)))
    layer = (g(GateKind.RX, (0,), 0.2), g(GateKind.RY, (2,), 0.5),
             g(GateKind.H, (1,)))
    parts = [ladder, ladder, layer, (g(GateKind.X, (2,)),),
             (g(GateKind.RX, (1,), -0.4),), ladder[:2],
             ladder + (g(GateKind.RY, (0,), 0.2),) + layer[1:],
             ladder + (g(GateKind.RZ, (0,), 0.2),) + layer[1:]]
    return tuple(gate for k in pieces for gate in parts[k])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=16))
def test_plan_of_repeated_pieces_matches_gate_by_gate(pieces):
    gates = _gates_of_pieces(pieces)
    assert _planned_runs(gates, 3) == _runs_gate_by_gate(gates)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=16), st.data())
def test_each_row_equals_its_one_row_run_and_the_gate_level_reference(pieces, data):
    gates = _gates_of_pieces(pieces)
    rows = 4
    after = sorted(data.draw(st.lists(st.integers(0, len(gates) - 1), max_size=6)))
    # Each error on a qubit of its own gate, as the noise model draws them.
    errors = [(i, Gate(data.draw(st.sampled_from([GateKind.X, GateKind.Z])),
                       (data.draw(st.sampled_from(gates[i].qubits)),)),
               data.draw(st.lists(st.integers(0, rows - 1), min_size=1,
                                  max_size=rows, unique=True).map(sorted)))
              for i in after]
    batch = np.stack([random_state(3, seed).amplitudes for seed in range(rows)])
    # Rows that start equal to row 0 share it until their first error.
    shared = data.draw(st.lists(st.booleans(), min_size=rows - 1, max_size=rows - 1))
    batch[1:][shared] = batch[0]
    expected = batch.copy()
    for k, gate in enumerate(gates):
        apply_gate_inplace(expected.reshape(-1), 3, gate)
        for index, error, hit in errors:
            if index == k:
                for r in hit:
                    apply_gate_inplace(expected[r], 3, error)
    own = []
    for r, row in enumerate(batch):
        single = row.copy().reshape(1, -1)
        apply_gates_inplace(single, 3, gates,
                            [(i, e, [0]) for i, e, hit in errors if r in hit])
        own.append(single[0])
    apply_gates_inplace(batch, 3, gates, errors)
    # Each row has the bits of its own errors run alone.
    for r in range(rows):
        assert batch[r].tobytes() == own[r].tobytes()
    assert np.allclose(batch, expected, rtol=0, atol=1e-12)


def _batch(n, start, rows=4):
    """``rows`` rows of random states: all a copy of row 0 (``shared``),
    all but row 2 a copy of it (``mixed``), or each its own (``distinct``)."""
    batch = np.stack([random_state(n, seed).amplitudes for seed in range(rows)])
    copies = {"shared": range(1, rows), "mixed": [1, 3], "distinct": []}[start]
    batch[list(copies)] = batch[0]
    return batch


# The errors on ``_gates_of_pieces([2, 0, 2, 0, 2, 0, 2])`` of four rows:
# layers at gates 0, 6, 12 and 18 (RX on 0, RY on 2, H on 1), and a
# CNOT(0, 1), RZ(1), CNOT(0, 1) run at 3, 9 and 15, each error on a qubit
# of its gate.
_SHARING_CASES = {
    # Row 0 forks first; rows 1 and 3, the last two that share, are hit
    # together: row 1 forks and row 3 takes the shared row.
    "row_0_first": [(1, GateKind.X, 2, [0]), (4, GateKind.Z, 1, [2]),
                    (9, GateKind.X, 0, [1, 3]), (11, GateKind.Z, 1, [3, 0])],
    # Rows 1 and 2 fork from one run, at two of its gates; row 3 is never
    # hit.
    "two_in_one_run": [(3, GateKind.X, 1, [1]), (4, GateKind.Z, 1, [2]),
                       (12, GateKind.X, 0, [0, 1, 2])],
    # Row 3, the last that shares, takes the shared row after a layer, and
    # is hit again with a forked row.
    "last_shared_row": [(0, GateKind.Z, 0, [0, 1]), (2, GateKind.X, 1, [2]),
                        (7, GateKind.Z, 2, [3]), (15, GateKind.X, 1, [3, 1])],
    "every_row_at_once": [(1, GateKind.Z, 2, [0, 1, 2, 3]), (9, GateKind.X, 1, [2])],
    "none": [],
}


@pytest.mark.parametrize("start", ["shared", "mixed", "distinct"])
@pytest.mark.parametrize("case", list(_SHARING_CASES))
def test_rows_that_start_equal_share_one_row_until_their_first_error(start, case):
    gates = _gates_of_pieces([2, 0, 2, 0, 2, 0, 2])
    errors = [(k, Gate(kind, (q,)), hit) for k, kind, q, hit in _SHARING_CASES[case]]
    batch = _batch(3, start)
    expected = batch.copy()
    for k, gate in enumerate(gates):
        apply_gate_inplace(expected.reshape(-1), 3, gate)
        for index, error, hit in errors:
            if index == k:
                for r in hit:
                    apply_gate_inplace(expected[r], 3, error)
    own = []
    for r, row in enumerate(batch):
        single = row.copy().reshape(1, -1)
        apply_gates_inplace(single, 3, gates,
                            [(i, e, [0]) for i, e, hit in errors if r in hit])
        own.append(single[0])
    apply_gates_inplace(batch, 3, gates, errors)
    # Each row, shared, forked or its own, has the bits of its own errors
    # run alone, back in its place.
    for r in range(len(batch)):
        assert batch[r].tobytes() == own[r].tobytes(), r
    np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", ["shared", "mixed", "distinct"])
@pytest.mark.parametrize("hit", [[-1], [1, 4], [2, 0, 2]],
                         ids=["negative", "past_the_batch", "twice"])
def test_error_rows_outside_the_batch_or_listed_twice_are_rejected_before_any_row_changes(
        start, hit):
    gates = (Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RY, (1,), 0.2),
             Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RZ, (1,), 0.4))
    rows = _batch(2, start)
    before = rows.copy()
    # A valid error on the same run first, and a valid one after.
    errors = [(0, Gate(GateKind.Z, (0,)), [1]), (1, Gate(GateKind.X, (1,)), hit),
              (3, Gate(GateKind.X, (1,)), [0])]
    with pytest.raises(ValueError, match="each of the 4 rows at most once"):
        apply_gates_inplace(rows, 2, gates, errors)
    assert rows.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [2, 5, sv._REAL_QUBITS])
def test_lone_basis_gates_and_errors_no_later_gate_touches_build_no_map(monkeypatch,
                                                                        n):
    # A lone CNOT, X, Z and RZ, each between two layers, then a CNOT and X
    # run with an error after the CNOT on its control, which the X does not
    # act on: the rows it hits take it after the run, as itself.
    layer = tuple(Gate(GateKind.RY, (q,), 0.3 + 0.2 * q) for q in range(n))
    lone = (Gate(GateKind.CNOT, (0, n - 1)), Gate(GateKind.X, (1,)),
            Gate(GateKind.Z, (n - 1,)), Gate(GateKind.RZ, (0,), 0.7))
    gates = layer + sum(((gate,) + layer for gate in lone), ())
    errors = [(len(gates), Gate(GateKind.Z, (0,)), [0, 2])]
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
    # Only the whole CNOT and X run, which every row takes, has a map.
    assert sizes == [2]
    assert np.allclose(batch, expected, rtol=0, atol=1e-12)
    for single, row in zip(singles, batch):
        assert np.array_equal(single, row)


def test_mixed_layers_match_gate_by_gate():
    n, gates = _short_braid()
    # One more layer whose blocks leave qubits of their span untouched.
    gates += (Gate(GateKind.H, (0,)), Gate(GateKind.RY, (2,), 0.4),
              Gate(GateKind.RX, (6,), -1.1))
    # The init layer, the Trotter layers and the new layer; the RY is a
    # lone gate.
    assert len({qubits for qubits, *_ in _built_layers(gates, n)}) == 3
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


def _layer_blocks_by_layer(qubits, kinds, angles, n):
    """Each layer's blocks from one ``_layer_blocks`` call over all the
    layers of ``angles``, as (key, the block's bytes) per position."""
    blocks = sv._layer_blocks(qubits, kinds, angles, n)
    return [[(key, stack[t].tobytes()) for key, stack in blocks]
            for t in range(angles.shape[1])]


_KINDS = {"X": GateKind.RX, "Y": GateKind.RY, "H": GateKind.H}


@pytest.mark.parametrize("n, qubits, kinds", [
    # The Zeeman layer of a step at N_s = 6: two blocks of three qubits.
    (7, (0, 1, 2, 4, 5, 6), "XYHXXY"),
    # Idle qubits inside blocks of widths 4, 3 and 1.
    (10, (0, 2, 3, 4, 6, 9), "XHYXYX"),
    # In the S frame, blocks of four and three qubits: the layer of a step
    # at N_s = 14, RX blocks real in every layer, a real block of four
    # beside qubit 0's complex one, and an RY block, complex at every angle.
    (15, tuple(q for q in range(15) if q != 7), "XYHX" "XXX" "XXXX" "XYX"),
    # In the frame with idle qubits, blocks of widths 4, 2, 4 and 1.
    (13, (0, 1, 3, 4, 5, 8, 10, 11, 12), "HXY" "XX" "YXX" "X"),
])
def test_blocks_of_a_piece_equal_each_layer_built_alone(n, qubits, kinds):
    kinds = tuple(_KINDS[k] for k in kinds)
    count = 11
    angles = np.random.default_rng(n).uniform(-4.0, 4.0, size=(len(qubits), count))
    # RY(0) columns, whose factors are real in the frame, in an RY block,
    # which is complex at every angle. A gate that holds its angle, and one
    # whose angle is -0.0.
    angles[[k is GateKind.RY for k in kinds], ::3] = 0.0
    angles[1] = angles[1, 0]
    angles[-1] = -0.0
    piece = _layer_blocks_by_layer(qubits, kinds, angles, n)
    alone = [_layer_blocks_by_layer(qubits, kinds, angles[:, t:t + 1], n)[0]
             for t in range(count)]
    assert piece == alone


def test_real_block_is_the_same_built_with_complex_blocks_of_its_width():
    # In the frame, an RX block of four qubits above qubit 0 is real. Built
    # alone its products are real; beside qubit 0's complex block of the
    # same width they are complex, and the block keeps their real parts.
    n, rng = 15, np.random.default_rng(5)
    angles = rng.uniform(-4.0, 4.0, size=(8, 6))
    rx = (GateKind.RX,) * 4
    [(key, alone)] = sv._layer_blocks((8, 9, 10, 11), rx, angles[4:], n)
    [(low, _), (beside, block)] = sv._layer_blocks(
        (0, 1, 2, 3, 8, 9, 10, 11), rx + rx, angles, n)
    assert key == beside == (8, 16, True) and low == (0, 16, False)
    assert alone.dtype == block.dtype == np.float64
    assert alone.tobytes() == block.tobytes()


@pytest.mark.parametrize("qubits, kinds, real", [
    # Qubit 0's block, an all-RX block at _BLOCK_QUBITS and a block with
    # an RY, on few enough qubits to be checked below the threshold too.
    (tuple(range(11)), "XXXX" "XXXX" "YXX", [False, True, False]),
    # An all-RX block whose lowest qubit is 1, an all-RX block with an idle
    # qubit, and a block with an H.
    ((1, 2, 3, 4, 5, 7, 9, 10, 11), "XXXX" "XX" "HXX", [False, True, False]),
    # An all-RX block whose lowest qubit is 3, an RY block and an H block.
    ((3, 4, 5, 6, 7, 8, 11), "XXXX" "YY" "H", [False, False, False]),
])
def test_a_block_is_real_by_its_gates_not_its_angles(qubits, kinds, real):
    # In the S frame a block is real when its lowest qubit is
    # _BLOCK_QUBITS or more and each of its gates is an RX; below the
    # frame's threshold every block is complex. RY(0) and RY(-0.0) are
    # real in the frame, and their blocks are complex all the same.
    kinds = tuple(_KINDS[k] for k in kinds)
    rng = np.random.default_rng(3)
    draws = (rng.uniform(-4.0, 4.0, size=(len(qubits), 3)),
             np.zeros((len(qubits), 2)), np.full((len(qubits), 1), -0.0))
    for n in (sv._REAL_QUBITS, sv._REAL_QUBITS + 2, sv._REAL_QUBITS - 1):
        if qubits[-1] >= n:
            continue
        # One set of keys, whatever the angles.
        [keys] = {tuple(key for key, _ in sv._layer_blocks(qubits, kinds, angles, n))
                  for angles in draws}
        expected = real if n >= sv._REAL_QUBITS else [False] * len(real)
        assert [r for _, _, r in keys] == expected, n


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


@pytest.mark.parametrize("gates, error", [
    # A layer, with the error on the qubit of the layer's other gate.
    ((Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RY, (1,), 0.2)),
     (0, Gate(GateKind.Z, (1,)), [1])),
    # A basis run, with the error after its RZ on the qubit of its X.
    ((Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RZ, (1,), 0.4),
      Gate(GateKind.X, (0,))), (1, Gate(GateKind.X, (0,)), [0])),
], ids=["layer", "basis_run"])
def test_error_off_the_qubits_of_its_gate_is_rejected_before_any_row_changes(
        gates, error):
    rows = np.stack([random_state(2, seed).amplitudes for seed in (3, 4)])
    before = rows.copy()
    with pytest.raises(ValueError, match=r"error on qubit \d after gate \d, which acts"):
        apply_gates_inplace(rows, 2, gates, [error])
    assert np.array_equal(rows, before)


def test_out_of_range_gate_in_mixing_layer_raises():
    _assert_rejected_before_any_row_changes(
        [Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RY, (2,), 0.2),
         Gate(GateKind.H, (1,))]
    )

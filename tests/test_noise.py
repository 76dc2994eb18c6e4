import math

import numpy as np
import pytest

from isingbraid.circuit import Circuit, Gate, GateKind
from isingbraid.noise import (
    NoiseModel,
    apply_measurement_error,
    draw_errors,
    noisy_fidelity,
    run_noisy,
    run_trajectories,
)
from isingbraid.protocol import (
    LogicalLabel,
    ProtocolParams,
    compile_scenario,
    run_scenario,
)
import isingbraid.statevector as sv
from isingbraid.statevector import (
    SampleCounts,
    apply_gate_inplace,
    apply_gates_inplace,
    fidelity,
    run,
    zero_state,
)
from isingbraid.trotter import ChainConfig, trotter_step_circuit

FAST = ProtocolParams(dh=0.5, T=0.5, dt=0.2, shots=2000)

BELL = Circuit(2, (Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1))))


def test_noisy_fidelity_rejects_large_register_before_compiling(monkeypatch):
    import isingbraid.noise as noise

    def refuse(*args):
        raise AssertionError("compiled before the register size was checked")

    monkeypatch.setattr(noise, "compile_scenario", refuse)
    big = ProtocolParams(N_s=30, dh=0.5, T=0.5, dt=0.2)
    with pytest.raises(ValueError, match="32 GiB"):
        noisy_fidelity(big, "braid", LogicalLabel.ALL_UP, NoiseModel(eps_phase=0.1))


def test_model_validation():
    NoiseModel(eps_bitflip=0.5, eps_phase=0.0)
    with pytest.raises(ValueError):
        NoiseModel(eps_bitflip=0.6)
    with pytest.raises(ValueError):
        NoiseModel(eps_phase=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(trajectories=0)
    with pytest.raises(ValueError):
        NoiseModel(eps_bitflip_2q=0.7)


def test_counts_that_are_not_integers_are_rejected():
    with pytest.raises(ValueError, match="trajectories must be an integer"):
        NoiseModel(trajectories=2.5)
    assert type(NoiseModel(trajectories=np.int64(3)).trajectories) is int
    with pytest.raises(ValueError, match="rows must be an integer"):
        run_trajectories(BELL, zero_state(2), NoiseModel(), 2.5, np.random.default_rng(1))


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("rows", [0, -1])
def test_run_trajectories_rejects_fewer_than_one_row(monkeypatch, rows, eps):
    import isingbraid.noise as noise

    def draw(*args):
        pytest.fail("drew errors before the rows were checked")

    monkeypatch.setattr(noise, "draw_errors", draw)
    model = NoiseModel(eps_bitflip=eps, eps_phase=eps)
    with pytest.raises(ValueError, match="rows must be >= 1"):
        run_trajectories(BELL, zero_state(2), model, rows, np.random.default_rng(1))


def test_run_trajectories_rejects_a_mismatched_register():
    circuit = Circuit(3, (Gate(GateKind.H, (0,)),))
    with pytest.raises(ValueError, match="register mismatch"):
        run_trajectories(circuit, zero_state(2), NoiseModel(eps_phase=0.1), 2,
                         np.random.default_rng(0))


def test_per_arity_overrides():
    m = NoiseModel(eps_bitflip=0.1, eps_bitflip_2q=0.3)
    assert m.bitflip_for(1) == 0.1
    assert m.bitflip_for(2) == 0.3
    assert m.phase_for(1) == 0.0


def test_zero_noise_is_bit_exact():
    state = zero_state(2)
    noiseless = run(state, BELL)
    noisy = run_noisy(BELL, state, NoiseModel(), seed=0)
    assert np.array_equal(noisy.amplitudes, noiseless.amplitudes)


def test_bitflip_half_is_bernoulli():
    circ = Circuit(1, (Gate(GateKind.X, (0,)),))
    model = NoiseModel(eps_bitflip=0.5)
    outcomes = []
    for seed in range(400):
        out = run_noisy(circ, zero_state(1), model, seed)
        outcomes.append(abs(out.amplitudes[0]) > 0.5)  # flipped back to |0>
    frac = sum(outcomes) / len(outcomes)
    assert frac == pytest.approx(0.5, abs=0.1)


def test_phase_errors_trivial_on_z_diagonal_circuit():
    circ = Circuit(
        2, (Gate(GateKind.RZ, (0,), 0.7), Gate(GateKind.Z, (1,)),
            Gate(GateKind.RZ, (1,), -0.3))
    )
    noiseless = run(zero_state(2), circ)
    model = NoiseModel(eps_phase=0.4)
    for seed in range(10):
        noisy = run_noisy(circ, zero_state(2), model, seed)
        assert fidelity(noisy, noiseless) == pytest.approx(1.0, abs=1e-12)


def test_trajectory_determinism():
    model = NoiseModel(eps_bitflip=0.2, eps_phase=0.1)
    a = run_noisy(BELL, zero_state(2), model, seed=5)
    b = run_noisy(BELL, zero_state(2), model, seed=5)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def _enumerated_bell_fidelity(px: float, pz: float) -> float:
    """Exact mixed-state fidelity for BELL under the per-gate channel,
    by enumerating every Pauli insertion pattern."""
    target = run(zero_state(2), BELL)

    def branches(qubits):
        # (probability, [paulis]) for one gate's touched qubits
        out = [(1.0, [])]
        for q in qubits:
            nxt = []
            for p, ops in out:
                nxt.append((p * (1 - px) * (1 - pz), ops))
                nxt.append((p * px * (1 - pz), ops + [(GateKind.X, q)]))
                nxt.append((p * (1 - px) * pz, ops + [(GateKind.Z, q)]))
                # X applied first, then Z, matching run_noisy's order
                nxt.append((p * px * pz, ops + [(GateKind.X, q), (GateKind.Z, q)]))
            out = nxt
        return out

    total = 0.0
    for p1, ops1 in branches((0,)):
        for p2, ops2 in branches((0, 1)):
            gates = [BELL.gates[0]]
            gates += [Gate(k, (q,)) for k, q in ops1]
            gates.append(BELL.gates[1])
            gates += [Gate(k, (q,)) for k, q in ops2]
            state = run(zero_state(2), Circuit(2, tuple(gates)))
            total += p1 * p2 * fidelity(state, target)
    return total


def test_trajectory_estimator_is_unbiased():
    px = pz = 0.1
    exact = _enumerated_bell_fidelity(px, pz)
    model = NoiseModel(eps_bitflip=px, eps_phase=pz)
    target = run(zero_state(2), BELL)
    n = 100_000
    vals = np.empty(n)
    for t in range(n):
        vals[t] = fidelity(run_noisy(BELL, zero_state(2), model, [9, t]), target)
    stderr = vals.std(ddof=1) / math.sqrt(n)
    assert vals.mean() == pytest.approx(exact, abs=3 * stderr)


def test_noisy_fidelity_zero_eps_equals_noiseless():
    noiseless = run_scenario(FAST, "translate_with_coupler", LogicalLabel.ALL_UP)
    mean, stderr = noisy_fidelity(
        FAST, "translate_with_coupler", LogicalLabel.ALL_UP,
        NoiseModel(trajectories=3),
    )
    assert mean == noiseless.exact_fidelity
    assert stderr == 0.0


def test_noisy_fidelity_of_equal_values_is_that_value(monkeypatch):
    import isingbraid.noise as noise

    # Three copies of this value have a plain numpy mean one bit below it.
    x = 0.42803369499637245
    assert np.full(3, x).mean() != x
    monkeypatch.setattr(noise, "chain_fidelity", lambda *args: x)
    mean, stderr = noisy_fidelity(
        FAST, "translate_with_coupler", LogicalLabel.ALL_UP,
        NoiseModel(trajectories=3),
    )
    assert mean == x
    assert stderr == 0.0


def test_two_qubit_gate_dominance():
    eps = 3e-4
    only_2q = NoiseModel(eps_bitflip_2q=eps, eps_bitflip_1q=0.0,
                         eps_bitflip=0.0, trajectories=40)
    only_1q = NoiseModel(eps_bitflip_1q=eps, eps_bitflip_2q=0.0,
                         eps_bitflip=0.0, trajectories=40)
    f2, e2 = noisy_fidelity(FAST, "braid", LogicalLabel.ALL_UP, only_2q, seed=2)
    f1, e1 = noisy_fidelity(FAST, "braid", LogicalLabel.ALL_UP, only_1q, seed=2)
    # more two-qubit gate-qubit pairs per step -> larger degradation
    assert f2 < f1 + 2 * (e1 + e2)


def test_measurement_error_identity_and_full_flip():
    counts = SampleCounts(counts={"010": 5, "111": 3}, shots=8, n_bits=3)
    assert apply_measurement_error(counts, 0.0, seed=1) == counts
    flipped = apply_measurement_error(counts, 1.0, seed=1)
    assert flipped.counts == {"101": 5, "000": 3}


def test_measurement_error_binomial_rate():
    counts = SampleCounts(counts={"000000": 20_000}, shots=20_000, n_bits=6)
    out = apply_measurement_error(counts, 1e-2, seed=4)
    frac = out.counts.get("000000", 0) / out.shots
    assert frac == pytest.approx((1 - 1e-2) ** 6, abs=0.01)


@pytest.mark.parametrize("slots_per_chunk", [None, 1])
def test_batch_rows_replay_their_drawn_errors(monkeypatch, slots_per_chunk):
    import isingbraid.noise as noise

    rows = 32
    if slots_per_chunk is not None:
        monkeypatch.setattr(noise, "_DRAW_BYTES", 16 * rows * slots_per_chunk)
    model = NoiseModel(eps_bitflip=0.3, eps_phase=0.2)
    batch = run_trajectories(BELL, zero_state(2), model, rows, np.random.default_rng(3))
    inserted = [[] for _ in range(rows)]
    for index, error, hit in draw_errors(BELL, model, rows, np.random.default_rng(3)):
        for r in hit:
            inserted[r].append((index, error))
    assert any(inserted) and not all(inserted)
    for r in range(rows):
        gates = []
        for i, gate in enumerate(BELL.gates):
            gates.append(gate)
            gates += [error for index, error in inserted[r] if index == i]
        replay = run(zero_state(2), Circuit(2, tuple(gates)))
        assert np.array_equal(batch[r], replay.amplitudes)


def test_errors_inside_basis_runs_split_them():
    # CNOT-RZ-CNOT runs between mixing gates: errors drawn at the first
    # CNOT or the RZ land inside a run that the executor fuses.
    g = Gate
    circuit = Circuit(3, (
        g(GateKind.H, (0,)), g(GateKind.RY, (1,), 0.4),
        g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.7), g(GateKind.CNOT, (0, 1)),
        g(GateKind.RX, (2,), 0.3),
        g(GateKind.CNOT, (1, 2)), g(GateKind.RZ, (2,), -1.1), g(GateKind.CNOT, (1, 2)),
    ))
    rows = 32
    model = NoiseModel(eps_bitflip=0.2, eps_phase=0.2)
    batch = run_trajectories(circuit, zero_state(3), model, rows, np.random.default_rng(5))
    inserted = [[] for _ in range(rows)]
    for index, error, hit in draw_errors(circuit, model, rows, np.random.default_rng(5)):
        for r in hit:
            inserted[r].append((index, error))
    assert {2, 3, 6, 7} & {i for errors in inserted for i, _ in errors}
    for r in range(rows):
        gates = []
        for i, gate in enumerate(circuit.gates):
            gates.append(gate)
            gates += [error for index, error in inserted[r] if index == i]
        replay = run(zero_state(3), Circuit(3, tuple(gates)))
        assert np.allclose(batch[r], replay.amplitudes, rtol=0, atol=1e-12)


def _stretch_by_stretch(circuit, initial, errors, rows):
    """Trajectories as the executor ran them before it took the errors:
    one ``apply_gates_inplace`` call per stretch of gates between two
    errors, each error then applied to the rows it hits."""
    n = initial.n_qubits
    amps = np.empty((rows, initial.amplitudes.size), dtype=complex)
    amps[:] = initial.amplitudes
    gates = circuit.gates
    start = 0
    for index, error, hit in errors:
        if index >= start:
            apply_gates_inplace(amps, n, gates[start:index + 1])
            start = index + 1
        sub = amps[hit]
        apply_gate_inplace(sub.reshape(-1), n, error)
        amps[hit] = sub
    apply_gates_inplace(amps, n, gates[start:])
    return amps


def _eff_braid(n_sites):
    p = ProtocolParams(N_s=n_sites, dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)
    return compile_scenario(p, "braid", LogicalLabel.ALL_UP).prepared_circuit


def _own_errors_run(circuit, initial, errors, r):
    """Row ``r`` of a batch run alone: a one-row batch with the errors that
    hit that row."""
    amps = initial.amplitudes.copy().reshape(1, -1)
    apply_gates_inplace(amps, initial.n_qubits, circuit.gates,
                        [(i, error, [0]) for i, error, hit in errors if r in hit])
    return amps[0]


# N_s = 12 puts 13 qubits in the S frame, where layers run in real
# arithmetic and the rows an error hits leave the frame and enter it again.
@pytest.mark.parametrize("n_sites, rows", [(6, 20), (12, 3)])
def test_trajectories_equal_the_stretch_by_stretch_reference(n_sites, rows):
    circuit = _eff_braid(n_sites)
    initial = zero_state(circuit.n_qubits)
    model = NoiseModel(eps_bitflip=1e-3, eps_phase=1e-3)
    batch = run_trajectories(circuit, initial, model, rows, np.random.default_rng(8))
    errors = list(draw_errors(circuit, model, rows, np.random.default_rng(8)))
    assert len({r for _, _, hit in errors for r in hit}) == rows
    # Every row has the bits of its own errors run alone, whatever the
    # other rows draw.
    for r in range(rows):
        own = _own_errors_run(circuit, initial, errors, r)
        assert batch[r].tobytes() == own.tobytes(), r
    # The reference applies each error just after its gate; the executor
    # applies one whose qubit no later gate of its run acts on after the
    # run, which changes only the rounding.
    one = run_noisy(circuit, initial, model, [8, 1])
    ref = _stretch_by_stretch(
        circuit, initial, draw_errors(circuit, model, 1, np.random.default_rng([8, 1])), 1)
    np.testing.assert_allclose(one.amplitudes, ref[0], rtol=0, atol=1e-12)


def _run_spans(gates, n):
    """Each run the executor plans for ``gates``, with the index of its
    first gate and the index past its last; a piece of repeated steps as
    the runs of each step, its layers as lists of their gates."""
    start = 0
    for steps, size, period, part, _, blocks in sv._runs(gates, n):
        for _ in range(steps):
            if part is not None:
                yield part, start, start + size
            if blocks:
                yield list(gates[start + size:start + period]), start + size, start + period
            start += period


# Each error on one step's basis run, at every position, on each qubit of
# its gate, of each kind, hits a row of its own. The rows whose error a
# later gate of the run acts on take it after the run as a map, which
# changes only the rounding against the reference; N_s = 12 takes the maps
# in the S frame. The circuit is the braid through the layer after that
# run, so that a one-row run per error stays cheap.
@pytest.mark.parametrize("n_sites", [6, 12])
def test_errors_replaying_their_basis_run_equal_the_stretch_by_stretch_reference(
        n_sites):
    circuit = _eff_braid(n_sites)
    n = circuit.n_qubits
    spans = [(start, end) for part, start, end in _run_spans(circuit.gates, n)
             if type(part) is tuple]
    # The third basis run, a whole step's, after the init layer and two
    # steps.
    start, end = spans[2]
    circuit = Circuit(n, circuit.gates[:spans[3][0]])
    gates = circuit.gates
    slots = [(k, q, kind) for k in range(start, end) for q in gates[k].qubits
             for kind in (GateKind.X, GateKind.Z)]
    late = [k for k, q, _ in slots if any(q in g.qubits for g in gates[k + 1:end])]
    # Errors taken as maps, diagonal (Z) and permuting (X) ones, and errors
    # taken as themselves.
    assert 0 < len(late) < len(slots)
    errors = [(k, Gate(kind, (q,)), np.array([r])) for r, (k, q, kind) in enumerate(slots)]
    initial = zero_state(n)
    batch = np.empty((len(slots), 1 << n), dtype=complex)
    batch[:] = initial.amplitudes
    apply_gates_inplace(batch, n, gates, errors)
    for r in range(len(slots)):
        own = _own_errors_run(circuit, initial, errors, r)
        assert batch[r].tobytes() == own.tobytes(), slots[r]
    ref = _stretch_by_stretch(circuit, initial, errors, len(slots))
    np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-12)


# N_s = 12 puts the layers in the S frame.
@pytest.mark.parametrize("n_sites", [6, 12])
def test_errors_inside_a_layer_are_taken_after_it_without_a_replay(monkeypatch,
                                                                   n_sites):
    # Errors on the qubits of RX gates that are not the last of their
    # layer: no later gate of the layer acts on those qubits, so the rows
    # they hit take them after the layer as themselves, with no map.
    cfg = ChainConfig(n_sites // 2, 1.0, 0.3, tuple(np.linspace(0.2, 1.6, n_sites)))
    gates = trotter_step_circuit(cfg, 0.4).gates * 3
    n, rows = cfg.n_qubits, 3
    errors = []
    for part, start, end in _run_spans(gates, n):
        if type(part) is list:
            for k in range(start, end - 1):
                q = gates[k].qubits
                errors.append((k, Gate(GateKind.X, q), [k % rows]))
                errors.append((k, Gate(GateKind.Z, q), sorted({0, (k + 1) % rows})))
    assert len(errors) >= 6 * (n_sites - 1)
    rng = np.random.default_rng(9)
    batch = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    expected = batch.copy()
    for k, gate in enumerate(gates):
        apply_gate_inplace(expected.reshape(-1), n, gate)
        for index, error, hit in errors:
            if index == k:
                for r in hit:
                    apply_gate_inplace(expected[r], n, error)
    own = []
    for r, row in enumerate(batch):
        single = row.copy().reshape(1, -1)
        apply_gates_inplace(single, n, gates,
                            [(i, e, [0]) for i, e, hit in errors if r in hit])
        own.append(single[0])
    calls = []
    build, basis_map = sv._layer_blocks, sv._basis_map
    monkeypatch.setattr(sv, "_layer_blocks",
                        lambda *a: calls.append("blocks") or build(*a))
    monkeypatch.setattr(sv, "_basis_map", lambda *a: calls.append("map") or basis_map(*a))
    sv._PIECE_MAPS.clear()
    apply_gates_inplace(batch.copy(), n, gates)
    noiseless = list(calls)
    assert "map" in noiseless
    apply_gates_inplace(batch, n, gates, errors)
    # The same blocks and run maps, and no map for an error.
    assert calls == noiseless * 2
    for r in range(rows):
        assert batch[r].tobytes() == own[r].tobytes(), r
    np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)


def test_errors_do_not_rebuild_the_repeated_step_run(monkeypatch):
    # Thirty steps of one layer and one basis run: the rows an error hits
    # inside a copy of the run take it after the run, conjugated through
    # the rest of it, and the run itself is still built once. The maps of
    # those conjugates are kept, so each is built once too.
    g = Gate
    step = (
        g(GateKind.RX, (0,), 0.3), g(GateKind.RX, (1,), 0.5), g(GateKind.RX, (2,), 0.7),
        g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.4), g(GateKind.CNOT, (0, 1)),
        g(GateKind.CNOT, (1, 2)), g(GateKind.RZ, (2,), -0.6), g(GateKind.CNOT, (1, 2)),
    )
    circuit = Circuit(3, step * 30)
    step_run = step[3:]
    model = NoiseModel(eps_bitflip=0.02, eps_phase=0.02)
    rows = 4
    errors = list(draw_errors(circuit, model, rows, np.random.default_rng(4)))
    cuts = {index % len(step) for index, _, _ in errors}
    # Errors after the run's first five gates.
    assert len(cuts & set(range(3, len(step) - 1))) >= 3
    built = []
    basis_map = sv._basis_map

    def spy(n_qubits, gates):
        built.append(tuple(gates))
        return basis_map(n_qubits, gates)

    sv._PIECE_MAPS.clear()
    monkeypatch.setattr(sv, "_basis_map", spy)
    batch = run_trajectories(circuit, zero_state(3), model, rows, np.random.default_rng(4))
    assert built.count(step_run) == 1
    assert len(built) == len(set(built)) > 3
    monkeypatch.setattr(sv, "_basis_map", basis_map)
    for r in range(rows):
        own = _own_errors_run(circuit, zero_state(3), errors, r)
        assert batch[r].tobytes() == own.tobytes(), r


# At a rate where most runs of every row have errors, errors change no run:
# each run is applied once to the whole batch, as without errors.
@pytest.mark.parametrize("n_sites, rows", [(6, 8), (12, 2)])
def test_errors_apply_each_run_once(monkeypatch, n_sites, rows):
    circuit = _eff_braid(n_sites)
    n = circuit.n_qubits
    model = NoiseModel(eps_bitflip=0.1, eps_phase=0.1)
    # What the executor applies: each basis run's tuple and each layer,
    # half by half of each piece (see ``_apply_piece``). An error is never
    # a tuple, and neither is a lone gate: the braid's coupler rotations.
    calls = []
    apply_piece = sv._apply_piece

    def spy(views, n_qubits, piece, first, last, frame, inside):
        part, blocks = piece[3], piece[5]
        for half in range(first, last):
            if half % 2 and blocks:
                calls.append("layer")
            elif not half % 2 and type(part) is tuple:
                calls.append(part)
        return apply_piece(views, n_qubits, piece, first, last, frame, inside)

    monkeypatch.setattr(sv, "_apply_piece", spy)
    batch = np.zeros((rows, 1 << n), dtype=complex)
    batch[:, 0] = 1.0
    apply_gates_inplace(batch.copy(), n, circuit.gates)
    noiseless = len(calls)
    errors = list(draw_errors(circuit, model, rows, np.random.default_rng(6)))
    assert len(errors) > noiseless
    apply_gates_inplace(batch, n, circuit.gates, errors)
    assert calls[noiseless:] == calls[:noiseless]


def _replay(circuit, errors, rows):
    """Each row run gate by gate with its errors inserted as gates."""
    out = []
    for r in range(rows):
        gates = []
        for i, gate in enumerate(circuit.gates):
            gates.append(gate)
            gates += [error for index, error, hit in errors if index == i and r in hit]
        state = run(zero_state(circuit.n_qubits), Circuit(circuit.n_qubits, tuple(gates)))
        out.append(state.amplitudes)
    return np.array(out)


def test_errors_on_the_last_gate_and_two_after_one_gate():
    g = Gate
    circuit = Circuit(3, (
        g(GateKind.H, (0,)), g(GateKind.RY, (1,), 0.4), g(GateKind.RX, (2,), 0.9),
        g(GateKind.CNOT, (0, 1)), g(GateKind.RZ, (1,), 0.7), g(GateKind.CNOT, (0, 1)),
        g(GateKind.CNOT, (1, 2)), g(GateKind.RZ, (2,), -1.1),
    ))
    last = len(circuit) - 1
    errors = [
        # Two errors after the RZ inside the first basis run.
        (4, g(GateKind.X, (1,)), np.array([0, 2])),
        (4, g(GateKind.Z, (1,)), np.array([1, 2])),
        # Both kinds of error after the last gate.
        (last, g(GateKind.X, (2,)), np.array([0])),
        (last, g(GateKind.Z, (2,)), np.array([0, 1])),
    ]
    rows = 3
    amps = np.zeros((rows, 8), dtype=complex)
    amps[:, 0] = 1.0
    apply_gates_inplace(amps, 3, circuit.gates, errors)
    np.testing.assert_allclose(amps, _replay(circuit, errors, rows), rtol=0, atol=1e-12)


def test_batched_trajectory_estimator_is_unbiased():
    px = pz = 0.1
    exact = _enumerated_bell_fidelity(px, pz)
    model = NoiseModel(eps_bitflip=px, eps_phase=pz)
    target = run(zero_state(2), BELL).amplitudes
    n = 100_000
    batch = run_trajectories(BELL, zero_state(2), model, n, np.random.default_rng(9))
    vals = np.abs(batch @ target.conj()) ** 2
    stderr = vals.std(ddof=1) / math.sqrt(n)
    assert vals.mean() == pytest.approx(exact, abs=3 * stderr)


# Gates of both arities: four one-qubit and three two-qubit gates a copy.
_MIXED = Circuit(3, (
    Gate(GateKind.H, (0,)), Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RX, (2,), 0.3),
    Gate(GateKind.CNOT, (1, 2)), Gate(GateKind.RZ, (1,), 0.2), Gate(GateKind.X, (2,)),
    Gate(GateKind.CNOT, (2, 0)),
) * 40)


@pytest.mark.parametrize("model", [
    NoiseModel(eps_bitflip=1e-3, eps_phase=2e-3),
    NoiseModel(eps_bitflip=0.01, eps_phase=0.03, eps_bitflip_2q=0.1,
               eps_phase_1q=0.0),
    NoiseModel(eps_bitflip=0.5, eps_phase=0.5),
    NoiseModel(eps_bitflip=0.5, eps_phase=0.0, eps_phase_2q=0.2),
])
@pytest.mark.parametrize("slots_per_chunk", [None, 3])
def test_draws_hit_each_class_at_its_rate(monkeypatch, model, slots_per_chunk):
    import isingbraid.noise as noise

    rows = 50
    if slots_per_chunk is not None:
        monkeypatch.setattr(noise, "_DRAW_BYTES", 16 * rows * slots_per_chunk)
    errors = list(draw_errors(_MIXED, model, rows, np.random.default_rng(12)))
    hits = {(a, kind): 0 for a in (1, 2) for kind in noise._PAULIS}
    order = []
    for index, error, hit in errors:
        gate = _MIXED.gates[index]
        assert error.qubits[0] in gate.qubits
        hits[len(gate.qubits), error.kind] += len(hit)
        # Slot, then X before Z; the rows of one error distinct and sorted.
        order.append((index, gate.qubits.index(error.qubits[0]),
                      noise._PAULIS.index(error.kind)))
        assert list(hit) == sorted(set(hit)) and 0 <= hit[0] and hit[-1] < rows
    assert order == sorted(set(order))
    slots = {a: rows * sum(len(g.qubits) for g in _MIXED.gates if len(g.qubits) == a)
             for a in (1, 2)}
    for (a, kind), count in hits.items():
        p = model.bitflip_for(a) if kind is GateKind.X else model.phase_for(a)
        n = slots[a]
        assert abs(count - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (a, kind, count)


def test_zero_rates_draw_nothing(monkeypatch):
    # Zero rates are seen before any error slot is laid out: a zero-noise
    # trajectory pays no pass over the gates.
    import isingbraid.noise as noise

    def no_slots(gates):
        raise AssertionError("error slots laid out for a model of zero rates")

    monkeypatch.setattr(noise, "_slots", no_slots)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert list(draw_errors(_MIXED, NoiseModel(), 20, rng)) == []
    assert rng.bit_generator.state == state


def test_piece_maps_build_no_checked_gate(monkeypatch):
    # The inverses of the piece's gates are built trusted: a map build
    # constructs no gate through the checking constructor.
    piece = (Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RZ, (1,), 0.4),
             Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RZ, (2,), -0.6))
    error = Gate(GateKind.X, (1,))
    checked = []
    post_init = Gate.__post_init__

    def counted(gate):
        checked.append(gate)
        post_init(gate)

    monkeypatch.setattr(Gate, "__post_init__", counted)
    maps = sv._PieceMaps()
    src, phase = maps.get(3, error, piece)
    assert checked == []
    # X on qubit 1 conjugated by the piece: the map of the same gates
    # built from checked inverses.
    monkeypatch.setattr(Gate, "__post_init__", post_init)
    undo = tuple(Gate(g.kind, g.qubits, None if g.angle is None else -g.angle)
                 for g in reversed(piece))
    ref_src, ref_phase = sv._basis_map(3, (*undo, error, *piece))
    assert np.array_equal(src, ref_src) and np.array_equal(phase, ref_phase)


def test_piece_maps_stay_within_their_byte_cap(monkeypatch):
    # Room for four maps of a permuting conjugate on three qubits, or six
    # diagonal ones; the errors on the step run below have many more.
    cap = 4 * 8 * (8 + 16)
    monkeypatch.setattr(sv, "_PIECE_BYTES", cap)
    maps = sv._PieceMaps()
    monkeypatch.setattr(sv, "_PIECE_MAPS", maps)
    get = maps.get
    built = []

    def checked(n_qubits, error, piece):
        out = get(n_qubits, error, piece)
        built.append((error.kind, error.qubits, *map(id, piece)))
        sizes = [size for _, _, size in maps.entries.values()]
        assert maps.nbytes == sum(sizes) <= cap
        # Each entry holds the gates whose ids key it.
        assert all(key[3:] == tuple(map(id, gates))
                   for key, (gates, _, _) in maps.entries.items())
        return out

    maps.get = checked
    circuit = Circuit(3, (
        Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.RX, (1,), 0.5),
        Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.RZ, (1,), 0.4),
        Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.CNOT, (1, 2)),
        Gate(GateKind.RZ, (2,), -0.6), Gate(GateKind.CNOT, (1, 2)),
        Gate(GateKind.X, (0,)),
    ) * 30)
    model = NoiseModel(eps_bitflip=0.05, eps_phase=0.05)
    run_trajectories(circuit, zero_state(3), model, 6, np.random.default_rng(1))
    assert len(set(built)) > 6 and 0 < len(maps.entries) <= cap // (8 * 16)
    # A map larger than the cap is built and not kept.
    monkeypatch.setattr(sv, "_PIECE_BYTES", 8)
    maps.clear()
    src, phase = get(3, Gate(GateKind.X, (0,)), circuit.gates[3:5])
    assert src is not None and phase.shape == (8,)
    assert not maps.entries and maps.nbytes == 0


def test_noisy_fidelity_batches_stay_within_row_budget(monkeypatch):
    import isingbraid.noise as noise

    # Room for two rows: four arrays of the batch's size, one chunk of
    # drawn errors, the executor's chunk of block matrices and its piece
    # maps.
    monkeypatch.setattr(noise, "BATCH_BYTES",
                        noise._DRAW_BYTES + sv._BLOCK_BYTES + sv._PIECE_BYTES
                        + 2 * 4 * (16 << FAST.n_qubits))
    sizes = []

    def recording(circuit, initial, model, rows, rng):
        sizes.append(rows)
        return run_trajectories(circuit, initial, model, rows, rng)

    monkeypatch.setattr(noise, "run_trajectories", recording)
    model = NoiseModel(eps_bitflip=1e-2, eps_phase=1e-2, trajectories=5)
    first = noisy_fidelity(FAST, "braid", LogicalLabel.ALL_UP, model, seed=4)
    assert sizes == [2, 2, 1]
    again = noisy_fidelity(FAST, "braid", LogicalLabel.ALL_UP, model, seed=4)
    assert again == first


def test_batch_rows_are_pinned():
    import isingbraid.noise as noise

    # The batch size depends on the executor's byte caps (through
    # ``batch_rows_within``), and it decides how a run's trajectories are
    # split, and so which errors a seed draws for them.
    assert (noise.batch_rows(7), noise.batch_rows(11)) == (3944, 246), (
        "the full batch size changed: this re-splits the trajectories of any "
        "run with more than one batch, so the same seed draws other errors; "
        "record the change and its new values")


def test_full_batch_peaks_within_the_batch_budget(monkeypatch):
    import tracemalloc

    import isingbraid.noise as noise

    # The whole EFF braid: fused layers and basis runs, and the coupler
    # rotations, lone gates that take the per-gate kernel and its
    # temporaries.
    p = ProtocolParams(dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)
    circuit = compile_scenario(p, "braid", LogicalLabel.ALL_UP).prepared_circuit
    monkeypatch.setattr(noise, "BATCH_BYTES", 4 << 20)
    rows = noise.batch_rows(p.n_qubits)
    assert rows == ((4 << 20) - noise._DRAW_BYTES - sv._BLOCK_BYTES
                    - sv._PIECE_BYTES) // (4 * (16 << p.n_qubits))
    initial = zero_state(p.n_qubits)
    # Errors from rare to many in every run of every row.
    for eps in (1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
        model = NoiseModel(eps_bitflip=eps, eps_phase=eps)
        # One row first, so that the executor's caches are not counted.
        run_trajectories(circuit, initial, model, 1, np.random.default_rng(2))
        tracemalloc.start()
        try:
            run_trajectories(circuit, initial, model, rows, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beside the batch, the error draw holds a few integers per gate
        # (about 75 bytes per gate of this circuit).
        assert peak <= noise.BATCH_BYTES + 96 * len(circuit), eps


def _measurement_error_per_shot(counts, eps_meas, seed):
    """Shot-by-shot reference: one draw of ``n_bits`` uniforms per shot,
    shots in sorted bit-string order."""
    rng = np.random.default_rng(seed)
    flipped = {}
    for bits, c in sorted(counts.counts.items()):
        arr = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")
        for _ in range(c):
            out = arr ^ (rng.random(counts.n_bits) < eps_meas)
            key = "".join("1" if b else "0" for b in out)
            flipped[key] = flipped.get(key, 0) + 1
    return flipped


@pytest.mark.parametrize("eps", [1e-2, 0.3, 1.0])
def test_measurement_error_matches_per_shot_reference(eps):
    counts = SampleCounts(
        counts={"0000000": 700, "1010011": 250, "1111111": 50}, shots=1000, n_bits=7
    )
    out = apply_measurement_error(counts, eps, seed=8)
    assert out.counts == _measurement_error_per_shot(counts, eps, seed=8)
    assert out.shots == counts.shots and out.n_bits == counts.n_bits


@pytest.mark.parametrize("eps", [-0.1, 1.5, math.nan])
def test_measurement_error_rejects_eps_outside_the_unit_interval(eps):
    counts = SampleCounts(counts={"01": 3}, shots=3, n_bits=2)
    with pytest.raises(ValueError, match=r"eps_meas must be in \[0, 1\]"):
        apply_measurement_error(counts, eps, seed=0)


def test_measurement_error_rejects_counts_too_wide_to_pack():
    counts = SampleCounts(counts={"0" * 63: 1}, shots=1, n_bits=63)
    with pytest.raises(ValueError, match="int64"):
        apply_measurement_error(counts, 0.1, seed=0)

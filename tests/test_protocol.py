import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isingbraid.circuit import CircuitError, Gate, GateKind, concat, inverse
from isingbraid.protocol import (
    AdiabaticityWarning,
    LogicalLabel,
    ProtocolParams,
    braid_gate_count,
    braid_trotter_steps,
    build_protocol_circuit,
    chain_fidelity,
    compile_scenario,
    domain_amplitudes,
    initialization_circuit,
    readout_counts,
    resolve_scenario,
    run_scenario,
    sampled_fidelity_from_counts,
    target_chain_state,
    target_prep_circuit,
)
from isingbraid.schedule import (
    FieldSchedule,
    RotateCoupler,
    SetFields,
    build_field_schedule,
    chain_config,
    count_trotter_steps,
    initial_fields,
    rotation_count,
    steps_per_hold,
    updates_per_shift,
    walk_schedule,
)
from isingbraid.statevector import QuantumState, run, zero_state
from isingbraid.trotter import trotter_step_circuit

OPT = ProtocolParams()  # high-fidelity parameter set
# coarse, fast schedule for structural tests
FAST = ProtocolParams(dh=0.5, T=0.5, dt=0.2)

_SQ2 = 1 / math.sqrt(2)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(N_s=5)
    with pytest.raises(ValueError):
        ProtocolParams(N_s=4)
    with pytest.raises(ValueError):
        ProtocolParams(h_ferro=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(h_ferro=2.0)  # h_ferro > J
    with pytest.raises(ValueError, match="need h_para > h_ferro"):
        ProtocolParams(h_ferro=0.5, h_para=0.5)
    for dh in (0.0, 5.5):
        with pytest.raises(ValueError, match="need 0 < dh <= h_para"):
            ProtocolParams(dh=dh)
    with pytest.raises(ValueError, match="theta must be non-negative"):
        ProtocolParams(theta=-0.1)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        ProtocolParams(shots=0)
    with pytest.raises(ValueError):
        ProtocolParams(dt=-0.1)
    with pytest.raises(ValueError):
        ProtocolParams(T=0.1, dt=0.2)
    with pytest.raises(ValueError):
        ProtocolParams(Gamma=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(update_mode="jump")
    with pytest.raises(ValueError):
        ProtocolParams(coupler_prep="RZ")
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("J", "J_C", "h_ferro", "h_para", "dt", "dh", "T", "Gamma", "theta"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ProtocolParams(**{name: bad})
    with pytest.raises(ValueError, match="J_C must be non-negative"):
        ProtocolParams(J_C=-1.0)
    with pytest.raises(ValueError, match="T/dt must be finite"):
        ProtocolParams(T=1e308)
    # A coupler switched off is allowed.
    assert ProtocolParams(J_C=0.0).J_C == 0.0


@pytest.mark.parametrize("N_s", [6, 10])
@pytest.mark.parametrize(
    "row", [{}, dict(dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)], ids=["OPT", "EFF"]
)
def test_closed_form_step_count_matches_the_braid_schedule(N_s, row):
    params = ProtocolParams(N_s=N_s, **row)
    schedule = build_field_schedule(params, include_rotation=True)
    assert braid_trotter_steps(params) == count_trotter_steps(params, schedule)


@pytest.mark.parametrize(
    "row", [dict(N_s=6), dict(N_s=10, dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2),
            dict(N_s=6, J_C=0.0), dict(N_s=6, theta=0.0)],
    ids=["OPT", "EFF-10", "no-coupler", "no-rotation"],
)
def test_closed_form_gate_count_matches_the_braid_circuit(row):
    params = ProtocolParams(**row)
    run_ = compile_scenario(params, "braid", LogicalLabel.ALL_UP)
    assert braid_gate_count(params) == len(run_.evolution_circuit.gates)


def test_params_reject_schedules_too_long_to_compile(monkeypatch):
    from isingbraid import protocol

    # OPT at N_s = 22 is accepted: 22,030 Trotter steps.
    assert braid_trotter_steps(ProtocolParams(N_s=22)) == 22030
    # A step has at least 18 gates (N_s = 6, no coupler), so a schedule of
    # more than 2**18 steps is over the gate cap.
    monkeypatch.setattr(protocol, "MAX_BRAID_GATES", 1 << 40)
    assert braid_trotter_steps(ProtocolParams(T=87.0, J_C=0.0)) > 1 << 18
    monkeypatch.undo()
    with pytest.raises(ValueError, match="4,721,493 gates"):
        ProtocolParams(T=87.0, J_C=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        # 5e9 steps per hold; and an update count that overflows a float.
        with pytest.raises(ValueError, match="gates, more than the"):
            ProtocolParams(T=1e9)
        with pytest.raises(ValueError, match="needs inf gates"):
            ProtocolParams(dh=5e-324)


def test_params_reject_circuits_too_large_to_compile(monkeypatch):
    from isingbraid import protocol

    # OPT at N_s = 22 is accepted: 22,030 steps of 87 gates, three rotations.
    assert braid_gate_count(ProtocolParams(N_s=22)) == 1_916_613
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        # 40,003 steps of 159,999 gates each.
        with pytest.raises(ValueError, match="6,400,440,000 gates"):
            ProtocolParams(N_s=40000, dh=4.99, T=0.2, dt=0.2)
    # OPT has 138,693 gates: accepted at that limit, rejected one below.
    monkeypatch.setattr(protocol, "MAX_BRAID_GATES", 138_693)
    ProtocolParams()
    monkeypatch.setattr(protocol, "MAX_BRAID_GATES", 138_692)
    with pytest.raises(ValueError, match="138,693 gates"):
        ProtocolParams()


def test_weak_phase_separation_warns_not_errors():
    with pytest.warns(AdiabaticityWarning):
        ProtocolParams(h_para=1.0)


def test_adiabaticity_warning():
    with pytest.warns(AdiabaticityWarning):
        ProtocolParams(dt=2.0, T=2.0, dh=1.0)  # margin = 2 < 10


def test_register_properties():
    assert OPT.chain_len == 3
    assert OPT.n_qubits == 7
    assert OPT.coupler_qubit == 3
    assert OPT.domain_qubits == (0, 1, 2)
    assert OPT.data_qubits == (0, 1, 2, 4, 5, 6)


def test_schedule_arithmetic_optimal_row():
    assert updates_per_shift(OPT) == 100  # ceil((5 - 0.01)/0.05)
    assert rotation_count(OPT) == 3  # ceil(pi / (pi/3))
    assert steps_per_hold(OPT) == 10  # 2 / 0.2
    sched = build_field_schedule(OPT, include_rotation=True)
    assert count_trotter_steps(OPT, sched) == 6030  # 10 * (6*100 + 3)
    rotations = [e for e in sched.events if isinstance(e, RotateCoupler)]
    assert len(rotations) == 3
    assert sum(e.angle for e in rotations) == pytest.approx(math.pi)


def test_rotation_clamping_on_non_divisible_theta():
    p = ProtocolParams(theta=1.0, Gamma=0.4)
    sched = build_field_schedule(p, include_rotation=True)
    angles = [e.angle for e in sched.events if isinstance(e, RotateCoupler)]
    assert len(angles) == 3
    assert angles[:2] == [0.4, 0.4]
    assert angles[2] == pytest.approx(0.2)


def test_schedule_field_invariants():
    sched = build_field_schedule(FAST, include_rotation=False)
    midpoint = 0.5 * (FAST.h_ferro + FAST.h_para)
    for ev in sched.events:
        assert isinstance(ev, SetFields)
        assert all(FAST.h_ferro <= h <= FAST.h_para for h in ev.fields)
        # simultaneous extend/contract conserves the domain size; mid-shift
        # both boundary sites sit at intermediate fields, so count against
        # the ferro/para midpoint rather than J
        assert sum(1 for h in ev.fields if h < midpoint) == FAST.N_s // 2
    first, last = sched.events[0].fields, sched.events[-1].fields
    assert last == initial_fields(FAST)
    # first update has moved the boundary fields by exactly dh
    f0 = initial_fields(FAST)
    assert first[3] == pytest.approx(f0[3] - FAST.dh)
    assert first[0] == pytest.approx(f0[0] + FAST.dh)


def test_schedule_palindrome_without_rotation():
    # full trajectory (initial configuration + every update) reads the same
    # forwards and backwards; exact only when dh divides h_para - h_ferro,
    # otherwise the clamp offsets the up and down ladders
    p = ProtocolParams(h_ferro=0.5, dh=0.5, T=0.5, dt=0.2)
    sched = build_field_schedule(p, include_rotation=False)
    trajectory = [initial_fields(p)] + [e.fields for e in sched.events]
    assert trajectory == trajectory[::-1]


def test_steps_per_hold_rejects_sub_step_holds():
    with pytest.raises(ValueError):
        steps_per_hold(FAST, 0.1)


def test_initialization_states():
    n = OPT.n_qubits

    def domain_marginal(label):
        state = run(zero_state(n), initialization_circuit(OPT, label,
                                                          include_coupler_prep=False))
        # para sites in |+>, coupler |0>: amplitude of domain component d is
        # amp[d] * (1/sqrt(2))^3 at every para assignment; read off d block
        return state.amplitudes

    amps = domain_marginal(LogicalLabel.L0)
    assert amps[0b000] == pytest.approx(_SQ2 * _SQ2**3)
    assert amps[0b111] == pytest.approx(_SQ2 * _SQ2**3)
    amps = domain_marginal(LogicalLabel.L1)
    assert amps[0b111] == pytest.approx(-_SQ2 * _SQ2**3)
    amps = domain_marginal(LogicalLabel.ALL_DOWN)
    assert amps[0b111] == pytest.approx(_SQ2**3)
    amps = domain_marginal(LogicalLabel.ALL_UP)
    assert amps[0b000] == pytest.approx(_SQ2**3)


def test_coupler_prep_variants():
    for prep, expected in [
        ("RX_half_pi", np.array([_SQ2, -1j * _SQ2])),
        ("H", np.array([_SQ2, _SQ2])),
        ("RY_half_pi", np.array([_SQ2, _SQ2])),
    ]:
        p = ProtocolParams(coupler_prep=prep)
        state = run(zero_state(p.n_qubits),
                    initialization_circuit(p, LogicalLabel.ALL_UP,
                                           include_coupler_prep=True))
        # contract all non-coupler qubits against their known product state
        amps = state.amplitudes.reshape([2] * p.n_qubits)  # axis 0 = qubit 6
        coupler_axis = p.n_qubits - 1 - p.coupler_qubit
        sub = np.moveaxis(amps, coupler_axis, 0).reshape(2, -1)
        coupler_vec = sub @ sub[0].conj() / np.linalg.norm(sub[0])
        phase = coupler_vec[0] / expected[0]
        assert np.allclose(coupler_vec, phase * expected, atol=1e-12)


def test_domain_amplitudes_theta_pi_swaps_all_up_to_all_down():
    a, b = domain_amplitudes(LogicalLabel.ALL_UP, math.pi)
    # RZ(-pi) maps |+>_L to |->_L: ALL_UP -> ALL_DOWN up to global phase
    assert abs(a) == pytest.approx(0.0, abs=1e-12)
    assert abs(b) == pytest.approx(1.0)
    a, b = domain_amplitudes(LogicalLabel.ALL_UP, 0.0)
    assert (abs(a), abs(b)) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))
    # L0 stays a logical-basis state for any theta (only a relative phase)
    a, b = domain_amplitudes(LogicalLabel.L0, 1.234)
    assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0)


def test_target_prep_circuit_builds_target_chain_state():
    for label in LogicalLabel:
        for theta in (0.0, math.pi, 0.7):
            a, b = domain_amplitudes(label, theta)
            tgt = target_chain_state(OPT, a, b)
            state = run(zero_state(OPT.n_qubits), target_prep_circuit(OPT, a, b))
            got = chain_fidelity(state, tgt, OPT.coupler_qubit)
            assert got == pytest.approx(1.0, abs=1e-10)


def test_chain_fidelity_traces_out_coupler():
    a, b = domain_amplitudes(LogicalLabel.ALL_UP, 0.0)
    tgt = target_chain_state(OPT, a, b)
    prep = target_prep_circuit(OPT, a, b)
    state = run(zero_state(OPT.n_qubits), prep)
    # flipping the coupler must not change the chain fidelity
    from isingbraid.circuit import Circuit, Gate, GateKind

    flipped = run(state, Circuit(7, (Gate(GateKind.X, (3,)),)))
    assert chain_fidelity(flipped, tgt, 3) == pytest.approx(
        chain_fidelity(state, tgt, 3), abs=1e-12
    )


def _chain_fidelity_by_masks(state, target_chain, coupler_qubit):
    """``chain_fidelity`` with the coupler's halves picked out by boolean
    masks over the basis indices."""
    bit = (np.arange(state.amplitudes.size) >> coupler_qubit) & 1
    total = 0.0
    for b in (0, 1):
        total += abs(np.vdot(target_chain, state.amplitudes[bit == b])) ** 2
    return float(min(max(total, 0.0), 1.0))


@pytest.mark.parametrize("n_s", [6, 10, 14])
def test_chain_fidelity_equals_its_mask_form_bit_for_bit(n_s):
    p = ProtocolParams(N_s=n_s)
    rng = np.random.default_rng(n_s)
    for label in LogicalLabel:
        a, b = domain_amplitudes(label, 0.7)
        tgt = target_chain_state(p, a, b)
        amps = run(zero_state(p.n_qubits), target_prep_circuit(p, a, b)).amplitudes
        noise = rng.normal(size=amps.size) + 1j * rng.normal(size=amps.size)
        amps = amps + 0.3 * noise / math.sqrt(amps.size)
        state = QuantumState(p.n_qubits, amps / np.linalg.norm(amps))
        got = chain_fidelity(state, tgt, p.coupler_qubit)
        assert 0.5 < got < 1.0
        assert got == _chain_fidelity_by_masks(state, tgt, p.coupler_qubit)


def test_resolve_scenario():
    eff, prep, rot, theta = resolve_scenario(OPT, "translate_no_coupler")
    assert eff.J_C == 0.0 and not prep and not rot and theta == 0.0
    eff, prep, rot, theta = resolve_scenario(OPT, "translate_with_coupler")
    assert eff.J_C == OPT.J_C and prep and not rot and theta == 0.0
    eff, prep, rot, theta = resolve_scenario(OPT, "braid")
    assert rot and theta == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        resolve_scenario(OPT, "teleport")


def test_build_circuit_step_counts_and_modes():
    sched = build_field_schedule(FAST, include_rotation=False)
    n_steps = count_trotter_steps(FAST, sched)
    for mode in ("stepped", "linear"):
        p = ProtocolParams(dh=0.5, T=0.5, dt=0.2, update_mode=mode)
        circ = build_protocol_circuit(p, sched)
        # same gate count in both modes; only angles differ
        assert len(circ) == n_steps * 23


def test_walk_schedule_entries_per_mode():
    sched = build_field_schedule(FAST, include_rotation=True)
    n_steps = steps_per_hold(FAST)
    holds = [e for e in sched.events if isinstance(e, SetFields)]
    rotations = [e for e in sched.events if isinstance(e, RotateCoupler)]
    stepped = list(walk_schedule(FAST, sched))
    linear = list(walk_schedule(replace(FAST, update_mode="linear"), sched))
    # Both modes: one entry per event, each rotation as it is.
    for entries in (stepped, linear):
        assert len(entries) == len(sched)
        assert [e for e in entries if isinstance(e, RotateCoupler)] == rotations
    # stepped: one row, the event's fields, repeated for every step of the hold
    stepped_holds = [e for e in stepped if isinstance(e, tuple)]
    for (rows, repeats), event in zip(stepped_holds, holds, strict=True):
        assert rows.shape == (1, FAST.N_s) and repeats == n_steps
        assert rows[0].tolist() == list(event.fields)
    # linear: one row per step, each taken once, interpolated from the
    # previous hold's fields (the initial ones first) towards the event's,
    # bit for bit as one step at a time would interpolate them
    linear_holds = [e for e in linear if isinstance(e, tuple)]
    assert sum(len(rows) * repeats for rows, repeats in linear_holds) == (
        count_trotter_steps(FAST, sched))
    prev = np.asarray(initial_fields(FAST))
    for (rows, repeats), event in zip(linear_holds, holds, strict=True):
        assert rows.shape == (n_steps, FAST.N_s) and repeats == 1
        target = np.asarray(event.fields)
        for m, row in enumerate(rows, 1):
            assert row.tobytes() == (prev + (m / n_steps) * (target - prev)).tobytes()
        assert np.allclose(rows[-1], target, rtol=0, atol=1e-12)
        prev = target


def _gate_bits(gates):
    """Gates as comparable tuples, each angle by its exact bits."""
    return [(g.kind, g.qubits, None if g.angle is None else g.angle.hex())
            for g in gates]


@pytest.mark.parametrize("N_s", [6, 10])
@pytest.mark.parametrize("mode", ["stepped", "linear"])
@pytest.mark.parametrize("J_C", [0.0, 0.3])
def test_circuit_is_the_step_circuits_of_the_walked_entries(N_s, mode, J_C):
    p = replace(FAST, N_s=N_s, J_C=J_C, update_mode=mode)
    sched = build_field_schedule(p, include_rotation=True)
    expected = []
    for item in walk_schedule(p, sched):
        if isinstance(item, RotateCoupler):
            expected.append(Gate(GateKind.RY, (p.coupler_qubit,), item.angle))
            continue
        rows, repeats = item
        for fields in rows:
            step = trotter_step_circuit(chain_config(p, fields), p.dt).gates
            expected.extend(step * repeats)
    assert any(g.kind is GateKind.RY for g in expected)
    assert _gate_bits(build_protocol_circuit(p, sched).gates) == _gate_bits(expected)


@pytest.mark.parametrize("mode", ["stepped", "linear"])
def test_steps_share_an_rx_gate_exactly_when_its_angle_bits_repeat(mode):
    p = replace(FAST, update_mode=mode)
    sched = build_field_schedule(p, include_rotation=True)
    rx = [g for g in build_protocol_circuit(p, sched) if g.kind is GateKind.RX]
    steps = [rx[k:k + p.N_s] for k in range(0, len(rx), p.N_s)]
    assert len(steps) == count_trotter_steps(p, sched)
    shared = 0
    # Across holds and across coupler rotations too.
    for before, after in zip(steps, steps[1:]):
        for a, b in zip(before, after):
            assert (a is b) == (a.angle.hex() == b.angle.hex())
            shared += a is b
    assert shared > 0


@pytest.mark.parametrize("mode", ["stepped", "linear"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_field_raises_circuit_error(mode, bad):
    fields = list(initial_fields(FAST))
    fields[2] = bad
    sched = FieldSchedule((SetFields(tuple(fields), FAST.T),))
    with pytest.raises(CircuitError, match="finite"):
        build_protocol_circuit(replace(FAST, update_mode=mode), sched)


@pytest.mark.parametrize("mode", ["stepped", "linear"])
def test_wrong_field_count_raises_before_any_entry(mode):
    p = replace(FAST, update_mode=mode)
    with pytest.raises(ValueError, match="need 6 field values, got 1"):
        build_protocol_circuit(p, FieldSchedule((SetFields((1.0,), 2.0),)))
    # A bad hold late in the schedule stops the walk before its first entry.
    sched = FieldSchedule((
        SetFields(initial_fields(p), p.T),
        RotateCoupler(0.5),
        SetFields((1.0,) * 7, p.T),
    ))
    with pytest.raises(ValueError, match="got 7"):
        next(walk_schedule(p, sched))


def test_walk_schedule_checks_the_schedule_when_called():
    sched = FieldSchedule((SetFields(initial_fields(FAST), FAST.T),
                           SetFields((1.0,) * 7, FAST.T)))
    with pytest.raises(ValueError, match="got 7"):
        walk_schedule(FAST, sched)


def test_run_scenario_rejects_large_register_before_compiling(monkeypatch):
    import isingbraid.protocol as protocol

    def refuse(*args):
        raise AssertionError("compiled before the register size was checked")

    monkeypatch.setattr(protocol, "compile_scenario", refuse)
    with pytest.raises(ValueError, match="32 GiB"):
        run_scenario(replace(FAST, N_s=30), "braid", LogicalLabel.ALL_UP)


def test_compile_scenario_builds_dense_vectors_on_first_read():
    run_ = compile_scenario(FAST, "braid", LogicalLabel.ALL_UP)
    assert "final_state" not in vars(run_) and "target_chain" not in vars(run_)
    assert run_.final_state is run_.final_state
    assert "final_state" in vars(run_)


def test_empty_schedule_gives_empty_circuit():
    assert len(build_protocol_circuit(FAST, FieldSchedule(()))) == 0


def test_translation_round_trip_fast_params():
    # coarse schedule: structural check that transport returns the domain
    report = run_scenario(FAST, "translate_no_coupler", LogicalLabel.L0)
    assert report.exact_fidelity > 0.4
    assert report.trotter_steps == count_trotter_steps(
        FAST, build_field_schedule(FAST, include_rotation=False)
    )
    assert 0 <= report.sampled_fidelity <= 1
    assert report.depth_evolution_only <= report.depth_total


def test_braid_theta_zero_equals_translate_with_coupler():
    p = ProtocolParams(dh=0.5, T=0.5, dt=0.2, theta=0.0)
    braid = run_scenario(p, "braid", LogicalLabel.ALL_UP)
    trans = run_scenario(p, "translate_with_coupler", LogicalLabel.ALL_UP)
    assert braid.exact_fidelity == pytest.approx(trans.exact_fidelity, abs=1e-12)
    assert braid.trotter_steps == trans.trotter_steps


def test_sampled_fidelity_matches_exact_within_error():
    report = run_scenario(FAST, "translate_with_coupler", LogicalLabel.ALL_UP)
    assert report.sampled_fidelity == pytest.approx(
        report.exact_fidelity, abs=5 * report.sampled_stderr + 1e-3
    )


def test_readout_counts_deterministic():
    run_ = compile_scenario(FAST, "translate_with_coupler", LogicalLabel.ALL_UP)
    c1 = readout_counts(run_, seed=3)
    c2 = readout_counts(run_, seed=3)
    assert c1 == c2
    p, err = sampled_fidelity_from_counts(c1, FAST.data_qubits)
    assert 0 <= p <= 1 and err >= 0


def test_report_embeds_full_params():
    report = run_scenario(FAST, "braid", LogicalLabel.ALL_UP)
    d = report.to_dict()
    assert set(d["params"]) == {
        "N_s", "J", "J_C", "h_ferro", "h_para", "dt", "dh", "T", "Gamma",
        "theta", "shots", "seed", "update_mode", "coupler_prep",
    }
    assert d["scenario"] == "braid"
    assert d["bound_values"]["adiabatic_margin"] > 0

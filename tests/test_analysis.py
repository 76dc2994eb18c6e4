import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isingbraid import analysis
from isingbraid.analysis import (
    MAX_DENSE_QUBITS,
    adiabatic_margin,
    commutator_bounds,
    commutator_norms,
    dense_hamiltonian,
    dense_summands,
    exact_evolve,
    expm_hermitian,
    operator_norm,
    pauli_string,
    per_step_error_bound,
    total_error_bound,
)
from isingbraid.circuit import Gate, GateKind
from isingbraid.protocol import (
    STEP_DEPTH,
    LogicalLabel,
    ProtocolParams,
    depth_upper_bound,
)
from isingbraid.schedule import (
    FieldSchedule,
    RotateCoupler,
    SetFields,
    build_field_schedule,
    chain_config,
    count_trotter_steps,
    initial_fields,
    walk_schedule,
)
from isingbraid.statevector import (
    MAX_QUBITS,
    QuantumState,
    apply_gate_inplace,
    fidelity,
    zero_state,
)
from isingbraid.trotter import ChainConfig, trotter_step_circuit

from dense_reference import dense_unitary, phase_aligned_distance

OPT = ProtocolParams()  # high-fidelity row
EFF = ProtocolParams(dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)  # efficient row

CFG6 = ChainConfig(chain_len=3, J=1.0, J_C=0.3, fields=(0.01, 0.01, 0.01, 5, 5, 5))


def test_pauli_string_little_endian():
    z0 = pauli_string(2, {0: "z"})
    assert np.allclose(z0, np.diag([1, -1, 1, -1]))  # qubit 0 is the LSB
    x1 = pauli_string(2, {1: "x"})
    expected = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    assert np.allclose(x1, expected)


def test_expm_hermitian_unitary_and_correct():
    z = pauli_string(1, {0: "z"})
    u = expm_hermitian(z, 0.5)
    assert np.allclose(u, np.diag([np.exp(-0.5j), np.exp(0.5j)]))


def test_phase_aligned_distance_ignores_global_phase():
    u = np.eye(4)
    assert phase_aligned_distance(u, np.exp(0.73j) * u) == pytest.approx(0.0, abs=1e-12)


def test_per_step_bound_values():
    assert per_step_error_bound(OPT) == pytest.approx(1.32)  # (6+0.6)*5*0.04
    assert per_step_error_bound(EFF) == pytest.approx((6 + 0.6) * 1.5 * 0.49)


def test_per_step_bound_quadratic_in_dt():
    from dataclasses import replace

    assert per_step_error_bound(replace(OPT, dt=0.4)) == pytest.approx(4 * 1.32)


def test_total_bound_value():
    assert total_error_bound(OPT) == pytest.approx(7920.0)  # 6*100*10*1.32


def test_adiabatic_margin_values():
    assert adiabatic_margin(OPT) == pytest.approx(400.0)
    assert adiabatic_margin(EFF) == pytest.approx(400 / 7, rel=1e-12)  # ~57.1


def test_depth_bound_values():
    d_opt = depth_upper_bound(OPT)
    assert d_opt.real == pytest.approx(72360.0)
    assert d_opt.integer == 72360
    d_eff = depth_upper_bound(EFF)
    assert d_eff.real == pytest.approx(3154.3, abs=0.05)
    # rounded conventions: 3 steps/hold, 15 updates/shift, 2 rotations
    assert d_eff.integer == STEP_DEPTH * 3 * (6 * 15 + 2)


def test_depth_bound_linear_in_system_size():
    from dataclasses import replace

    sizes = np.array([6, 10, 14, 18, 22], dtype=float)
    depths = np.array(
        [depth_upper_bound(replace(OPT, N_s=int(n))).real for n in sizes]
    )
    slope, intercept = np.polyfit(sizes, depths, 1)
    predicted = slope * sizes + intercept
    ss_res = np.sum((depths - predicted) ** 2)
    ss_tot = np.sum((depths - depths.mean()) ** 2)
    assert 1 - ss_res / ss_tot > 0.999


def test_commutator_bounds_values():
    bounds = commutator_bounds(CFG6)
    # first layer holds pairs (0,1) and (3,4); second (1,2) and (4,5)
    assert bounds["zz_first_zeeman"] == pytest.approx(2 * (0.01 + 0.01) + 2 * (5 + 5))
    assert bounds["zz_second_zeeman"] == pytest.approx(2 * (0.01 + 0.01) + 2 * (5 + 5))
    assert bounds["zeeman_coupler"] == pytest.approx(2 * 0.3 * (0.01 + 5))


def test_commutator_bound_zero_cases():
    no_field = ChainConfig(chain_len=3, J=1.0, J_C=0.3, fields=(0,) * 6)
    rep = commutator_norms(no_field)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in rep.exact.values())
    no_coupler = ChainConfig(chain_len=3, J=1.0, J_C=0.0, fields=CFG6.fields)
    rep = commutator_norms(no_coupler)
    assert rep.exact["zeeman_coupler"] == pytest.approx(0.0, abs=1e-12)


def test_commutator_norms_within_bounds_random_fields():
    rng = np.random.default_rng(123)
    for _ in range(20):
        fields = tuple(rng.uniform(0.0, 6.0, size=6))
        cfg = ChainConfig(chain_len=3, J=1.0, J_C=float(rng.uniform(0, 1)),
                          fields=fields)
        rep = commutator_norms(cfg)
        for key, bound in rep.bounds.items():
            assert rep.exact[key] <= bound * (1 + 1e-12) + 1e-12
        assert rep.max_vanishing_norm <= 1e-12


def test_exact_evolve_zero_schedule_is_identity():
    initial = zero_state(OPT.n_qubits)
    out = exact_evolve(FieldSchedule(()), OPT, initial)
    assert fidelity(out, initial) == pytest.approx(1.0)


def test_exact_evolve_single_hold_vs_trotter_steps():
    p = ProtocolParams(T=2.0, dt=0.2)
    fields = initial_fields(p)
    sched = FieldSchedule((SetFields(tuple(fields), p.T),))
    initial = zero_state(p.n_qubits)
    exact = exact_evolve(sched, p, initial)
    # 10 Trotter steps at the same fields
    from isingbraid.protocol import build_protocol_circuit
    from isingbraid.schedule import chain_config
    from isingbraid.statevector import run

    circ = build_protocol_circuit(p, sched)
    trotterized = run(initial, circ)
    k = 10
    bound = k * per_step_error_bound(p)
    err = np.linalg.norm(exact.amplitudes - trotterized.amplitudes)
    # state-vector distance bounded by phase-aligned operator distance
    assert 1 - fidelity(exact, trotterized) <= bound
    assert err >= 0  # sanity


def test_linear_multi_event_schedule_gate_level_matches_exact():
    # FAST params with a short step, and one field update per shift so the
    # summed per-step bounds stay below 1: 12 events with three rotations,
    # 36 linearly interpolated steps.
    import warnings
    from dataclasses import replace

    from isingbraid.protocol import compile_scenario
    from isingbraid.schedule import count_trotter_steps
    from isingbraid.statevector import run

    fast = ProtocolParams(dh=0.5, T=0.5, dt=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = replace(fast, update_mode="linear", dt=0.02, T=0.08, dh=5.0)
    compiled = compile_scenario(p, "braid", LogicalLabel.ALL_UP)
    assert len(compiled.schedule) == 12
    initial = run(zero_state(p.n_qubits), compiled.init_circuit)
    exact = exact_evolve(compiled.schedule, p, initial)
    trotterized = run(initial, compiled.evolution_circuit)
    bound = count_trotter_steps(p, compiled.schedule) * per_step_error_bound(p)
    assert bound < 1
    assert np.linalg.norm(exact.amplitudes - trotterized.amplitudes) <= bound


def test_exact_evolve_rejects_oversized_register(monkeypatch):
    def allocate(cfg):
        pytest.fail("allocated before the register's bytes were checked")

    monkeypatch.setattr(analysis, "_diagonal_and_flips", allocate)
    # N_s = 20 would need about 1.3 GiB, more than the 1 GiB of the largest
    # state the engine holds; N_s = 18 needs about 300 MiB and is admitted.
    big = replace(OPT, N_s=20)
    need = analysis._evolve_bytes(big.n_qubits, (), [])
    assert need > 16 << MAX_QUBITS >= analysis._evolve_bytes(19, (), [])
    with pytest.raises(ValueError, match=f"would need about {need} bytes"):
        exact_evolve(FieldSchedule(()), big, zero_state(big.n_qubits))
    with pytest.raises(ValueError, match="register mismatch"):
        exact_evolve(FieldSchedule(()), OPT, zero_state(OPT.n_qubits + 1))


def test_dense_constructions_reject_registers_above_the_cap():
    with pytest.raises(ValueError, match=f"limited to {MAX_DENSE_QUBITS} qubits"):
        pauli_string(MAX_DENSE_QUBITS + 1, {0: "z"})
    cfg = ChainConfig(chain_len=5, J=1.0, J_C=0.3, fields=(1.0,) * 10)
    assert cfg.n_qubits > MAX_DENSE_QUBITS
    with pytest.raises(ValueError, match="small registers"):
        commutator_norms(cfg)


# Each builder checks the cap before it allocates its 2**11 x 2**11 matrix
# (64 MiB), the coupler's also where J_C = 0 makes it a zero matrix.
@pytest.mark.parametrize("build", [
    lambda cfg: analysis.dense_zz_layer(cfg, analysis.first_layer_pairs(cfg)),
    analysis.dense_zeeman,
    analysis.dense_coupler,
    lambda cfg: analysis.dense_coupler(replace(cfg, J_C=0.0)),
], ids=["zz_layer", "zeeman", "coupler", "coupler-J_C=0"])
def test_dense_builders_reject_registers_above_the_cap_before_allocating(build):
    cfg = ChainConfig(chain_len=5, J=1.0, J_C=0.3, fields=(1.0,) * 10)
    assert cfg.n_qubits == MAX_DENSE_QUBITS + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limited to {MAX_DENSE_QUBITS} qubits"):
            build(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def random_state(n_qubits: int, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return QuantumState(n_qubits, amps / np.linalg.norm(amps))


def dense_evolve(schedule, params, initial):
    """The dense per-step reference: exp(-i H dt) of the dense H for every
    row of fields of each walked hold, applied ``repeats`` times."""
    amps = initial.amplitudes.copy()
    for item in walk_schedule(params, schedule):
        if isinstance(item, RotateCoupler):
            apply_gate_inplace(amps, initial.n_qubits,
                               Gate(GateKind.RY, (params.coupler_qubit,), item.angle))
            continue
        rows, repeats = item
        for fields in rows:
            u = expm_hermitian(dense_hamiltonian(chain_config(params, fields)),
                               params.dt)
            for _ in range(repeats):
                amps = u @ amps
    return amps


@pytest.mark.parametrize("mode", ["linear", "stepped"])
@pytest.mark.parametrize("n_s", [6, 8])
def test_exact_evolve_matches_dense_reference(n_s, mode):
    p = ProtocolParams(N_s=n_s, dt=0.3, T=0.6, update_mode=mode)
    rng = np.random.default_rng(n_s)
    hold = [SetFields(tuple(rng.uniform(0.0, p.h_para, n_s)), p.T) for _ in range(4)]
    sched = FieldSchedule((hold[0], hold[1], RotateCoupler(math.pi / 3), hold[2],
                           RotateCoupler(0.4), SetFields(hold[3].fields, p.dt)))
    initial = random_state(p.n_qubits, n_s)
    out = exact_evolve(sched, p, initial)
    assert np.abs(out.amplitudes - dense_evolve(sched, p, initial)).max() <= 1e-10


def sparse_pauli(n_qubits, ops):
    """A Pauli string as a sparse matrix, qubit 0 the least significant."""
    sparse = pytest.importorskip("scipy.sparse")
    paulis = {"i": np.eye(2), "x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]],
              "z": [[1, 0], [0, -1]]}
    m = sparse.identity(1, dtype=complex, format="csr")
    for q in range(n_qubits):
        m = sparse.kron(np.array(paulis[ops.get(q, "i")], dtype=complex), m,
                        format="csr")
    return m


def sparse_hamiltonian(params, fields):
    """H of the register layout (left chain on qubits 0 .. L-1, the coupler
    on L, the right chain on L+1 .. 2L), written out term by term:
    -J Z Z on each bond within a chain, -J_C Z Z Z across the coupler, and
    -h X on each chain site."""
    n, half = params.n_qubits, params.chain_len
    sites = [*range(half), *range(half + 1, n)]
    bonds = [(q, q + 1) for q in sites if q + 1 in sites and q != half - 1]
    h = sum(-params.J * sparse_pauli(n, {a: "z", b: "z"}) for a, b in bonds)
    h = h - params.J_C * sparse_pauli(n, {half - 1: "z", half: "z", half + 1: "z"})
    for q, hq in zip(sites, fields):
        h = h - hq * sparse_pauli(n, {q: "x"})
    return h


@pytest.mark.parametrize("mode", ["linear", "stepped"])
def test_exact_evolve_at_ten_sites_matches_a_sparse_reference(mode):
    expm_multiply = pytest.importorskip("scipy.sparse.linalg").expm_multiply
    p = ProtocolParams(N_s=10, dt=0.3, T=0.6, update_mode=mode)
    rng = np.random.default_rng(10)
    holds = [tuple(rng.uniform(0.0, p.h_para, p.N_s)) for _ in range(2)]
    angle = math.pi / 3
    sched = FieldSchedule((SetFields(holds[0], p.T), RotateCoupler(angle),
                           SetFields(holds[1], p.T)))
    initial = random_state(p.n_qubits, 10)
    out = exact_evolve(sched, p, initial)
    # The walk gives the rows of fields; each is applied by expm_multiply.
    amps = initial.amplitudes
    ry = (math.cos(angle / 2) * sparse_pauli(p.n_qubits, {})
          - 1j * math.sin(angle / 2) * sparse_pauli(p.n_qubits, {p.chain_len: "y"}))
    for item in walk_schedule(p, sched):
        if isinstance(item, RotateCoupler):
            amps = ry @ amps
            continue
        rows, repeats = item
        for fields in rows:
            h = sparse_hamiltonian(p, fields)
            amps = expm_multiply(-1j * repeats * p.dt * h, amps)
    assert np.abs(out.amplitudes - amps).max() <= 1e-10


# Each extend/contract update keeps the sum of the fields, and so the
# argument x = r * dt of every step, up to its last bits: the EFF braid's
# 276 steps take 2 distinct arguments and the OPT braid's 6,030 take 4.
@pytest.mark.parametrize("p, distinct", [(EFF, 2), (OPT, 4)], ids=["eff", "opt"])
def test_exact_evolve_expands_each_distinct_argument_once(monkeypatch, p, distinct):
    p = replace(p, update_mode="linear")
    sched = build_field_schedule(p, include_rotation=True)
    args = []
    bessel = analysis._bessel_j

    def counted(x):
        args.append(x)
        return bessel(x)

    monkeypatch.setattr(analysis, "_bessel_j", counted)
    exact_evolve(sched, p, zero_state(p.n_qubits))
    assert len(args) == len(set(args)) == distinct
    assert count_trotter_steps(p, sched) > 100 * distinct


# The first events of the EFF braid, the whole braid (276 rows of fields in
# 92 holds), and one long stepped hold whose Bessel recurrence (x about
# 1e4) is a sizeable part of the estimate.
@pytest.mark.parametrize("n_s, mode, events, hold", [
    (6, "linear", 4, None), (8, "linear", 4, None), (10, "stepped", 4, None),
    (12, "linear", 4, None), (6, "linear", None, None), (6, "stepped", 0, 500.0)])
def test_exact_evolve_peaks_within_its_estimate(monkeypatch, n_s, mode, events,
                                                hold):
    p = replace(EFF, N_s=n_s, update_mode=mode)
    braid = build_field_schedule(p, include_rotation=True).events
    if hold is not None:
        sched = FieldSchedule((SetFields(initial_fields(p), hold),))
    elif events is None:
        sched = FieldSchedule(braid)
    else:
        sched = FieldSchedule(braid[:events] + (RotateCoupler(0.4),))
    estimates = []
    estimate = analysis._evolve_bytes

    def recorded(n_qubits, bessel, holds):
        estimates.append(estimate(n_qubits, bessel, holds))
        return estimates[-1]

    monkeypatch.setattr(analysis, "_evolve_bytes", recorded)
    initial = zero_state(p.n_qubits)
    tracemalloc.start()
    try:
        exact_evolve(sched, p, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [need] = estimates
    assert peak <= need
    # And not far above: the peak is 0.90-0.99 of it in these cases.
    assert need <= 1.25 * peak


@pytest.mark.parametrize("mode", ["linear", "stepped"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_exact_evolve_rejects_a_bad_last_hold_before_allocating(monkeypatch, mode,
                                                               bad):
    def allocate(cfg):
        pytest.fail("allocated before the last hold was checked")

    monkeypatch.setattr(analysis, "_diagonal_and_flips", allocate)
    p = ProtocolParams(update_mode=mode)
    fields = list(initial_fields(p))
    fields[-1] = bad
    sched = FieldSchedule((SetFields(initial_fields(p), p.T), RotateCoupler(0.5),
                           SetFields(initial_fields(p), p.T),
                           SetFields(tuple(fields), p.T)))
    with pytest.raises(ValueError, match="finite Chebyshev argument"):
        exact_evolve(sched, p, zero_state(p.n_qubits))


def test_exact_evolve_basis_state_without_fields_is_diagonal_phase():
    # With every field zero, H is diagonal: a basis state is an eigenvector,
    # every Chebyshev vector T_k(A) v stays on that one basis state, and
    # the amplitudes off it stay exactly zero.
    p = ProtocolParams()
    sched = FieldSchedule((SetFields((0.0,) * p.N_s, p.T),))
    k = 0b1011001
    initial = QuantumState(p.n_qubits, np.eye(1 << p.n_qubits)[k])
    out = exact_evolve(sched, p, initial).amplitudes
    energy = dense_hamiltonian(chain_config(p, (0.0,) * p.N_s))[k, k].real
    assert np.count_nonzero(out) == 1
    assert abs(out[k] - np.exp(-1j * energy * p.T)) <= 1e-14


# One stepped hold of 100 or 120 steps: x = r t, the argument of the Bessel
# coefficients, is about 371 at T = 20 and 445 at T = 24, past 400.
@pytest.mark.parametrize("hold", [20.0, 24.0])
def test_exact_evolve_long_stepped_hold_matches_dense_reference(hold):
    p = ProtocolParams(T=hold)
    fields = tuple(np.random.default_rng(5).uniform(0.0, p.h_para, p.N_s))
    initial = random_state(p.n_qubits, 5)
    out = exact_evolve(FieldSchedule((SetFields(fields, p.T),)), p, initial)
    u = expm_hermitian(dense_hamiltonian(chain_config(p, fields)), p.T)
    assert np.abs(out.amplitudes - u @ initial.amplitudes).max() <= 1e-10
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


# From x = 1e-9 to x = 1e3, well past the longest hold the tests run, and
# x = 1e-12 and 1e-14. The backward recurrence passes 1e250 and is rescaled
# only below about x = 5e-12, and would overflow without that below about
# 1e-14; x = r t, so a valid dt = 1e-13 gives such an x.
@pytest.mark.parametrize("x", [*np.logspace(-9, 3, 25), 1e-12, 1e-14])
def test_bessel_coefficients_match_scipy_and_stop_at_the_tolerance(x):
    jv = pytest.importorskip("scipy.special").jv
    j = analysis._bessel_j(x)
    last = j.size - 1
    ref = jv(np.arange(last + 1), x)
    np.testing.assert_allclose(j, ref, rtol=1e-12, atol=1e-13)
    # J_K is the last coefficient of size CHEBYSHEV_TOL or more: every
    # order past it is smaller (the factor allows for scipy's rounding).
    assert abs(ref[last]) >= analysis.CHEBYSHEV_TOL * (1 - 1e-6)
    tail = np.abs(jv(np.arange(last + 1, last + 60), x))
    assert tail.max() < analysis.CHEBYSHEV_TOL * (1 + 1e-6)


def _bessel_j_from(x, top):
    """J_0(x), ..., J_top(x) by Miller's recurrence started at ``top``,
    with the rescaling and normalisation of ``analysis._bessel_j``."""
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] = [v * 1e-250 for v in j[k - 1:]]
    jk = np.array(j[:-1])
    return jk / (jk[0] + 2.0 * jk[2::2].sum())


@pytest.mark.parametrize("x", np.logspace(-3, 2.5, 23))
def test_bessel_coefficients_match_a_recurrence_started_higher(x):
    # The start order analysis used before, x + 20 x**(1/3) + 40.
    ref = _bessel_j_from(x, int(x + 20.0 * x ** (1.0 / 3.0) + 40.0))
    j = analysis._bessel_j(x)
    assert abs(ref[j.size - 1]) >= analysis.CHEBYSHEV_TOL
    assert np.abs(ref[j.size:]).max() < analysis.CHEBYSHEV_TOL
    assert np.abs(j - ref[:j.size]).max() <= 1e-15


# The recurrence held in a list of Python floats is the reference: held in
# one float64 array, it does the same arithmetic in the same order.
@pytest.mark.parametrize("x", [1e-14, 1e-12, 1e-3, 10.0, 445.0, 3e4])
def test_bessel_coefficients_equal_the_list_recurrence_bit_for_bit(x):
    j = analysis._bessel_j(x)
    ref = _bessel_j_from(x, analysis._miller_start(x))
    assert j.tobytes() == ref[:j.size].tobytes()


# The oracle's Gershgorin radius takes max |d| as sum |c| over the terms of
# zz_terms, without building d: every c is at most 0 and the all-up state
# reaches the sum, in the same order of additions.
@pytest.mark.parametrize("chain_len", [3, 4, 5, 6])
def test_largest_diagonal_is_the_sum_of_the_term_sizes(chain_len):
    for J in (0.7, 1.0, 1.3):
        for J_C in (0.0, 0.123, 0.3, 1.0):
            cfg = ChainConfig(chain_len, J, J_C, (0.0,) * (2 * chain_len))
            d, _ = analysis._diagonal_and_flips(cfg)
            terms = analysis.zz_terms(cfg)
            assert float(np.abs(d).max()) == sum(abs(c) for _, c in terms)


def test_chebyshev_block_stays_within_its_byte_budget():
    budget = analysis.CHEBYSHEV_BLOCK_BYTES
    for n in range(1, 25):
        rows = analysis._block_rows(n)
        assert rows >= 1
        assert rows == 1 or (rows + 2) * 16 << n <= budget
        # As many rows as fit.
        assert (rows + 3) * 16 << n > budget


# The expansion of one stepped hold fills the first block of the work array
# exactly (B + 2 terms: T_0, T_1 and B more), runs one term into a second
# block, or fills two blocks and runs one term into a third.
@pytest.mark.parametrize("extra", [lambda b: 0, lambda b: 1, lambda b: b + 1],
                         ids=["one-block", "one-hand-over", "two-hand-overs"])
def test_exact_evolve_block_hand_over_matches_dense_reference(monkeypatch, extra):
    p = ProtocolParams(dt=0.01)
    # A budget of 34 rows, so B = 32: the search below for a hold of
    # B + 2 + extra terms stays short, and the blocks hand over.
    monkeypatch.setattr(analysis, "CHEBYSHEV_BLOCK_BYTES", 34 * 16 << p.n_qubits)
    fields = tuple(np.random.default_rng(7).uniform(0.0, p.h_para, p.N_s))
    # Gershgorin's radius of H: the largest |diagonal| of the field-free H
    # plus the sum of the fields.
    free = dense_hamiltonian(chain_config(p, (0.0,) * p.N_s))
    radius = np.abs(free.diagonal()).max() + np.sum(fields)
    block = analysis._block_rows(p.n_qubits)
    assert block == 32
    want = block + 2 + extra(block)
    steps = next(m for m in range(1, 10_000)
                 if analysis._bessel_j(radius * m * p.dt).size >= want)
    assert analysis._bessel_j(radius * steps * p.dt).size == want

    sizes = []
    bessel = analysis._bessel_j

    def counted(x):
        j = bessel(x)
        sizes.append(j.size)
        return j

    monkeypatch.setattr(analysis, "_bessel_j", counted)
    initial = random_state(p.n_qubits, 7)
    hold = steps * p.dt
    out = exact_evolve(FieldSchedule((SetFields(fields, hold),)), p, initial)
    assert sizes == [want]
    u = expm_hermitian(dense_hamiltonian(chain_config(p, fields)), hold)
    assert np.abs(out.amplitudes - u @ initial.amplitudes).max() <= 1e-12


@pytest.mark.parametrize("mode", ["linear", "stepped"])
@pytest.mark.parametrize("bad_fields", [(1.0,) * 5, (1.0,)])
def test_exact_evolve_rejects_bad_fields_before_allocating(monkeypatch, mode,
                                                           bad_fields):
    def allocate(cfg):
        pytest.fail("allocated before the schedule was checked")

    monkeypatch.setattr(analysis, "_diagonal_and_flips", allocate)
    p = ProtocolParams(update_mode=mode)
    sched = FieldSchedule((SetFields(initial_fields(p), p.T), RotateCoupler(0.5),
                           SetFields(bad_fields, p.T)))
    with pytest.raises(ValueError, match="field values"):
        exact_evolve(sched, p, zero_state(p.n_qubits))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_exact_evolve_rejects_a_non_finite_chebyshev_argument(bad):
    p = ProtocolParams()
    fields = list(initial_fields(p))
    fields[2] = bad
    sched = FieldSchedule((SetFields(tuple(fields), p.T),))
    # Rejected by the check alone: a field that overflows the radius warns
    # of nothing on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite Chebyshev argument"):
            exact_evolve(sched, p, zero_state(p.n_qubits))


@pytest.mark.parametrize("mode, bad", [("linear", 1e300), ("stepped", 1e9)])
def test_exact_evolve_rejects_a_chebyshev_argument_past_the_recurrence_budget(
        monkeypatch, mode, bad):
    # x = r t is about 2e298 and 2e9 here; the recurrence of _bessel_j
    # would hold a list of about that many floats.
    def expand(x):
        pytest.fail(f"expanded at x = {x}")

    monkeypatch.setattr(analysis, "_bessel_j", expand)
    p = ProtocolParams(update_mode=mode)
    fields = list(initial_fields(p))
    fields[2] = bad
    sched = FieldSchedule((SetFields(tuple(fields), p.T),))
    with pytest.raises(ValueError, match="finite Chebyshev argument"):
        exact_evolve(sched, p, zero_state(p.n_qubits))
    # The budget holds x up to about 2.6e5, far past the 445 of the longest
    # hold the tests expand.
    budget = analysis.CHEBYSHEV_BLOCK_BYTES
    assert 8 * analysis._miller_start(2.6e5) <= budget < 8 * analysis._miller_start(2.7e5)


def _bessel_peak(x):
    """The ``tracemalloc`` peak of one ``_bessel_j`` call, in bytes."""
    tracemalloc.start()
    try:
        analysis._bessel_j(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bessel_recurrence_peaks_within_its_budget_at_the_largest_accepted_x():
    budget = analysis.CHEBYSHEV_BLOCK_BYTES
    # The largest x that the check of exact_evolve accepts, to within 1.
    lo, hi = 1.0, 1e6
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if analysis._bessel_bytes(mid) <= budget else (lo, mid)
    assert analysis._bessel_bytes(lo) <= budget < analysis._bessel_bytes(hi)
    for x in (445.0, lo):
        assert _bessel_peak(x) <= analysis._bessel_bytes(x), x
    assert _bessel_peak(lo) <= budget


def test_exact_evolve_rejects_negative_coupling_before_allocating(monkeypatch):
    def allocate(cfg):
        pytest.fail("allocated before the coupling was checked")

    monkeypatch.setattr(analysis, "_diagonal_and_flips", allocate)
    with pytest.raises(ValueError, match="J_C"):
        ProtocolParams(J_C=-0.3)
    # exact_evolve keeps its own check, for parameters that bypass that one.
    p = ProtocolParams()
    object.__setattr__(p, "J_C", -0.3)
    with pytest.raises(ValueError, match="J_C"):
        exact_evolve(FieldSchedule(()), p, zero_state(p.n_qubits))


def test_dense_summands_compose_to_hamiltonian():
    parts = dense_summands(CFG6)
    h = dense_hamiltonian(CFG6)
    assert np.allclose(sum(parts.values()), h)
    assert np.allclose(h, h.conj().T)


def test_step_unitary_close_to_exact_per_bound():
    for dt in (0.1, 0.2, 0.5):
        cfg = CFG6
        u = dense_unitary(trotter_step_circuit(cfg, dt))
        exact = expm_hermitian(dense_hamiltonian(cfg), dt)
        p = ProtocolParams(dt=dt)
        assert phase_aligned_distance(u, exact) <= per_step_error_bound(p)

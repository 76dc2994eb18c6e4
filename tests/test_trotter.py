import math
from dataclasses import replace

import numpy as np
import pytest

from isingbraid.analysis import (
    _diagonal_and_flips,
    dense_coupler,
    dense_hamiltonian,
    dense_summands,
    dense_zeeman,
    dense_zz_layer,
    expm_hermitian,
    operator_norm,
    pauli_string,
)
from isingbraid.circuit import Circuit, CircuitError, Gate, GateKind, depth
from isingbraid.trotter import (
    ChainConfig,
    extend_trotter_steps,
    first_layer_pairs,
    second_layer_pairs,
    trotter_step_circuit,
    zz_terms,
)

from dense_reference import dense_unitary, phase_aligned_distance, zeeman_circuit

CFG6 = ChainConfig(chain_len=3, J=1.0, J_C=0.3, fields=(0.01, 0.01, 0.01, 5, 5, 5))
DT = 0.2


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(chain_len=2, J=1.0, J_C=0.0, fields=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        ChainConfig(chain_len=3, J=-1.0, J_C=0.0, fields=(1,) * 6)
    with pytest.raises(ValueError):
        ChainConfig(chain_len=3, J=1.0, J_C=-0.1, fields=(1,) * 6)
    with pytest.raises(ValueError):
        ChainConfig(chain_len=3, J=1.0, J_C=0.0, fields=(1,) * 5)
    for site in (-1, 6):
        with pytest.raises(ValueError, match=f"site {site} out of range"):
            CFG6.site_qubit(site)


def test_register_layout():
    assert CFG6.n_qubits == 7
    assert CFG6.coupler_qubit == 3
    assert [CFG6.site_qubit(s) for s in range(6)] == [0, 1, 2, 4, 5, 6]
    assert CFG6.left_end_site == 2
    assert CFG6.right_start_site == 3


def step_parts(cfg: ChainConfig, dt: float = DT) -> list[Circuit]:
    """One step at ``cfg.fields`` cut into its ZZ layer 1, ZZ layer 2,
    Zeeman and coupler gates, each as a circuit of its own."""
    gates = trotter_step_circuit(cfg, dt).gates
    a = 3 * len(first_layer_pairs(cfg))
    b = a + 3 * len(second_layer_pairs(cfg))
    c = b + cfg.n_sites
    return [Circuit(cfg.n_qubits, gates[i:j])
            for i, j in ((0, a), (a, b), (b, c), (c, len(gates)))]


def test_pair_layers_partition_all_pairs():
    cfg = ChainConfig(chain_len=3, J=1.0, J_C=0.1, fields=(1.0,) * 6)
    assert first_layer_pairs(cfg) == [(0, 1), (3, 4)]
    assert second_layer_pairs(cfg) == [(1, 2), (4, 5)]
    for chain_len in (3, 4, 5):
        cfg = ChainConfig(chain_len=chain_len, J=1.0, J_C=0.1,
                          fields=(1.0,) * (2 * chain_len))
        first, second = first_layer_pairs(cfg), second_layer_pairs(cfg)
        # every nearest-neighbor pair of the 2 * chain_len sites but the
        # junction (left end, right start), which the coupler term spans
        in_chain = [(s, s + 1) for s in range(2 * chain_len - 1)
                    if s != chain_len - 1]
        assert sorted(first + second) == in_chain
        # pairs within one layer are disjoint -> schedulable in one layer
        for layer in (first, second):
            touched = [s for pair in layer for s in pair]
            assert len(touched) == len(set(touched))
        # the pair adjacent to the coupler is always in the second layer
        assert (chain_len - 2, chain_len - 1) in second


@pytest.mark.parametrize("chain_len", [3, 4])
@pytest.mark.parametrize("J_C", [0.0, 0.3])
def test_zz_terms_sum_to_the_dense_diagonal(chain_len, J_C):
    cfg = ChainConfig(chain_len=chain_len, J=1.0, J_C=J_C,
                      fields=(1.0,) * (2 * chain_len))
    n = cfg.n_qubits
    table = sum(c * pauli_string(n, dict.fromkeys(qubits, "z"))
                for qubits, c in zz_terms(cfg))
    parts = dense_summands(cfg)
    dense = parts["zz_first"] + parts["zz_second"] + parts["coupler"]
    assert np.array_equal(table, dense)
    assert np.array_equal(_diagonal_and_flips(cfg)[0], dense.diagonal().real)
    assert len(zz_terms(cfg)) == 2 * (chain_len - 1) + (J_C != 0.0)


def test_zz_layer_matches_exponential():
    for J_C in (0.0, 0.3):
        cfg = replace(CFG6, J_C=J_C)
        first, second, _, _ = step_parts(cfg)
        for part, pairs in ((first, first_layer_pairs(cfg)),
                            (second, second_layer_pairs(cfg))):
            assert {g.kind for g in part.gates} == {GateKind.CNOT, GateKind.RZ}
            h = dense_zz_layer(cfg, pairs)
            assert operator_norm(dense_unitary(part) - expm_hermitian(h, DT)) < 1e-12


def test_zeeman_circuit_matches_exponential():
    u = dense_unitary(zeeman_circuit(CFG6, CFG6.fields, DT))
    h = dense_zeeman(CFG6)
    assert operator_norm(u - expm_hermitian(h, DT)) < 1e-12
    assert step_parts(CFG6)[2] == zeeman_circuit(CFG6, CFG6.fields, DT)


def test_coupler_circuit_matches_exponential():
    for J_C in (0.0, 0.3):
        cfg = replace(CFG6, J_C=J_C)
        ladder = step_parts(cfg)[3]
        assert len(ladder) == (5 if J_C else 0)
        h = dense_coupler(cfg)
        assert operator_norm(dense_unitary(ladder) - expm_hermitian(h, DT)) < 1e-12


def test_zz_layers_commute():
    a, b = (dense_unitary(part) for part in step_parts(CFG6)[:2])
    assert operator_norm(a @ b - b @ a) < 1e-12


def test_step_depth_is_size_independent():
    for chain_len in (3, 4, 5):
        cfg = ChainConfig(chain_len=chain_len, J=1.0, J_C=0.3,
                          fields=(1.0,) * (2 * chain_len))
        assert depth(trotter_step_circuit(cfg, DT)) == 12


def test_step_gate_count():
    # 4 pairs x 3 + 6 RX + 5 coupler gates, N_s = 6
    assert len(trotter_step_circuit(CFG6, DT)) == 23
    no_coupler = ChainConfig(chain_len=3, J=1.0, J_C=0.0, fields=CFG6.fields)
    assert len(trotter_step_circuit(no_coupler, DT)) == 18


@pytest.mark.parametrize("J_C", [0.0, 0.3])
def test_step_equals_concat_of_its_summands(J_C):
    # The step applies ZZ layer 1, ZZ layer 2, Zeeman, coupler, in order.
    cfg = ChainConfig(chain_len=3, J=1.0, J_C=J_C, fields=CFG6.fields)
    step = trotter_step_circuit(cfg, DT)
    product = np.eye(1 << cfg.n_qubits)
    for h in dense_summands(cfg).values():
        product = expm_hermitian(h, DT) @ product
    assert operator_norm(dense_unitary(step) - product) < 1e-12
    # Another step with other fields shares every gate but the Zeeman ones.
    other = trotter_step_circuit(
        ChainConfig(chain_len=3, J=1.0, J_C=J_C, fields=(2.0,) * 6), DT
    )
    shared = [a is b for a, b in zip(step.gates, other.gates)]
    assert shared == [g.kind is not GateKind.RX for g in step.gates]


def test_extended_steps_repeat_the_step_circuit():
    rows = ((0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (0.5, 1.0, 1.5, 2.0, 2.5, 3.5))
    head = Gate(GateKind.H, (0,))
    gates = [head]
    zeeman = extend_trotter_steps(gates, CFG6, np.array(rows), DT, repeats=3)
    steps = [trotter_step_circuit(replace(CFG6, fields=f), DT).gates for f in rows]
    assert gates == [head, *steps[0] * 3, *steps[1] * 3]
    rx = [g for g in steps[1] if g.kind is GateKind.RX]
    assert zeeman == rx
    assert [g.angle for g in rx] == [-2.0 * h * DT for h in rows[1]]
    assert all(type(g.angle) is float for g in rx)


def test_steps_share_an_rx_gate_exactly_when_its_angle_bits_repeat():
    # h = 0.0 gives the angle -0.0 and h = -0.0 the angle 0.0: equal as
    # floats, but not the same bits, so the two never share a gate.
    rows = np.array([
        (0.5, 1.0, 0.0, 2.0, 2.5, 3.0),
        (0.5, 1.1, -0.0, 2.0, 2.5, 3.0),
        (0.5, 1.1, -0.0, 2.0, 2.6, 3.0),
        (0.5, 1.1, 0.0, 2.0, 2.6, 3.0),
    ])
    gates = []
    first = extend_trotter_steps(gates, CFG6, rows[:2], DT)
    # The next call goes on from the RX gates of the step before.
    last = extend_trotter_steps(gates, CFG6, rows[2:], DT, zeeman=first)
    rx = [g for g in gates if g.kind is GateKind.RX]
    steps = [rx[k:k + 6] for k in range(0, len(rx), 6)]
    assert steps[1] == first and steps[3] == last
    expected = [
        [True, False, False, True, True, True],
        [True, True, True, True, False, True],
        [True, True, False, True, True, True],
    ]
    shared = [[a is b for a, b in zip(x, y)] for x, y in zip(steps, steps[1:])]
    assert shared == expected
    for x, y in zip(steps, steps[1:]):
        assert [a is b for a, b in zip(x, y)] == [
            a.angle.hex() == b.angle.hex() for a, b in zip(x, y)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_step_rejects_non_finite_fields(bad):
    cfg = replace(CFG6, fields=(0.01, bad, 0.01, 5, 5, 5))
    with pytest.raises(CircuitError, match="finite"):
        trotter_step_circuit(cfg, DT)


def test_extend_steps_rejects_wrong_field_count():
    gates = []
    with pytest.raises(CircuitError, match="need 6 field values"):
        extend_trotter_steps(gates, CFG6, [(1.0,)], DT)
    # One step's fields are a row of a 2-D array, not a 1-D one.
    with pytest.raises(CircuitError, match=r"got shape \(6,\)"):
        extend_trotter_steps(gates, CFG6, CFG6.fields, DT)
    assert gates == []


def test_step_zz_angles_follow_dt():
    angles = [
        [g.angle for g in trotter_step_circuit(CFG6, dt).gates if g.kind is GateKind.RZ]
        for dt in (0.1, 0.2)
    ]
    # Four pair RZs of angle -2 J dt, then the coupler RZ of -2 J_C dt.
    assert angles[0] == [-0.2] * 4 + [pytest.approx(-0.06)]
    assert angles[1] == [-0.4] * 4 + [pytest.approx(-0.12)]


def test_step_error_within_first_order_bound():
    # ||step - exp(-iH dt)|| <= sum of pairwise commutator norms * dt^2 / 2
    for dt in (0.1, 0.2, 0.5):
        u = dense_unitary(trotter_step_circuit(CFG6, dt))
        exact = expm_hermitian(dense_hamiltonian(CFG6), dt)
        parts = list(dense_summands(CFG6).values())
        comm_sum = sum(
            operator_norm(a @ b - b @ a)
            for i, a in enumerate(parts)
            for b in parts[i + 1:]
        )
        err = phase_aligned_distance(u, exact)
        assert err <= 0.5 * comm_sum * dt**2 + 1e-12


def test_step_error_scales_quadratically():
    # asymptotic regime needs h_para * dt well below 1
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        u = dense_unitary(trotter_step_circuit(CFG6, dt))
        exact = expm_hermitian(dense_hamiltonian(CFG6), dt)
        errs.append(phase_aligned_distance(u, exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_x_squared_is_identity():
    from isingbraid.circuit import Circuit, Gate, GateKind

    c = Circuit(1, (Gate(GateKind.X, (0,)), Gate(GateKind.X, (0,))))
    assert np.allclose(dense_unitary(c), np.eye(2))

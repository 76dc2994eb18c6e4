#!/usr/bin/env python3
"""Time one Trotter step of the gate executor against the per-gate oracle,
and one step of the exact oracle.

For each chain size N_s the first table builds one first-order step at the
initial fields of the EFF row (dt = 0.7, h_para = 1.5) and prints:

- steady ms/step: the step circuit repeated inside one ``statevector.run``,
  as (time of 2R steps - time of R steps) / R, so the one-time cost of the
  basis-run map drops out;
- oracle ms/step: the same gates, one ``apply_gate_inplace`` each;
- the largest |difference| between the two states after R steps;
- layer ms: the step's Zeeman layer (its RX gates) alone, repeated inside
  one ``run`` and timed the same way as the steady step. Registers of
  ``statevector._REAL_QUBITS`` qubits or more apply it in real arithmetic.

The second table walks the first two holds of the EFF braid schedule with
linear updates (six steps of dt = 0.7) at N_s = 6 and 8 and prints the ms
per step of ``analysis.exact_evolve`` (a matrix-free Chebyshev expansion
per step). Its agreement with the dense per-step reference is a test
(``test_exact_evolve_matches_dense_reference``).

The third table compiles the OPT braid at N_s = 6 (the default parameters)
in each update mode and prints the ms to build its evolution circuit
(``build_protocol_circuit``), that time per Trotter step in µs, and the
executor's ms per step over one ``statevector.run`` of the whole braid
(initialization and evolution).

Each time is the best of five. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is already set, as in perfbench's workers.

    PYTHONPATH=src python scripts/step_cost.py
"""

import math
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from isingbraid.analysis import exact_evolve  # noqa: E402
from isingbraid.circuit import Circuit, GateKind  # noqa: E402
from isingbraid.protocol import (  # noqa: E402
    FieldSchedule,
    LogicalLabel,
    ProtocolParams,
    build_field_schedule,
    build_protocol_circuit,
    chain_config,
    compile_scenario,
    count_trotter_steps,
    initial_fields,
    walk_schedule,
)
from isingbraid.statevector import (  # noqa: E402
    QuantumState,
    apply_gate_inplace,
    run,
    zero_state,
)
from isingbraid.trotter import trotter_step_circuit  # noqa: E402

SIZES = (6, 10, 14, 18)
ORACLE_SIZES = (6, 8)
TRIALS = 5


def best_of(fn):
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def random_state(n: int, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def steady_cost(state: QuantumState, gates, repeats: int) -> float:
    """Seconds per repeat of ``gates`` inside one ``run``, as (time of 2R
    repeats - time of R repeats) / R."""
    once = Circuit(state.n_qubits, gates * repeats)
    twice = Circuit(state.n_qubits, gates * (2 * repeats))
    return (best_of(lambda: run(state, twice))
            - best_of(lambda: run(state, once))) / repeats


def step_cost(n_s: int) -> tuple[float, float, float, float]:
    params = ProtocolParams(N_s=n_s, dt=0.7, h_para=1.5)
    step = trotter_step_circuit(
        chain_config(params, initial_fields(params)), params.dt
    )
    n = step.n_qubits
    # About 2**22 amplitude updates per timed run, at least two steps.
    repeats = max(2, (1 << 22) >> n)
    state = random_state(n, n_s)
    once = Circuit(n, step.gates * repeats)
    steady = steady_cost(state, step.gates, repeats)
    zeeman = tuple(g for g in step.gates if g.kind is GateKind.RX)
    layer = steady_cost(state, zeeman, repeats)

    def oracle():
        out = state.amplitudes.copy()
        for gate in once.gates:
            apply_gate_inplace(out, n, gate)
        return out

    per_gate = best_of(oracle) / repeats
    diff = float(np.abs(run(state, once).amplitudes - oracle()).max())
    return 1e3 * steady, 1e3 * per_gate, diff, 1e3 * layer


def oracle_cost(n_s: int) -> float:
    params = ProtocolParams(N_s=n_s, dt=0.7, h_para=1.5, dh=0.1,
                            Gamma=math.pi / 2, update_mode="linear")
    schedule = FieldSchedule(
        build_field_schedule(params, include_rotation=False).events[:2])
    steps = sum(repeats for _, repeats in walk_schedule(params, schedule))
    state = random_state(params.n_qubits, n_s)
    return 1e3 * best_of(lambda: exact_evolve(schedule, params, state)) / steps


def braid_cost(mode: str) -> tuple[int, float, float]:
    params = ProtocolParams(update_mode=mode)
    compiled = compile_scenario(params, "braid", LogicalLabel.ALL_UP)
    steps = count_trotter_steps(params, compiled.schedule)
    build = best_of(lambda: build_protocol_circuit(params, compiled.schedule))
    zero = zero_state(params.n_qubits)
    simulate = best_of(lambda: run(zero, compiled.prepared_circuit))
    return steps, build, simulate


def main():
    print(f"{'N_s':>4} {'qubits':>6} {'steady ms/step':>15} "
          f"{'oracle ms/step':>15} {'max |diff|':>11} {'layer ms':>9}")
    for n_s in SIZES:
        steady, per_gate, diff, layer = step_cost(n_s)
        print(f"{n_s:>4} {n_s + 1:>6} {steady:>15.3f} {per_gate:>15.3f} "
              f"{diff:>11.1e} {layer:>9.3f}")
    print()
    print(f"{'N_s':>4} {'qubits':>6} {'exact oracle ms/step':>21}")
    for n_s in ORACLE_SIZES:
        print(f"{n_s:>4} {n_s + 1:>6} {oracle_cost(n_s):>21.3f}")
    print()
    print(f"{'OPT N_s = 6':<12} {'steps':>6} {'compile ms':>11} "
          f"{'us/step':>8} {'executor ms/step':>17}")
    for mode in ("linear", "stepped"):
        steps, build, simulate = braid_cost(mode)
        print(f"{mode:<12} {steps:>6} {1e3 * build:>11.1f} "
              f"{1e6 * build / steps:>8.1f} {1e3 * simulate / steps:>17.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

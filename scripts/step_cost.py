#!/usr/bin/env python3
"""Time one Trotter step of the gate executor against the per-gate oracle.

For each chain size N_s this builds one first-order step at the initial
fields of the EFF row (dt = 0.7, h_para = 1.5) and prints:

- steady ms/step: the step circuit repeated inside one ``statevector.run``,
  as (time of 2R steps - time of R steps) / R, so the one-time cost of the
  basis-run map drops out;
- oracle ms/step: the same gates, one ``apply_gate_inplace`` each;
- the largest |difference| between the two states after R steps.

Each time is the best of five. BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is already set, as in perfbench's workers.

    PYTHONPATH=src python scripts/step_cost.py
"""

import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from isingbraid.circuit import Circuit  # noqa: E402
from isingbraid.protocol import (  # noqa: E402
    ProtocolParams,
    chain_config,
    initial_fields,
)
from isingbraid.statevector import (  # noqa: E402
    QuantumState,
    apply_gate_inplace,
    run,
)
from isingbraid.trotter import trotter_step_circuit  # noqa: E402

SIZES = (6, 10, 14, 18)
TRIALS = 5


def best_of(fn):
    best = float("inf")
    for _ in range(TRIALS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def step_cost(n_s: int) -> tuple[float, float, float]:
    params = ProtocolParams(N_s=n_s, dt=0.7, h_para=1.5)
    step = trotter_step_circuit(
        chain_config(params, initial_fields(params)), params.dt
    )
    n = step.n_qubits
    # About 2**22 amplitude updates per timed run, at least two steps.
    repeats = max(2, (1 << 22) >> n)
    rng = np.random.default_rng(n_s)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = QuantumState(n, amps / np.linalg.norm(amps))
    once = Circuit(n, step.gates * repeats)
    twice = Circuit(n, step.gates * (2 * repeats))
    steady = (best_of(lambda: run(state, twice))
              - best_of(lambda: run(state, once))) / repeats

    def oracle():
        out = state.amplitudes.copy()
        for gate in once.gates:
            apply_gate_inplace(out, n, gate)
        return out

    per_gate = best_of(oracle) / repeats
    diff = float(np.abs(run(state, once).amplitudes - oracle()).max())
    return 1e3 * steady, 1e3 * per_gate, diff


def main():
    print(f"{'N_s':>4} {'qubits':>6} {'steady ms/step':>15} "
          f"{'oracle ms/step':>15} {'max |diff|':>11}")
    for n_s in SIZES:
        steady, per_gate, diff = step_cost(n_s)
        print(f"{n_s:>4} {n_s + 1:>6} {steady:>15.3f} {per_gate:>15.3f} {diff:>11.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time one Trotter step of the gate executor against the per-gate oracle,
one step of the exact oracle, and the stages of an OPT braid run.

For each chain size N_s (``--sizes``) the first table builds one
first-order step at the initial fields of the EFF row (dt = 0.7,
h_para = 1.5) and prints:

- steady ms/step: the step circuit repeated inside one ``statevector.run``,
  as (time of 2R steps - time of R steps) / R, so the one-time cost of the
  basis-run map drops out; R steps make about 2**22 amplitude updates
  (``--updates``), and at least two steps;
- oracle ms/step: the R steps, one ``apply_gate_inplace`` per gate;
- max |diff|: the largest |difference| between the executor's state and
  the per-gate oracle's after ``DIFF_STEPS`` steps, at every size. A few
  steps keep the oracle's own rounding drift small: after the R = 32,768
  steps timed at N_s = 6 that drift was as large as the executor's error;
- layer ms: the step's Zeeman layer (its RX gates) alone, repeated inside
  one ``run`` and timed the same way as the steady step. Registers of
  ``statevector._REAL_QUBITS`` qubits or more apply it in real arithmetic;
- map ms: one build of the phase map of the step's diagonal run (its ZZ
  and coupler gates), the one-time cost that the steady step leaves out.

The second table walks the first two holds of the EFF braid schedule with
linear updates (six steps of dt = 0.7) at N_s = 6 and 10 and prints, for
``analysis.exact_evolve`` (a matrix-free Chebyshev expansion per step):

- oracle ms/step: its time per step, over ``ORACLE_CALLS`` calls in a
  row, since one call of six steps at N_s = 6 takes only about 2 ms;
- products/step: its H·v products per step, one per Chebyshev term past
  the first, counted from the Bessel coefficients it asks for;
- us/product: its time over its products, so each product's share of the
  Bessel coefficients and of each expansion's set-up is included.

Its agreement with the dense per-step reference is a test
(``test_exact_evolve_matches_dense_reference``).

The third table compiles the OPT braid at N_s = 6 (the default parameters)
in each update mode and prints the ms to build its evolution circuit
(``build_protocol_circuit``), that time per Trotter step in µs, the
executor's ms per step over one ``statevector.run`` of the whole braid
(initialization and evolution), the ms of the executor's plan of that
circuit alone (the ``statevector._runs`` walk: finding the stretches and
building the pieces' blocks and the runs' maps, with nothing applied), and
the ms of ``ScenarioRun.structure`` (both depths and the gate counts).

The measurements run in ``--rounds`` interleaved rounds: each round takes
every measurement of every table once, so a drift of the machine's speed
reaches all of them alike. Each time is printed as the median over the
rounds and, in brackets, its spread (largest minus smallest). BLAS runs on
one thread unless OPENBLAS_NUM_THREADS is already set, as in perfbench's
workers. The first line gives the environment the times were taken in:
the usable cores, the Python, numpy and BLAS versions, and
OPENBLAS_NUM_THREADS.

    PYTHONPATH=src python scripts/step_cost.py [--sizes 6 10 14 18]
        [--rounds 5] [--updates 22]
"""

import argparse
import math
import os
import platform
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from isingbraid import analysis  # noqa: E402
from isingbraid.analysis import exact_evolve  # noqa: E402
from isingbraid.circuit import Circuit, GateKind  # noqa: E402
from isingbraid.protocol import (  # noqa: E402
    LogicalLabel,
    ProtocolParams,
    build_protocol_circuit,
    compile_scenario,
)
from isingbraid.schedule import (  # noqa: E402
    FieldSchedule,
    build_field_schedule,
    chain_config,
    count_trotter_steps,
    initial_fields,
    walk_schedule,
)
from isingbraid.statevector import (  # noqa: E402
    QuantumState,
    _basis_map,
    _runs,
    apply_gate_inplace,
    run,
    zero_state,
)
from isingbraid.trotter import trotter_step_circuit  # noqa: E402

ORACLE_SIZES = (6, 10)
# Trotter steps after which the executor is compared with the oracle.
DIFF_STEPS = 4
# exact_evolve calls in one timing of the second table.
ORACLE_CALLS = 16


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def random_state(n: int, seed: int) -> QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def steady_cost(state: QuantumState, once: Circuit, twice: Circuit,
                repeats: int) -> float:
    """Seconds per repeat inside one ``run``: ``twice`` holds 2R repeats of
    what ``once`` holds R of."""
    return (timed(lambda: run(state, twice)) - timed(lambda: run(state, once))) / repeats


class StepCase:
    """The first table's measurements at one chain size."""

    def __init__(self, n_s: int, updates: int):
        params = ProtocolParams(N_s=n_s, dt=0.7, h_para=1.5)
        step = trotter_step_circuit(
            chain_config(params, initial_fields(params)), params.dt
        ).gates
        n = params.n_qubits
        # About 2**updates amplitude updates per timed run, at least two
        # steps.
        self.repeats = repeats = max(2, (1 << updates) >> n)
        self.state = random_state(n, n_s)
        zeeman = tuple(g for g in step if g.kind is GateKind.RX)
        self.diagonal = tuple(g for g in step if g.kind is not GateKind.RX)
        self.step = [Circuit(n, step * repeats), Circuit(n, step * 2 * repeats)]
        self.layer = [Circuit(n, zeeman * repeats), Circuit(n, zeeman * 2 * repeats)]
        few = Circuit(n, step * DIFF_STEPS)
        fused = run(self.state, few).amplitudes
        self.diff = float(np.abs(fused - self.per_gate(few)).max())

    def per_gate(self, circuit: Circuit) -> np.ndarray:
        out = self.state.amplitudes.copy()
        for gate in circuit.gates:
            apply_gate_inplace(out, circuit.n_qubits, gate)
        return out

    def measure(self) -> dict[str, float]:
        r = self.repeats
        return {
            "steady": 1e3 * steady_cost(self.state, *self.step, r),
            "oracle": 1e3 * timed(lambda: self.per_gate(self.step[0])) / r,
            "layer": 1e3 * steady_cost(self.state, *self.layer, r),
            "map": 1e3 * timed(lambda: _basis_map(self.state.n_qubits, self.diagonal)),
        }


class OracleCase:
    """The second table's measurements at one chain size."""

    def __init__(self, n_s: int):
        self.params = p = ProtocolParams(N_s=n_s, dt=0.7, h_para=1.5, dh=0.1,
                                         Gamma=math.pi / 2, update_mode="linear")
        self.schedule = FieldSchedule(
            build_field_schedule(p, include_rotation=False).events[:2])
        self.steps = sum(len(rows) * repeats
                         for rows, repeats in walk_schedule(p, self.schedule))
        self.state = random_state(p.n_qubits, n_s)
        self.products = self.count_products()

    def count_products(self) -> int:
        """H·v products of one ``exact_evolve``: the terms of each expansion
        but T_0, counted from the coefficients each expansion is given."""
        expand, terms = analysis._chebyshev_expm, []

        def counted(*args):
            terms.append(args[-1].size - 1)
            return expand(*args)

        analysis._chebyshev_expm = counted
        try:
            exact_evolve(self.schedule, self.params, self.state)
        finally:
            analysis._chebyshev_expm = expand
        return sum(terms)

    def measure(self) -> dict[str, float]:
        def calls():
            for _ in range(ORACLE_CALLS):
                exact_evolve(self.schedule, self.params, self.state)

        seconds = timed(calls) / ORACLE_CALLS
        return {"oracle": 1e3 * seconds / self.steps,
                "product": 1e6 * seconds / self.products}


class BraidCase:
    """The third table's measurements in one update mode."""

    def __init__(self, mode: str):
        self.params = ProtocolParams(update_mode=mode)
        self.compiled = compile_scenario(self.params, "braid", LogicalLabel.ALL_UP)
        self.steps = count_trotter_steps(self.params, self.compiled.schedule)
        self.zero = zero_state(self.params.n_qubits)

    def measure(self) -> dict[str, float]:
        compiled = self.compiled
        build = timed(lambda: build_protocol_circuit(self.params, compiled.schedule))
        simulate = timed(lambda: run(self.zero, compiled.prepared_circuit))
        gates, n = compiled.prepared_circuit.gates, self.params.n_qubits
        plan = timed(lambda: sum(1 for _ in _runs(gates, n)))
        return {
            "build": 1e3 * build,
            "per_step": 1e6 * build / self.steps,
            "executor": 1e3 * simulate / self.steps,
            "plan": 1e3 * plan,
            "structure": 1e3 * timed(compiled.structure),
        }


def environment() -> str:
    """The usable cores, the Python, numpy and BLAS versions, and the BLAS
    thread count, as one line. numpy before 1.25 does not report its BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return (f"cores {cores}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, BLAS {blas}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def summary(values: list[float], width: int, digits: int) -> str:
    """The median and, in brackets, the spread of ``values``."""
    spread = max(values) - min(values)
    text = f"{statistics.median(values):.{digits}f} ({spread:.{digits}f})"
    return f"{text:>{width}}"


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="Time the executor, the exact oracle and an OPT braid run.")
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 10, 14, 18],
                    help="chain sizes N_s of the Trotter-step table")
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved rounds of every measurement")
    ap.add_argument("--updates", type=int, default=22,
                    help="log2 of the amplitude updates per timed step run")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cases = ([StepCase(n, args.updates) for n in args.sizes]
             + [OracleCase(n) for n in ORACLE_SIZES]
             + [BraidCase(mode) for mode in ("linear", "stepped")])
    samples: list[dict[str, list[float]]] = [{} for _ in cases]
    for _ in range(args.rounds):
        for case, values in zip(cases, samples):
            for key, value in case.measure().items():
                values.setdefault(key, []).append(value)
    rows = iter(zip(cases, samples))

    print(environment())
    print(f"{'N_s':>4} {'qubits':>6} {'steady ms/step':>18} "
          f"{'oracle ms/step':>18} {'max |diff|':>11} {'layer ms':>18} "
          f"{'map ms':>18}")
    for n_s in args.sizes:
        case, v = next(rows)
        print(f"{n_s:>4} {n_s + 1:>6} {summary(v['steady'], 18, 3)} "
              f"{summary(v['oracle'], 18, 3)} {case.diff:>11.1e} "
              f"{summary(v['layer'], 18, 3)} {summary(v['map'], 18, 3)}")
    print()
    print(f"{'N_s':>4} {'qubits':>6} {'exact oracle ms/step':>21} "
          f"{'products/step':>14} {'us/product':>16}")
    for n_s in ORACLE_SIZES:
        case, v = next(rows)
        print(f"{n_s:>4} {n_s + 1:>6} {summary(v['oracle'], 21, 3)} "
              f"{case.products / case.steps:>14.1f} {summary(v['product'], 16, 2)}")
    print()
    print(f"{'OPT N_s = 6':<12} {'steps':>6} {'compile ms':>14} "
          f"{'us/step':>12} {'executor ms/step':>17} {'plan ms':>12} "
          f"{'structure ms':>14}")
    for mode in ("linear", "stepped"):
        case, v = next(rows)
        print(f"{mode:<12} {case.steps:>6} {summary(v['build'], 14, 1)} "
              f"{summary(v['per_step'], 12, 1)} {summary(v['executor'], 17, 4)} "
              f"{summary(v['plan'], 12, 1)} {summary(v['structure'], 14, 1)}")
    print(f"\nmedian (spread) of {args.rounds} interleaved round(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

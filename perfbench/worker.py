"""One workload in one process: set up, run a warm-up op, then time ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

``run.py`` starts this with ``src`` on PYTHONPATH and BLAS threads pinned.
It prints ``{"ready": true}`` once set-up and the warm-up op are done, and
one JSON result line when it ends.

Untraced (``--trace 0``), it times ops for about ``--seconds``, and its
workload's reference work (``calibrate.py``) after set-up and after every
op. Traced (``--trace 1``), it alternates an untraced op with a traced one,
then times one Trotter step in isolation, and reports per-layer numbers
from the spans.
With ``--setup-only`` it exits after the warm-up op and one timing of the
reference work.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

from isingbraid import protocol, statevector, trotter
from isingbraid.protocol import AdiabaticityWarning

from calibrate import reference_s
from spans import Tracer, self_time_by_name
from workloads import WORKLOADS, Workload, close, EXACT_TOL

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "protocol.compile_s": "s",
    "trotter.step_compile_us": "us",
    "circuit.depth_s": "s",
    "circuit.concat_s": "s",
    "statevector.run_s": "s",
    "statevector.us_per_gate": "us",
    "statevector.ms_per_step": "ms",
    "statevector.sample_s": "s",
    "noise.trajectory_s": "s",
    "noise.us_per_gate": "us",
    "noise.measurement_error_s": "s",
    "analysis.hamiltonian_ms": "ms",
    "analysis.expm_ms": "ms",
    "analysis.evolve_s": "s",
    "protocol.schedule_s": "s",
    "protocol.fidelity_s": "s",
    "cli.overhead_s": "s",
    "protocol.events": "count",
    "trotter.steps": "count",
    "circuit.gates": "count",
    "analysis.steps": "count",
    "statevector.bytes_moved": "B",
    "trace.overhead_s": "s",
}

# Layer metrics that sum the self time of an op's spans with these names.
SUMMED_SPANS = {
    "protocol.compile_s": ("protocol.build_protocol_circuit",
                           "protocol.compile_scenario"),
    "protocol.schedule_s": ("protocol.build_field_schedule",),
    "protocol.fidelity_s": ("protocol.chain_fidelity",
                            "protocol.sampled_fidelity_from_counts"),
    "circuit.depth_s": ("circuit.depth",),
    "circuit.concat_s": ("circuit.concat",),
    "statevector.run_s": ("statevector.run",),
    "statevector.sample_s": ("statevector.sample",),
    "noise.measurement_error_s": ("noise.apply_measurement_error",),
    "analysis.evolve_s": ("analysis.exact_evolve", "analysis.dense_hamiltonian",
                          "analysis.expm_hermitian"),
}
# Layer metrics that take the median self time of one call, and its scale.
PER_CALL_SPANS = {
    "noise.trajectory_s": ("noise.run_noisy", 1.0),
    "analysis.hamiltonian_ms": ("analysis.dense_hamiltonian", 1e3),
    "analysis.expm_ms": ("analysis.expm_hermitian", 1e3),
}
STEP_COMPILE_CALLS = 200
STEP_RUN_CALLS = 50
AMPLITUDE_BYTES = 16


class Tally:
    """Runs, times and checks ops, and counts those attempted and failed."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def attempt(self, i: int, tracer: Tracer | None = None,
                reference: dict | None = None) -> tuple[dict | None, float]:
        """Run op ``i``, traced when ``tracer`` is given, and check its output
        (against the untraced ``reference`` output too, when given). An op
        that raises is a failed op. Returns the output and the op's seconds."""
        out, elapsed = None, None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.op(i)
            else:
                tracer.begin_op()
                out = self.workload.traced_op(i, tracer)
            elapsed = time.perf_counter() - start
            errors = self.workload.check(out)
            if reference is not None:
                errors += same_output(reference, out)
        except Exception as exc:  # a failed op is counted; the run goes on
            traceback.print_exc()
            errors = [f"{type(exc).__name__}: {exc}"]
        if elapsed is None:
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"op {i}: " + "; ".join(errors))
        return out, elapsed

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.messages}


def past_deadline(deadline: float, last_op_s: float) -> bool:
    """Stop once less than half an op is left before ``deadline``, so that
    timing ends at the op boundary nearest the deadline."""
    return time.perf_counter() + last_op_s / 2 >= deadline


def measure(workload: Workload, seconds: float, ready=lambda: None) -> dict:
    """Run a warm-up op, then time untraced ops for about ``seconds`` (at
    least one). The reference work is timed after the warm-up op and after
    every timed op, so each op has its time before and after it."""
    tally = Tally(workload)
    tally.attempt(0)
    ready()
    reference = [reference_s(workload.name)]
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        times.append(tally.attempt(i)[1])
        reference.append(reference_s(workload.name))
        i += 1
        if past_deadline(deadline, times[-1] + reference[-1]):
            break
    return {"op_times": times, "reference_times": reference, **tally.summary()}


def set_up(workload: Workload, ready=lambda: None) -> dict:
    """Run the warm-up op only, then time the reference work."""
    tally = Tally(workload)
    tally.attempt(0)
    ready()
    return {"op_times": [], "reference_times": [reference_s(workload.name)], **tally.summary()}


def per_op_layers(by_name: dict[str, list[float]], out: dict) -> dict[str, float]:
    """Layer numbers of one traced op from its spans' self times."""
    vals = {m: sum(sum(by_name.get(n, [])) for n in names)
            for m, names in SUMMED_SPANS.items()}
    for m, (name, scale) in PER_CALL_SPANS.items():
        calls = by_name.get(name)
        vals[m] = statistics.median(calls) * scale if calls else 0.0
    vals["cli.overhead_s"] = sum(sum(v) for k, v in by_name.items()
                                 if k.startswith("cli."))
    gates_run = out.get("gates_run", 0)
    vals["statevector.us_per_gate"] = (
        vals["statevector.run_s"] / gates_run * 1e6 if gates_run else 0.0)
    traj_gates = out.get("trajectory_gates", 0)
    vals["noise.us_per_gate"] = (
        vals["noise.trajectory_s"] / traj_gates * 1e6 if traj_gates else 0.0)
    n_traj = len(by_name.get("noise.run_noisy", []))
    # Computed, not measured: each gate reads and writes the whole state.
    state_bytes = (1 << out.get("n_qubits", 0)) * AMPLITUDE_BYTES
    vals["statevector.bytes_moved"] = (gates_run + n_traj * traj_gates) * state_bytes * 2
    vals["protocol.events"] = out.get("events", 0)
    vals["trotter.steps"] = out.get("trotter_steps", 0)
    vals["circuit.gates"] = out.get("evolution_gates", 0)
    vals["analysis.steps"] = out.get("steps", 0)
    return vals


def step_timings(workload: Workload) -> dict[str, float]:
    """Median time to compile one Trotter step, and to run it on a state of
    the workload's size."""
    if not workload.runs_gates:
        return {"trotter.step_compile_us": 0.0, "statevector.ms_per_step": 0.0}
    p = workload.params
    cfg = protocol.chain_config(p, protocol.initial_fields(p))
    tr = Tracer()
    op = tr.begin_op()
    for _ in range(STEP_COMPILE_CALLS):
        step = tr.call("trotter.trotter_step_circuit", trotter.trotter_step_circuit,
                       cfg, p.dt)
    state = statevector.zero_state(p.n_qubits)
    for _ in range(STEP_RUN_CALLS):
        tr.call("statevector.run", statevector.run, state, step)
    by_name = self_time_by_name(tr.spans)[op]
    return {
        "trotter.step_compile_us":
            statistics.median(by_name["trotter.trotter_step_circuit"]) * 1e6,
        "statevector.ms_per_step": statistics.median(by_name["statevector.run"]) * 1e3,
    }


def same_output(a: dict, b: dict) -> list[str]:
    """An untraced op and the traced op of the same index give the same exact
    fidelity. Noisy means are only checked against their reference, since a
    library change may draw its random numbers in another order."""
    if "fidelity" in a:
        return close(b["fidelity"], a["fidelity"], EXACT_TOL, "traced fidelity")
    if "report" in a:
        return close(b["report"]["exact_fidelity"], a["report"]["exact_fidelity"],
                     EXACT_TOL, "traced exact fidelity")
    return []


def measure_traced(workload: Workload, seconds: float, spans_path: str | None = None,
                   ready=lambda: None) -> dict:
    """Run a warm-up op, then alternate untraced and traced ops for ``seconds``."""
    tally = Tally(workload)
    tally.attempt(0)
    ready()
    tracer = Tracer()
    plain_times, traced_times, traced_outs = [], [], {}
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        plain, t_plain = tally.attempt(i)
        traced, t_traced = tally.attempt(i, tracer, plain)
        plain_times.append(t_plain)
        traced_times.append(t_traced)
        if traced is not None:
            traced_outs[tracer.op] = traced
        i += 1
        if past_deadline(deadline, t_plain + t_traced):
            break
    by_op = self_time_by_name(tracer.spans)
    per_op = [per_op_layers(by_op[k], out) for k, out in traced_outs.items()]
    layers = {m: statistics.median(v[m] for v in per_op) for m in per_op[0]} if per_op else {}
    layers.update(step_timings(workload))
    layers["trace.overhead_s"] = (statistics.median(traced_times)
                                  - statistics.median(plain_times))
    layers = {m: layers.get(m, 0.0) for m in LAYER_UNITS}
    if spans_path is not None:
        tracer.write(spans_path)
    return {"layers": layers, "units": LAYER_UNITS, "op_times": plain_times,
            "traced_op_times": traced_times, **tally.summary()}


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and run the warm-up op, then exit")
    args = ap.parse_args(argv)
    warnings.filterwarnings("ignore", category=AdiabaticityWarning)

    def ready() -> None:
        print(json.dumps({"ready": True}), flush=True)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        result = set_up(workload, ready)
    elif args.trace:
        result = measure_traced(workload, args.seconds,
                                os.path.join(args.workdir, "spans.json"), ready)
    else:
        result = measure(workload, args.seconds, ready)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs one op at a
time through the library's public functions, and checks every op's output
against the pinned references below. A traced op runs the same stages one
call at a time inside spans (see ``spans.py``); no span goes inside the
library.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

import numpy as np

from isingbraid import analysis, circuit, cli, noise, protocol, statevector
from isingbraid.circuit import Gate, GateKind
from isingbraid.noise import NoiseModel
from isingbraid.protocol import LogicalLabel, ProtocolParams

INIT = LogicalLabel.ALL_UP
SCENARIO = "braid"
# The EFF parameter row of the acceptance tests.
EFF = dict(dt=0.7, h_para=1.5, dh=0.1, Gamma=math.pi / 2)
NOISE_EPS = 1e-4
MEAS_EPS = 1e-2
TRAJECTORIES = 20
EXACT_TOL = 1e-10
N_SIGMA = 4.0

# Pinned outputs of the seed implementation; ``pin_references.py``
# recomputes every value here.
REFERENCE = {
    "braid_opt_n6": {
        "exact_fidelity": 0.9284077109246951,
        "one_qubit": 66341,
        "two_qubit": 72362,
        "depth_total": 54276,
        "depth_evolution_only": 54273,
        "trotter_steps": 6030,
        "events": 606,
        "evolution_gates": 138693,
    },
    "braid_eff_n14": {
        "exact_fidelity": 0.006793263006514219,
        "one_qubit": 17190,
        "two_qubit": 17814,
        "depth_total": 5734,
        "depth_evolution_only": 5727,
        "trotter_steps": 636,
        "events": 214,
        "evolution_gates": 34982,
    },
    "noise_eff_n6": {
        "noiseless_fidelity": 0.29085565387899537,
        # Mean, standard deviation and standard error of the per-trajectory
        # fidelity over 4000 reference trajectories.
        "noisy_mean": 0.12424233557410518,
        "noisy_sd": 0.13792693404556589,
        "noisy_mean_se": 0.0021808163113390525,
        # Expected all-zeros readout frequency after measurement bit flips,
        # computed from the exact readout distribution.
        "measured_fidelity": 0.2749641149162567,
        "events": 94,
        "trotter_steps": 276,
        "evolution_gates": 6350,
    },
    "oracle_eff_n6": {
        "exact_fidelity": 0.7133361672736644,
        "events": 94,
        "steps": 276,
    },
}


def derive_seed(seed: int, label: str) -> int:
    """A library seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def binomial_se(p: float, shots: int) -> float:
    return math.sqrt(p * (1.0 - p) / shots)


def close(value: float, expected: float, tol: float, what: str) -> list[str]:
    if abs(value - expected) <= tol:
        return []
    return [f"{what} {value!r} differs from {expected!r} by more than {tol:.3g}"]


def equal(value, expected, what: str) -> list[str]:
    return [] if value == expected else [f"{what} {value!r} != {expected!r}"]


def traced_scenario(tr, params: ProtocolParams, scenario: str,
                    init: LogicalLabel) -> tuple[dict, dict]:
    """The stages of ``run_scenario``, one public call per span.

    Returns the report as ``FidelityReport.to_dict()`` and the op's counts.
    """
    eff, prep, rotate, theta = tr.call(
        "protocol.resolve_scenario", protocol.resolve_scenario, params, scenario)
    schedule = tr.call("protocol.build_field_schedule",
                       protocol.build_field_schedule, eff, include_rotation=rotate)
    evo = tr.call("protocol.build_protocol_circuit",
                  protocol.build_protocol_circuit, eff, schedule)
    init_c = tr.call("protocol.initialization_circuit",
                     protocol.initialization_circuit, eff, init,
                     include_coupler_prep=prep)
    a, b = tr.call("protocol.domain_amplitudes",
                   protocol.domain_amplitudes, init, theta)
    target = tr.call("protocol.target_chain_state",
                     protocol.target_chain_state, eff, a, b)
    prep_c = tr.call("protocol.target_prep_circuit",
                     protocol.target_prep_circuit, eff, a, b)
    readout = tr.call("circuit.inverse", circuit.inverse, prep_c)
    zero = tr.call("statevector.zero_state", statevector.zero_state, eff.n_qubits)
    body = tr.call("circuit.concat", circuit.concat, [init_c, evo])
    final = tr.call("statevector.run", statevector.run, zero, body)
    exact = tr.call("protocol.chain_fidelity", protocol.chain_fidelity,
                    final, target, eff.coupler_qubit)
    measured = tr.call("statevector.run", statevector.run, final, readout)
    counts = tr.call("statevector.sample", statevector.sample,
                     measured, eff.shots, eff.seed)
    sampled, stderr = tr.call("protocol.sampled_fidelity_from_counts",
                              protocol.sampled_fidelity_from_counts,
                              counts, eff.data_qubits)
    full = tr.call("circuit.concat", circuit.concat, [init_c, evo, readout])
    bounds = {
        "per_step": tr.call("analysis.per_step_error_bound",
                            analysis.per_step_error_bound, eff),
        "total": tr.call("analysis.total_error_bound",
                         analysis.total_error_bound, eff),
        "adiabatic_margin": tr.call("analysis.adiabatic_margin",
                                    analysis.adiabatic_margin, eff),
    }
    report = protocol.FidelityReport(
        scenario=scenario,
        init=init.value,
        exact_fidelity=exact,
        sampled_fidelity=sampled,
        sampled_stderr=stderr,
        depth_total=tr.call("circuit.depth", circuit.depth, full),
        depth_evolution_only=tr.call("circuit.depth", circuit.depth, evo),
        gate_counts=tr.call("circuit.gate_counts", circuit.gate_counts, full),
        trotter_steps=tr.call("protocol.count_trotter_steps",
                              protocol.count_trotter_steps, eff, schedule),
        bound_values=bounds,
        params=eff,
    )
    op_counts = {
        "events": len(schedule),
        "trotter_steps": report.trotter_steps,
        "evolution_gates": len(evo),
        "gates_run": len(body) + len(readout),
        "n_qubits": eff.n_qubits,
    }
    return report.to_dict(), op_counts


class Workload:
    """One workload: inputs from a seed, an op, its traced form and checks."""

    name = ""
    why = ""
    # Whether the op compiles and runs gate circuits; the traced run times
    # one Trotter step of the workload's size only when it does.
    runs_gates = True

    def __init__(self, seed: int, workdir: str, refs: dict | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ref = (refs or REFERENCE)[self.name]

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def traced_op(self, i: int, tr) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError


class BraidWorkload(Workload):
    """Shared checks of the two ``run_scenario`` workloads."""

    def check(self, out: dict) -> list[str]:
        rep, ref = out["report"], self.ref
        p = ref["exact_fidelity"]
        errs = close(rep["exact_fidelity"], p, EXACT_TOL, "exact fidelity")
        errs += close(rep["sampled_fidelity"], p,
                      N_SIGMA * binomial_se(p, rep["params"]["shots"]),
                      "sampled fidelity")
        errs += equal(rep["gate_counts"]["one_qubit"], ref["one_qubit"], "one-qubit gates")
        errs += equal(rep["gate_counts"]["two_qubit"], ref["two_qubit"], "two-qubit gates")
        for key in ("depth_total", "depth_evolution_only", "trotter_steps"):
            errs += equal(rep[key], ref[key], key)
        for key in ("events", "evolution_gates"):
            if key in out:
                errs += equal(out[key], ref[key], key)
        return errs


class BraidOptN6(BraidWorkload):
    name = "braid_opt_n6"
    why = ("It is the ROADMAP headline case: compile, interpreter-bound "
           "per-gate kernels on a small state and depth layering, where a "
           "fused or cached compile shows.")

    def __init__(self, seed, workdir, refs=None):
        super().__init__(seed, workdir, refs)
        self.config = os.path.join(workdir, "braid.cfg")
        with open(self.config, "w") as fh:
            fh.write("update_mode = linear\nscenario = braid\ninit = ALL_UP\n"
                     f"seed = {derive_seed(seed, 'sample')}\n")
        with open(self.config) as fh:
            cfg = cli.parse_config(fh.read())
        self.params = cli.build_params(cfg)
        self.first_report: bytes | None = None

    def _report_path(self) -> str:
        """Where the next op writes its report; a stale one is removed first."""
        path = os.path.join(self.workdir, "report.json")
        if os.path.exists(path):
            os.remove(path)
        return path

    def _read(self, path: str, rc: int) -> dict:
        with open(path, "rb") as fh:
            raw = fh.read()
        if self.first_report is None:
            self.first_report = raw
        return {"rc": rc, "raw": raw, "report": json.loads(raw)}

    def op(self, i):
        path = self._report_path()
        rc = cli.main(["run", "--config", self.config, "--out", path])
        return self._read(path, rc)

    def traced_op(self, i, tr):
        path = self._report_path()
        with tr.span("cli.main"):
            with open(self.config) as fh:
                text = fh.read()
            cfg = tr.call("cli.parse_config", cli.parse_config, text)
            params = tr.call("cli.build_params", cli.build_params, cfg)
            scenario, init = tr.call("cli.resolve_scenario_init",
                                     cli.resolve_scenario_init, cfg)
            report, counts = traced_scenario(tr, params, scenario, init)
            with open(path, "w") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return {**self._read(path, 0), **counts}

    def check(self, out):
        errs = equal(out["rc"], 0, "exit code")
        if out["raw"] != self.first_report:
            errs.append("report differs from the first report of the same seed")
        return errs + super().check(out)


class BraidEffN14(BraidWorkload):
    name = "braid_eff_n14"
    why = ("The statevector layer is used differently here: kernels on a "
           "512 KiB state are bound by memory traffic, and stepped mode "
           "reuses one step circuit per hold.")

    def __init__(self, seed, workdir, refs=None):
        super().__init__(seed, workdir, refs)
        self.params = ProtocolParams(N_s=14, update_mode="stepped",
                                     seed=derive_seed(seed, "sample"), **EFF)

    def op(self, i):
        return {"report": protocol.run_scenario(self.params, SCENARIO, INIT).to_dict()}

    def traced_op(self, i, tr):
        report, counts = traced_scenario(tr, self.params, SCENARIO, INIT)
        return {"report": report, **counts}


class NoiseEffN6(Workload):
    name = "noise_eff_n6"
    why = ("The Python loop in run_noisy, per gate and per trajectory, does "
           "almost all the work, and no other workload enters noise.")

    def __init__(self, seed, workdir, refs=None):
        super().__init__(seed, workdir, refs)
        self.params = ProtocolParams(update_mode="linear",
                                     seed=derive_seed(seed, "sample"), **EFF)
        self.model = NoiseModel(eps_bitflip=NOISE_EPS, eps_phase=NOISE_EPS,
                                trajectories=TRAJECTORIES)
        compiled = self.compiled = protocol.compile_scenario(self.params, SCENARIO, INIT)
        self.full = circuit.concat([compiled.init_circuit, compiled.evolution_circuit])
        self.noiseless = protocol.chain_fidelity(
            compiled.final_state, compiled.target_chain, self.params.coupler_qubit)
        self.readout = protocol.readout_counts(
            compiled, seed=derive_seed(seed, "readout"))
        # Op index -> noisy mean of the op. A traced op replays the untraced
        # op of the same index, so it replaces that entry.
        self.noisy_means: dict[int, float] = {}

    def _seeds(self, i: int) -> tuple[int, int]:
        return derive_seed(self.seed, f"noise:{i}"), derive_seed(self.seed, f"meas:{i}")

    def op(self, i):
        noise_seed, meas_seed = self._seeds(i)
        mean, _ = noise.noisy_fidelity(self.params, SCENARIO, INIT, self.model,
                                       seed=noise_seed)
        flipped = noise.apply_measurement_error(self.readout, MEAS_EPS, meas_seed)
        measured, _ = protocol.sampled_fidelity_from_counts(
            flipped, self.params.data_qubits)
        return {"index": i, "mean": mean, "measured": measured}

    def traced_op(self, i, tr):
        noise_seed, meas_seed = self._seeds(i)
        p = self.params
        run_ = tr.call("protocol.compile_scenario", protocol.compile_scenario,
                       p, SCENARIO, INIT)
        full = tr.call("circuit.concat", circuit.concat,
                       [run_.init_circuit, run_.evolution_circuit])
        initial = tr.call("statevector.zero_state", statevector.zero_state, p.n_qubits)
        values = np.empty(self.model.trajectories)
        for t in range(self.model.trajectories):
            final = tr.call("noise.run_noisy", noise.run_noisy, full, initial,
                            self.model, seed=[noise_seed, t])
            values[t] = tr.call("protocol.chain_fidelity", protocol.chain_fidelity,
                                final, run_.target_chain, p.coupler_qubit)
        flipped = tr.call("noise.apply_measurement_error",
                          noise.apply_measurement_error, self.readout, MEAS_EPS,
                          meas_seed)
        measured, _ = tr.call("protocol.sampled_fidelity_from_counts",
                              protocol.sampled_fidelity_from_counts,
                              flipped, p.data_qubits)
        return {
            "index": i,
            "mean": float(values.mean()),
            "measured": measured,
            "events": len(run_.schedule),
            "trotter_steps": protocol.count_trotter_steps(p, run_.schedule),
            "evolution_gates": len(run_.evolution_circuit),
            # compile_scenario runs the noiseless circuit once.
            "gates_run": len(full),
            "trajectory_gates": len(full),
            "n_qubits": p.n_qubits,
        }

    def check(self, out):
        ref = self.ref
        errs = close(self.noiseless, ref["noiseless_fidelity"], EXACT_TOL,
                     "noiseless fidelity")
        zero = noise.run_noisy(self.full, statevector.zero_state(self.params.n_qubits),
                               NoiseModel(), seed=self.seed)
        zero_fid = protocol.chain_fidelity(zero, self.compiled.target_chain,
                                           self.params.coupler_qubit)
        if zero_fid != self.noiseless:
            errs.append(f"zero-noise trajectory {zero_fid!r} != noiseless "
                        f"{self.noiseless!r}")
        # The op's mean, and the mean of every op of the run so far: one op's
        # trajectories cannot tell eps from 2 eps, a run's pooled mean can.
        self.noisy_means[out["index"]] = out["mean"]
        pooled = statistics.fmean(self.noisy_means.values())
        for what, mean, ops in (("noisy fidelity", out["mean"], 1),
                                ("pooled noisy fidelity", pooled, len(self.noisy_means))):
            se = ref["noisy_sd"] / math.sqrt(ops * self.model.trajectories)
            errs += close(mean, ref["noisy_mean"],
                          N_SIGMA * math.hypot(se, ref["noisy_mean_se"]), what)
        errs += close(out["measured"], ref["measured_fidelity"],
                      N_SIGMA * binomial_se(ref["measured_fidelity"], self.readout.shots),
                      "measurement-error fidelity")
        for key in ("events", "trotter_steps", "evolution_gates"):
            if key in out:
                errs += equal(out[key], ref[key], key)
        return errs


class OracleEffN6(Workload):
    name = "oracle_eff_n6"
    runs_gates = False
    why = ("It is the only workload for analysis: a dense H and eigh at every "
           "step, with no gate compile or gate kernels.")

    def __init__(self, seed, workdir, refs=None):
        super().__init__(seed, workdir, refs)
        p = self.params = ProtocolParams(update_mode="linear", **EFF)
        self.schedule = protocol.build_field_schedule(p, include_rotation=True)
        self.initial = statevector.run(
            statevector.zero_state(p.n_qubits),
            protocol.initialization_circuit(p, INIT, include_coupler_prep=True))
        a, b = protocol.domain_amplitudes(INIT, p.theta)
        self.target = protocol.target_chain_state(p, a, b)

    def op(self, i):
        final = analysis.exact_evolve(self.schedule, self.params, self.initial)
        return {"fidelity": protocol.chain_fidelity(
            final, self.target, self.params.coupler_qubit)}

    def traced_op(self, i, tr):
        """The piecewise-constant evolution of ``exact_evolve`` (linear
        updates), with the Hamiltonian build and exponential timed per step."""
        p = self.params
        state = self.initial.copy()
        amps, n = state.amplitudes, state.n_qubits
        prev_fields = protocol.initial_fields(p)
        steps = 0
        with tr.span("analysis.exact_evolve"):
            for event in self.schedule.events:
                if isinstance(event, protocol.RotateCoupler):
                    tr.call("statevector.apply_gate_inplace",
                            statevector.apply_gate_inplace, amps, n,
                            Gate(GateKind.RY, (p.coupler_qubit,), event.angle))
                    continue
                n_steps = protocol.steps_per_hold(p, event.hold)
                prev = np.asarray(prev_fields, dtype=float)
                target = np.asarray(event.fields, dtype=float)
                for m in range(1, n_steps + 1):
                    f = prev + (m / n_steps) * (target - prev)
                    h = tr.call("analysis.dense_hamiltonian", analysis.dense_hamiltonian,
                                protocol.chain_config(p, f))
                    u = tr.call("analysis.expm_hermitian", analysis.expm_hermitian,
                                h, p.dt)
                    amps[:] = u @ amps
                    steps += 1
                prev_fields = event.fields
        fid = tr.call("protocol.chain_fidelity", protocol.chain_fidelity,
                      state, self.target, p.coupler_qubit)
        return {"fidelity": fid, "steps": steps, "events": len(self.schedule)}

    def check(self, out):
        ref = self.ref
        errs = close(out["fidelity"], ref["exact_fidelity"], EXACT_TOL, "exact fidelity")
        errs += equal(len(self.schedule), ref["events"], "events")
        errs += equal(protocol.count_trotter_steps(self.params, self.schedule),
                      ref["steps"], "Trotter steps")
        if "steps" in out:
            errs += equal(out["steps"], ref["steps"], "evolution steps")
        return errs


WORKLOADS = {w.name: w for w in (BraidOptN6, BraidEffN14, NoiseEffN6, OracleEffN6)}

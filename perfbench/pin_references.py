"""Recompute the pinned reference values of ``workloads.REFERENCE``.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/pin_references.py

Prints the references as JSON. The noisy reference is a long trajectory run
with a fixed seed; the measurement-error reference is the exact expectation
of the all-zeros readout frequency under independent bit flips.
"""
from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from isingbraid import noise, protocol, statevector

from spans import Tracer
from workloads import (
    INIT, MEAS_EPS, NOISE_EPS, SCENARIO, WORKLOADS, traced_scenario,
)

PIN_SEED = 20261017
# Trajectories of the noisy reference; REFERENCE states this count.
PIN_TRAJECTORIES = 4000


def braid_reference(wl) -> dict:
    report, counts = traced_scenario(Tracer(), wl.params, SCENARIO, INIT)
    return {
        "exact_fidelity": report["exact_fidelity"],
        "one_qubit": report["gate_counts"]["one_qubit"],
        "two_qubit": report["gate_counts"]["two_qubit"],
        "depth_total": report["depth_total"],
        "depth_evolution_only": report["depth_evolution_only"],
        "trotter_steps": report["trotter_steps"],
        "events": counts["events"],
        "evolution_gates": counts["evolution_gates"],
    }


def measured_expectation(compiled: protocol.ScenarioRun, eps: float) -> float:
    """P(every data bit reads 0) when each bit flips with probability eps."""
    measured = statevector.run(compiled.final_state, compiled.readout_circuit)
    probs = np.abs(measured.amplitudes) ** 2
    idx = np.arange(probs.size)
    keep = np.ones(probs.size)
    for q in compiled.params.data_qubits:
        keep *= np.where((idx >> q) & 1, eps, 1.0 - eps)
    return float(np.sum(probs * keep))


def noise_reference(wl) -> dict:
    p = wl.params
    model = noise.NoiseModel(eps_bitflip=NOISE_EPS, eps_phase=NOISE_EPS,
                             trajectories=1)
    initial = statevector.zero_state(p.n_qubits)
    values = np.array([
        protocol.chain_fidelity(
            noise.run_noisy(wl.full, initial, model, seed=[PIN_SEED, t]),
            wl.compiled.target_chain, p.coupler_qubit)
        for t in range(PIN_TRAJECTORIES)
    ])
    sd = float(values.std(ddof=1))
    return {
        "noiseless_fidelity": wl.noiseless,
        "noisy_mean": float(values.mean()),
        "noisy_sd": sd,
        "noisy_mean_se": sd / math.sqrt(PIN_TRAJECTORIES),
        "measured_fidelity": measured_expectation(wl.compiled, MEAS_EPS),
        "events": len(wl.compiled.schedule),
        "trotter_steps": protocol.count_trotter_steps(p, wl.compiled.schedule),
        "evolution_gates": len(wl.compiled.evolution_circuit),
    }


def oracle_reference(wl) -> dict:
    return {
        "exact_fidelity": wl.op(0)["fidelity"],
        "events": len(wl.schedule),
        "steps": protocol.count_trotter_steps(wl.params, wl.schedule),
    }


def main() -> None:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        wl = {name: cls(PIN_SEED, workdir) for name, cls in WORKLOADS.items()}
        refs = {
            "braid_opt_n6": braid_reference(wl["braid_opt_n6"]),
            "braid_eff_n14": braid_reference(wl["braid_eff_n14"]),
            "noise_eff_n6": noise_reference(wl["noise_eff_n6"]),
            "oracle_eff_n6": oracle_reference(wl["oracle_eff_n6"]),
        }
    print(json.dumps(refs, indent=4))


if __name__ == "__main__":
    main()

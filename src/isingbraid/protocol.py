"""The four-stage exchange protocol: initialization, rightward domain
transport, mid-protocol coupler rotation, return transport, and logical
readout.

The transport and rotation follow the field schedule of ``schedule``; this
module holds the protocol's parameters and their closed-form braid counts,
compiles the walked schedule into Trotter steps, and prepares the initial
and target states of each scenario. Fidelity is measured against the
expected chain state with the coupler traced out.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from . import analysis
from .circuit import (
    Circuit,
    Gate,
    GateCounts,
    GateKind,
    _integer,
    concat,
    depths_and_counts,
    inverse,
)
from .statevector import (
    QuantumState,
    SampleCounts,
    check_register,
    run,
    sample,
    zero_state,
)
from .schedule import (
    FieldSchedule,
    RotateCoupler,
    build_field_schedule,
    chain_config,
    count_trotter_steps,
    initial_fields,
    rotation_count,
    steps_per_hold,
    updates_per_shift,
    walk_schedule,
)
from .trotter import extend_trotter_steps

SCENARIOS = ("translate_no_coupler", "translate_with_coupler", "braid")
COUPLER_PREPS = ("RX_half_pi", "H", "RY_half_pi")
UPDATE_MODES = ("stepped", "linear")


class LogicalLabel(str, Enum):
    L0 = "L0"
    L1 = "L1"
    ALL_UP = "ALL_UP"
    ALL_DOWN = "ALL_DOWN"


class AdiabaticityWarning(UserWarning):
    """Field updates are fast relative to the excitation gap."""


# Most gates the braid's evolution circuit may have: about 2.2 times the OPT
# braid's 1,916,613 at N_s = 22. `export` peaks at about 115 bytes per gate
# (its QASM text; `run --depth-only` at about 17), so about 480 MB here.
# A larger braid is rejected before anything is built. A Trotter step has at
# least 18 gates, so this also keeps a braid under 2**18 steps.
MAX_BRAID_GATES = 1 << 22


@dataclass(frozen=True)
class ProtocolParams:
    """All protocol tunables. Defaults are the optimized high-fidelity set
    for a 6-site system."""

    N_s: int = 6
    J: float = 1.0
    J_C: float = 0.3
    h_ferro: float = 0.01
    h_para: float = 5.0
    dt: float = 0.2
    dh: float = 0.05
    T: float = 2.0
    Gamma: float = math.pi / 3
    theta: float = math.pi
    shots: int = 10000
    seed: int = 1
    update_mode: str = "stepped"
    coupler_prep: str = "RX_half_pi"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, _integer(f.name, value))
            elif f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.N_s < 6 or self.N_s % 2 != 0:
            raise ValueError("N_s must be an even count >= 6")
        if not 0 < self.h_ferro < self.J:
            raise ValueError("need 0 < h_ferro < J")
        if self.h_para <= self.h_ferro:
            raise ValueError("need h_para > h_ferro")
        if self.h_para <= self.J:
            # Weak phase separation is allowed (parameter sweeps cross it)
            # but transport cannot be expected to work there.
            warnings.warn(
                f"h_para = {self.h_para} <= J = {self.J}: ferromagnetic and "
                "paramagnetic regions are not well separated",
                AdiabaticityWarning,
                stacklevel=2,
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.dh <= self.h_para:
            raise ValueError("need 0 < dh <= h_para")
        if self.T < self.dt:
            raise ValueError("hold period T must be at least dt")
        if not math.isfinite(self.T / self.dt):
            raise ValueError("T/dt must be finite")
        if self.J_C < 0:
            raise ValueError("J_C must be non-negative")
        if not 0 < self.Gamma <= math.pi:
            raise ValueError("need 0 < Gamma <= pi")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:  # numpy takes no negative seed
            raise ValueError("seed must be >= 0")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(f"update_mode must be one of {UPDATE_MODES}")
        if self.coupler_prep not in COUPLER_PREPS:
            raise ValueError(f"coupler_prep must be one of {COUPLER_PREPS}")
        try:
            gates = braid_gate_count(self)
        except OverflowError:  # an update or rotation count of inf
            gates = math.inf
        if gates > MAX_BRAID_GATES:
            raise ValueError(
                f"the braid circuit needs {gates:,} gates, more than the "
                f"{MAX_BRAID_GATES:,} that can be compiled"
            )
        margin = analysis.adiabatic_margin(self)
        if margin < 10:
            warnings.warn(
                f"adiabatic margin {margin:.2f} < 10; field updates may be "
                "too fast for ground-state transport",
                AdiabaticityWarning,
                stacklevel=2,
            )

    @property
    def chain_len(self) -> int:
        return self.N_s // 2

    @property
    def n_qubits(self) -> int:
        return self.N_s + 1

    @property
    def coupler_qubit(self) -> int:
        return self.chain_len

    @property
    def domain_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.chain_len))

    @property
    def data_qubits(self) -> tuple[int, ...]:
        """All chain qubits, coupler excluded."""
        return tuple(q for q in range(self.n_qubits) if q != self.coupler_qubit)


def braid_trotter_steps(params: ProtocolParams) -> int:
    """Trotter steps of the braid schedule, the longest scenario, in closed
    form: steps per hold x (N_s updates per shift + rotation count)."""
    return steps_per_hold(params) * (
        params.N_s * updates_per_shift(params) + rotation_count(params)
    )


def braid_gate_count(params: ProtocolParams) -> int:
    """Gates of the braid's evolution circuit in closed form: in each
    Trotter step three (CNOT, RZ, CNOT) for each of the N_s - 2 ZZ pairs,
    one RX per site and five for the coupler term (none for J_C = 0); and
    one RY per coupler rotation."""
    per_step = 3 * (params.N_s - 2) + params.N_s + (5 if params.J_C else 0)
    return braid_trotter_steps(params) * per_step + rotation_count(params)


STEP_DEPTH = 12  # layered depth of one full step, independent of system size


@dataclass(frozen=True)
class DepthBound:
    real: float
    integer: int


def depth_upper_bound(params: ProtocolParams) -> DepthBound:
    """Depth bound D = 12 (T/dt) (N_s h_para/dh + pi/Gamma).

    ``real`` evaluates the formula with exact reals; ``integer`` uses the
    same rounding conventions as the compiled schedule (nearest step count
    per hold, ceil update and rotation counts).
    """
    real = (
        STEP_DEPTH
        * (params.T / params.dt)
        * (params.N_s * (params.h_para / params.dh) + math.pi / params.Gamma)
    )
    return DepthBound(real=real, integer=STEP_DEPTH * braid_trotter_steps(params))


# ---------------------------------------------------------------------------
# Compilation


def build_protocol_circuit(
    params: ProtocolParams, schedule: FieldSchedule
) -> Circuit:
    """Compile the schedule into the full evolution circuit (no init/readout).

    The whole walk of ``walk_schedule`` goes to one ``extend_trotter_steps``
    call, which appends each hold's Trotter steps, each row of fields
    repeated as often as the entry says, to one flat gate list, with the
    Zeeman angles of the whole walk computed once; each coupler rotation
    event appends a single RY on the coupler qubit. Each step reuses the RX
    gates of the step before wherever their angle is unchanged.
    """
    cfg = chain_config(params, initial_fields(params))
    walk = (Gate(GateKind.RY, (params.coupler_qubit,), item.angle)
            if isinstance(item, RotateCoupler) else item
            for item in walk_schedule(params, schedule))
    gates: list[Gate] = []
    extend_trotter_steps(gates, cfg, walk, params.dt)
    return Circuit._trusted(params.n_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# Initialization and targets


def _coupler_prep_gate(params: ProtocolParams) -> Gate:
    q = params.coupler_qubit
    if params.coupler_prep == "RX_half_pi":
        return Gate(GateKind.RX, (q,), math.pi / 2)
    if params.coupler_prep == "RY_half_pi":
        return Gate(GateKind.RY, (q,), math.pi / 2)
    return Gate(GateKind.H, (q,))


def initialization_circuit(
    params: ProtocolParams,
    label: LogicalLabel,
    include_coupler_prep: bool = True,
) -> Circuit:
    """Prepare the domain logical state, paramagnetic superpositions, and
    the coupler superposition."""
    gates: list[Gate] = []
    d0 = params.domain_qubits[0]
    if label in (LogicalLabel.L0, LogicalLabel.L1):
        gates.append(Gate(GateKind.H, (d0,)))
        for a, b in zip(params.domain_qubits, params.domain_qubits[1:]):
            gates.append(Gate(GateKind.CNOT, (a, b)))
        if label is LogicalLabel.L1:
            gates.append(Gate(GateKind.Z, (d0,)))
    elif label is LogicalLabel.ALL_DOWN:
        gates.extend(Gate(GateKind.X, (q,)) for q in params.domain_qubits)
    for q in range(params.coupler_qubit + 1, params.n_qubits):
        gates.append(Gate(GateKind.H, (q,)))
    if include_coupler_prep:
        gates.append(_coupler_prep_gate(params))
    return Circuit(params.n_qubits, tuple(gates))


_LOGICAL_COEFFS = {
    LogicalLabel.L0: (1.0, 0.0),
    LogicalLabel.L1: (0.0, 1.0),
    LogicalLabel.ALL_UP: (1 / math.sqrt(2), 1 / math.sqrt(2)),
    LogicalLabel.ALL_DOWN: (1 / math.sqrt(2), -1 / math.sqrt(2)),
}


def domain_amplitudes(label: LogicalLabel, theta: float) -> tuple[complex, complex]:
    """Amplitudes (a, b) of the all-up and all-down domain strings after the
    exchange acts as RZ(-theta) on the logical subspace."""
    c0, c1 = _LOGICAL_COEFFS[label]
    c0 = c0 * np.exp(0.5j * theta)
    c1 = c1 * np.exp(-0.5j * theta)
    a = (c0 + c1) / math.sqrt(2)
    b = (c0 - c1) / math.sqrt(2)
    return complex(a), complex(b)


def target_chain_state(params: ProtocolParams, a: complex, b: complex) -> np.ndarray:
    """Expected chain state (coupler excluded): domain string superposition
    a|0..0> + b|1..1> on the domain, |+> on every paramagnetic site."""
    half = params.chain_len
    domain = np.zeros(1 << half, dtype=complex)
    domain[0] = a
    domain[-1] = b
    plus = np.full(2, 1 / math.sqrt(2), dtype=complex)
    para = np.array([1.0 + 0j])
    for _ in range(half):
        para = np.kron(plus, para)
    return np.kron(para, domain)  # paramagnetic sites are the high bits


def target_prep_circuit(params: ProtocolParams, a: complex, b: complex) -> Circuit:
    """Circuit on the full register preparing the target chain state from
    |0...0> while leaving the coupler untouched."""
    gates: list[Gate] = []
    d0 = params.domain_qubits[0]
    phi = 2.0 * math.atan2(abs(b), abs(a))
    if abs(phi) > 1e-15:
        gates.append(Gate(GateKind.RY, (d0,), phi))
    if abs(a) > 1e-15 and abs(b) > 1e-15:
        lam = math.atan2(b.imag, b.real) - math.atan2(a.imag, a.real)
        if abs(lam) > 1e-15:
            gates.append(Gate(GateKind.RZ, (d0,), lam))
    for x, y in zip(params.domain_qubits, params.domain_qubits[1:]):
        gates.append(Gate(GateKind.CNOT, (x, y)))
    for q in range(params.coupler_qubit + 1, params.n_qubits):
        gates.append(Gate(GateKind.H, (q,)))
    return Circuit(params.n_qubits, tuple(gates))


def chain_fidelity(
    state: QuantumState, target_chain: np.ndarray, coupler_qubit: int
) -> float:
    """<target| rho_chain |target> with the coupler qubit traced out."""
    # The amplitudes with the coupler's bit 0 and with it 1, as two views.
    halves = state.amplitudes.reshape(-1, 2, 1 << coupler_qubit)
    total = 0.0
    for b in (0, 1):
        total += abs(np.vdot(target_chain, halves[:, b])) ** 2
    return float(min(max(total, 0.0), 1.0))


def all_zeros_frequency(counts: SampleCounts, data_bits) -> float:
    """Fraction of shots where every listed bit position reads 0."""
    hits = sum(
        c
        for bits, c in counts.counts.items()
        if all(bits[q] == "0" for q in data_bits)
    )
    return hits / counts.shots


# ---------------------------------------------------------------------------
# Scenario execution


@dataclass(frozen=True)
class ScenarioRun:
    """All artifacts of one compiled scenario. Its two dense vectors, the
    target chain state and the simulated final state, are built on first
    read, so a scenario of any size can be compiled, counted and exported.
    The two composite circuits are also built once, on first read."""

    params: ProtocolParams
    scenario: str
    init: LogicalLabel
    theta_applied: float
    schedule: FieldSchedule
    init_circuit: Circuit
    evolution_circuit: Circuit
    readout_circuit: Circuit

    @cached_property
    def prepared_circuit(self) -> Circuit:
        """Initialization followed by evolution, as one circuit: the one
        whose gate positions the noise trajectories index."""
        return concat([self.init_circuit, self.evolution_circuit])

    @cached_property
    def full_circuit(self) -> Circuit:
        """Initialization, evolution and readout: the circuit that is exported."""
        return concat([self.init_circuit, self.evolution_circuit, self.readout_circuit])

    @cached_property
    def target_chain(self) -> np.ndarray:
        """The expected chain state, coupler excluded."""
        a, b = domain_amplitudes(self.init, self.theta_applied)
        return target_chain_state(self.params, a, b)

    @cached_property
    def final_state(self) -> QuantumState:
        """The noiseless state after evolution, simulated on first read:
        the initialization circuit and then the evolution, in two runs, so
        ``prepared_circuit`` is not built."""
        initialized = run(zero_state(self.params.n_qubits), self.init_circuit)
        return run(initialized, self.evolution_circuit)

    def structure(self) -> dict:
        """Depths, gate counts and Trotter steps: the report values that
        need no simulation. Both depths and the counts come from one walk
        of the three circuits, without building the full circuit."""
        total, evolution, counts = depths_and_counts(
            self.init_circuit, self.evolution_circuit, self.readout_circuit
        )
        return {
            "depth_total": total,
            "depth_evolution_only": evolution,
            "gate_counts": counts,
            "trotter_steps": count_trotter_steps(self.params, self.schedule),
        }


@dataclass(frozen=True)
class FidelityReport:
    scenario: str
    init: str
    exact_fidelity: float
    sampled_fidelity: float
    sampled_stderr: float
    depth_total: int
    depth_evolution_only: int
    gate_counts: GateCounts
    trotter_steps: int
    bound_values: dict[str, float]
    params: ProtocolParams

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_scenario(
    params: ProtocolParams, scenario: str
) -> tuple[ProtocolParams, bool, bool, float]:
    """Returns (effective params, coupler prep?, rotation?, theta applied)."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if scenario == "translate_no_coupler":
        return replace(params, J_C=0.0), False, False, 0.0
    if scenario == "translate_with_coupler":
        return params, True, False, 0.0
    return params, True, True, params.theta


def compile_scenario(
    params: ProtocolParams, scenario: str, init: LogicalLabel
) -> ScenarioRun:
    """Build the schedule and the init, evolution and readout circuits of one
    scenario, without simulating."""
    eff, prep_coupler, rotate, theta_applied = resolve_scenario(params, scenario)
    schedule = build_field_schedule(eff, include_rotation=rotate)
    a, b = domain_amplitudes(init, theta_applied)
    return ScenarioRun(
        params=eff,
        scenario=scenario,
        init=init,
        theta_applied=theta_applied,
        schedule=schedule,
        init_circuit=initialization_circuit(eff, init, include_coupler_prep=prep_coupler),
        evolution_circuit=build_protocol_circuit(eff, schedule),
        readout_circuit=inverse(target_prep_circuit(eff, a, b)),
    )


def readout_counts(run_: ScenarioRun, seed: int | None = None) -> SampleCounts:
    """Shot counts after applying the inverse target-preparation circuit."""
    params = run_.params
    measured = run(run_.final_state, run_.readout_circuit)
    sample_seed = seed if seed is not None else params.seed
    return sample(measured, params.shots, sample_seed)


def sampled_fidelity_from_counts(
    counts: SampleCounts, data_qubits
) -> tuple[float, float]:
    p = all_zeros_frequency(counts, data_qubits)
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / counts.shots)
    return p, stderr


def run_scenario(
    params: ProtocolParams, scenario: str, init: LogicalLabel
) -> FidelityReport:
    """Simulate one benchmark scenario and report fidelities, depths, and
    bound values. A register too large to simulate is rejected before
    anything is compiled."""
    check_register(params.n_qubits)
    run_ = compile_scenario(params, scenario, init)
    eff = run_.params
    exact = chain_fidelity(run_.final_state, run_.target_chain, eff.coupler_qubit)
    sampled, stderr = sampled_fidelity_from_counts(readout_counts(run_), eff.data_qubits)
    return FidelityReport(
        scenario=scenario,
        init=init.value,
        exact_fidelity=exact,
        sampled_fidelity=sampled,
        sampled_stderr=stderr,
        bound_values=analysis.bound_values(eff),
        params=eff,
        **run_.structure(),
    )

"""The field schedule of the exchange and the one walk of it.

The ferromagnetic domain (sites with weak transverse field) starts on the
far left chain and is walked site by site to the right chain by
simultaneous extend/contract field updates, optionally picks up a stepwise
coupler rotation, and is walked back. ``build_field_schedule`` lists these
as events; ``walk_schedule`` turns them into the rows of fields of each
Trotter step. Both consumers of the schedule follow that walk: the gate
compiler (``protocol.build_protocol_circuit``) and the Trotter-free oracle
(``analysis.exact_evolve``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .trotter import ChainConfig

if TYPE_CHECKING:
    from .protocol import ProtocolParams


@dataclass(frozen=True)
class SetFields:
    fields: tuple[float, ...]
    hold: float


@dataclass(frozen=True)
class RotateCoupler:
    angle: float


@dataclass(frozen=True)
class FieldSchedule:
    events: tuple = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.events)


def initial_fields(params: ProtocolParams) -> tuple[float, ...]:
    """Ferromagnetic domain on the left chain, paramagnetic elsewhere."""
    half = params.chain_len
    return (params.h_ferro,) * half + (params.h_para,) * half


def chain_config(params: ProtocolParams, fields) -> ChainConfig:
    return ChainConfig(
        chain_len=params.chain_len,
        J=params.J,
        J_C=params.J_C,
        fields=tuple(fields),
    )


def updates_per_shift(params: ProtocolParams) -> int:
    """Field updates needed to move the domain boundary by one site."""
    return math.ceil((params.h_para - params.h_ferro) / params.dh)


def rotation_count(params: ProtocolParams) -> int:
    return math.ceil(params.theta / params.Gamma) if params.theta > 0 else 0


def steps_per_hold(params: ProtocolParams, hold: float | None = None) -> int:
    """Trotter steps per hold period: nearest integer, at least 1."""
    hold = params.T if hold is None else hold
    if hold < params.dt:
        raise ValueError("sub-step holds unsupported (hold < dt)")
    return max(1, round(hold / params.dt))


def build_field_schedule(
    params: ProtocolParams, include_rotation: bool
) -> FieldSchedule:
    """Rightward shifts, optional stepwise coupler rotation, leftward shifts.

    Each shift consists of simultaneous extend/contract updates of the two
    domain-boundary fields by dh, clamped to [h_ferro, h_para], each held
    for T. Rotation events split theta into ceil(theta/Gamma) increments,
    each followed by one hold at fixed fields.
    """
    half = params.chain_len
    n_updates = updates_per_shift(params)
    fields = list(initial_fields(params))
    events: list = []

    def clamp(h: float) -> float:
        return min(max(h, params.h_ferro), params.h_para)

    def shift(entering: int, leaving: int) -> None:
        for _ in range(n_updates):
            fields[entering] = clamp(fields[entering] - params.dh)
            fields[leaving] = clamp(fields[leaving] + params.dh)
            events.append(SetFields(tuple(fields), params.T))
        # Clamping guarantees exact endpoint values after the final update.
        fields[entering] = params.h_ferro
        fields[leaving] = params.h_para

    for s in range(half):  # domain occupies sites [s, s + half - 1]
        shift(entering=s + half, leaving=s)

    if include_rotation and params.theta > 0:
        k = rotation_count(params)
        for step in range(k):
            angle = (
                params.Gamma
                if step < k - 1
                else params.theta - (k - 1) * params.Gamma
            )
            events.append(RotateCoupler(angle))
            events.append(SetFields(tuple(fields), params.T))

    for s in range(half, 0, -1):  # domain occupies sites [s, s + half - 1]
        shift(entering=s - 1, leaving=s + half - 1)

    return FieldSchedule(tuple(events))


def count_trotter_steps(params: ProtocolParams, schedule: FieldSchedule) -> int:
    return sum(
        steps_per_hold(params, ev.hold)
        for ev in schedule.events
        if isinstance(ev, SetFields)
    )


def walk_schedule(params: ProtocolParams, schedule: FieldSchedule):
    """The entries of the schedule, in order: each coupler rotation as is
    and each hold once, as (step fields, repeat count): the step fields are
    a ``(k, N_s)`` array, one row per distinct Trotter step of the hold, and
    each row stands for ``repeats`` steps in a row.

    A ``stepped`` hold is one row, the event's fields, repeated for every
    Trotter step of the hold; a ``linear`` hold is one row per step, at
    fields interpolated from the previous hold's towards the event's, each
    taken once. The rows of every linear hold are computed in one array
    pass, each element as prev + (m / n) * (target - prev) for step m of
    the hold's n, and each hold's entry is a view of them. Every hold must
    give one field per chain site and last at least one step; that is
    checked for the whole schedule by the call itself, which raises before
    it returns the generator of entries.
    """
    holds = [e for e in schedule.events if not isinstance(e, RotateCoupler)]
    for event in holds:
        if len(event.fields) != params.N_s:
            raise ValueError(
                f"need {params.N_s} field values, got {len(event.fields)}"
            )
    steps = [steps_per_hold(params, e.hold) for e in holds]
    if params.update_mode == "linear":
        n = np.array(steps, dtype=int)
        targets = np.array([e.fields for e in holds], dtype=float).reshape(-1, params.N_s)
        prevs = np.vstack([initial_fields(params), targets])[:-1]
        ends = n.cumsum()
        m = np.arange(1, n.sum() + 1) - np.repeat(ends - n, n)
        rows = np.repeat(targets - prevs, n, axis=0)
        rows *= (m / np.repeat(n, n))[:, None]
        rows += np.repeat(prevs, n, axis=0)
        walked = [(rows[end - k:end], 1) for end, k in zip(ends.tolist(), steps)]
    else:
        walked = [(np.asarray(e.fields, dtype=float)[None, :], k)
                  for e, k in zip(holds, steps)]

    def entries():
        hold_entries = iter(walked)
        for event in schedule.events:
            yield event if isinstance(event, RotateCoupler) else next(hold_entries)

    return entries()

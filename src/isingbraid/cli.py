"""Command-line front end: single runs, parameter sweeps, bound reports,
and OpenQASM export.

Config files are flat ``key = value`` text. Keys match ProtocolParams field
names, plus ``scenario``/``init`` and, for sweeps, ``axis``/``values``.
Angle values accept ``pi`` fractions like ``pi/3`` or ``2pi/3``. Unknown
keys, non-integer values of integer keys, values out of range (``nan`` and
``inf`` included), schedules too long to compile and registers too large
to simulate are rejected (exit code 2); every emitted report echoes the
fully resolved parameter set so defaults are never silent.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from functools import cache

from . import analysis
from .analysis import MAX_DENSE_QUBITS
from .circuit import to_qasm
from .protocol import (
    SCENARIOS,
    LogicalLabel,
    ProtocolParams,
    compile_scenario,
    depth_upper_bound,
    run_scenario,
)
from .schedule import chain_config, initial_fields
from .statevector import RegisterSizeError, check_register


class ConfigError(ValueError):
    """Invalid configuration input (maps to exit code 2)."""


_EXTRA_KEYS = {"scenario", "init", "axis", "values"}

# The coefficient is a sign, a number, or both; "." alone is not a number.
_PI_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?$"
)


def parse_number(text: str) -> float:
    """Parse a float literal or a ``pi`` fraction such as pi, pi/3, 2pi/3."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    m = _PI_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse numeric value {text!r}")
    coef_txt = m.group(1)
    coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(coef_txt)
    if coef is None:
        coef = float(coef_txt)
    denom = float(m.group(2)) if m.group(2) else 1.0
    if denom == 0:
        raise ConfigError(f"zero denominator in {text!r}")
    return coef * math.pi / denom


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS and key not in _EXTRA_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def parse_int(text: str) -> int:
    """Parse an integer literal; anything else is a ConfigError."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text.strip()!r}") from None


# The parser of each ProtocolParams field, by its annotation (a string
# under ``from __future__ import annotations``).
_PARSERS = {
    f.name: {"int": parse_int, "float": parse_number, "str": str}[f.type]
    for f in dataclasses.fields(ProtocolParams)
}


def build_params(cfg: dict[str, str], seed_override: int | None = None) -> ProtocolParams:
    kwargs = {key: _PARSERS[key](value) for key, value in cfg.items()
              if key in _PARSERS}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return ProtocolParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_scenario_init(cfg: dict[str, str]) -> tuple[str, LogicalLabel]:
    scenario = cfg.get("scenario", "braid")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    init_name = cfg.get("init", "ALL_UP")
    try:
        init = LogicalLabel(init_name)
    except ValueError as exc:
        raise ConfigError(f"unknown init {init_name!r}") from exc
    return scenario, init


def derive_seed(master: int, axis_value: str, scenario: str) -> int:
    """Deterministic per-row seed fan-out.

    Keyed on the formatted axis value (not its list position) so permuting
    the sweep list permutes rows without changing their contents.
    """
    import hashlib  # here, like concurrent.futures: only sweeps need it

    digest = hashlib.sha256(f"{master}:{axis_value}:{scenario}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# Subcommands


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _write_json(report, out_path: str | None) -> None:
    """Dataclasses in ``report`` (params, gate counts, bounds) are written
    as objects of their fields."""
    text = json.dumps(report, indent=2, sort_keys=True, default=dataclasses.asdict)
    _write_out(text + "\n", out_path)


def cmd_run(cfg: dict[str, str], out_path: str | None, seed: int | None,
            depth_only: bool) -> int:
    params = build_params(cfg, seed)
    scenario, init = resolve_scenario_init(cfg)
    if depth_only:
        compiled = compile_scenario(params, scenario, init)
        report = {
            "scenario": scenario,
            "init": init.value,
            **compiled.structure(),
            "depth_bound": depth_upper_bound(compiled.params),
            "params": compiled.params,
        }
    else:
        report = run_scenario(params, scenario, init)
    _write_json(report, out_path)
    return 0


CSV_HEADER = (
    "axis_value,scenario,init,exact_fidelity,sampled_fidelity,sampled_stderr,"
    "depth_total,depth_evolution,trotter_steps,per_step_bound,total_bound,"
    "adiabatic_margin,seed"
)


def _sweep_point(args) -> str:
    params, value, scenario, init, depth_only = args
    if depth_only:
        compiled = compile_scenario(params, scenario, init)
        nan = float("nan")
        rep = dict(compiled.structure(), exact_fidelity=nan, sampled_fidelity=nan,
                   sampled_stderr=nan, bound_values=analysis.bound_values(compiled.params))
    else:
        rep = run_scenario(params, scenario, init).to_dict()
    bounds = rep["bound_values"]
    return ",".join([
        _fmt(value), scenario, init.value, _fmt(rep["exact_fidelity"]),
        _fmt(rep["sampled_fidelity"]), _fmt(rep["sampled_stderr"]),
        str(rep["depth_total"]), str(rep["depth_evolution_only"]),
        str(rep["trotter_steps"]), _fmt(bounds["per_step"]), _fmt(bounds["total"]),
        _fmt(bounds["adiabatic_margin"]), str(params.seed),
    ])


def cmd_sweep(cfg: dict[str, str], out_path: str | None, seed: int | None,
              jobs: int, depth_only: bool) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if "axis" not in cfg:
        raise ConfigError("sweep requires key 'axis'")
    if "values" not in cfg:
        raise ConfigError("sweep requires key 'values'")
    axis = cfg["axis"]
    parse = _PARSERS.get(axis, str)
    if parse is str:
        raise ConfigError(f"axis must be a numeric parameter, got {axis!r}")
    values = [parse(v) for v in cfg["values"].split(",") if v.strip()]
    if not values:
        raise ConfigError("values list is empty")
    scenario, init = resolve_scenario_init(cfg)
    master = seed if seed is not None else parse_int(cfg.get("seed", "1"))
    base = {k: v for k, v in cfg.items() if k in _PARSERS and k != axis}
    # Every point is checked here, so that one bad value exits before the
    # pool starts or any point compiles.
    work = []
    for value in values:
        params = build_params({**base, axis: repr(value)},
                              derive_seed(master, _fmt(value), scenario))
        if not depth_only:
            check_register(params.n_qubits)
        work.append((params, value, scenario, init, depth_only))
    # The pool starts all its workers at once, so never more than points.
    workers = min(jobs, len(work))
    if workers > 1:
        # Imported here, not with the module: concurrent.futures imports
        # logging, and the process pool multiprocessing, which no other
        # command needs.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, work))
    else:
        rows = [_sweep_point(w) for w in work]
    _write_out("\n".join([CSV_HEADER, *rows]) + "\n", out_path)
    return 0


def cmd_bounds(cfg: dict[str, str], out_path: str | None, seed: int | None) -> int:
    params = build_params(cfg, seed)
    bounds = analysis.bound_values(params)
    report: dict = {
        "per_step_bound": bounds["per_step"],
        "total_bound": bounds["total"],
        "adiabatic_margin": bounds["adiabatic_margin"],
    }
    cfg_start = chain_config(params, initial_fields(params))
    comm = analysis.commutator_bounds(cfg_start)
    report["commutator_norm_bounds"] = {
        "JZ_even": comm["zz_first_zeeman"],
        "JZ_odd": comm["zz_second_zeeman"],
        "Z_CI": comm["zeeman_coupler"],
    }
    if params.n_qubits <= MAX_DENSE_QUBITS:
        rep = analysis.commutator_norms(cfg_start)
        report["exact_commutator_norms"] = {
            "JZ_even": rep.exact["zz_first_zeeman"],
            "JZ_odd": rep.exact["zz_second_zeeman"],
            "Z_CI": rep.exact["zeeman_coupler"],
            "max_vanishing_norm": rep.max_vanishing_norm,
        }
    else:
        report["exact_commutator_norms"] = None
        report["note"] = (
            f"exact norms omitted: register exceeds {MAX_DENSE_QUBITS} qubits"
        )
    report["params"] = params
    _write_json(report, out_path)
    return 0


def cmd_export(cfg: dict[str, str], out_path: str | None, seed: int | None) -> int:
    params = build_params(cfg, seed)
    scenario, init = resolve_scenario_init(cfg)
    _write_out(to_qasm(compile_scenario(params, scenario, init).full_circuit), out_path)
    return 0


# ---------------------------------------------------------------------------
# Entry point


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="isingbraid",
        description="Ising-chain exchange protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "simulate one scenario and emit a JSON fidelity report"),
        ("sweep", "sweep one numeric parameter and emit CSV rows"),
        ("bounds", "emit analytic error bounds as JSON"),
        ("export", "export the full protocol circuit as OpenQASM 2.0"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        if name in ("run", "sweep"):
            p.add_argument("--depth-only", action="store_true",
                           help="compile and report depth without simulating")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg, args.out, args.seed, args.depth_only)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.seed, args.jobs, args.depth_only)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out, args.seed)
        return cmd_export(cfg, args.out, args.seed)
    except (ConfigError, RegisterSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

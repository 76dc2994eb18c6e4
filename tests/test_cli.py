import concurrent.futures
import json
import math

import pytest

from isingbraid.circuit import Circuit, Gate, GateKind
from isingbraid.cli import (
    CSV_HEADER,
    ConfigError,
    derive_seed,
    main,
    parse_config,
    parse_number,
)

FAST_CFG = """\
# coarse schedule, quick to simulate
dh = 0.5
T = 0.5
dt = 0.2
shots = 2000
scenario = braid
init = ALL_UP
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_number_forms():
    assert parse_number("0.25") == 0.25
    assert parse_number("pi") == pytest.approx(math.pi)
    assert parse_number("pi/3") == pytest.approx(math.pi / 3)
    assert parse_number("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_number("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_number("0.5*pi") == pytest.approx(math.pi / 2)
    with pytest.raises(ConfigError):
        parse_number("two")
    for text in ("pi/0", "2pi/0.0"):
        with pytest.raises(ConfigError, match="zero denominator"):
            parse_number(text)


def test_parse_config_strictness():
    assert parse_config("dt = 0.2\n# comment\n\nT=2") == {"dt": "0.2", "T": "2"}
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("dt = 0.2\nbogus = 1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("dt = 0.2\ndt = 0.3")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some text")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("dt =")


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "0.2", "braid")
    assert a == derive_seed(1, "0.2", "braid")
    assert a != derive_seed(1, "0.25", "braid")
    assert a != derive_seed(1, "0.2", "translate_with_coupler")
    assert a != derive_seed(2, "0.2", "braid")


def test_missing_config_file_is_exit_2(capsys):
    assert main(["run", "--config", "/nonexistent/x.cfg"]) == 2


def test_unknown_key_is_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "frobnicate = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "dt = -0.5", "theta = nan", "J_C = nan", "J = inf", "theta = inf",
    "T = 1e308", "theta = pi/0", "J_C = -1",
    "theta = .pi", "theta = +.pi", "theta = -.pi",
    "scenario = braid_twice", "init = L7",
])
def test_invalid_value_is_exit_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line", ["T = 1e9", "dh = 1e-9", "Gamma = 1e-12",
                                  "dh = 5e-324"])
def test_schedule_too_long_to_compile_is_exit_2(tmp_path, capsys, monkeypatch,
                                                line):
    from isingbraid import protocol

    def refuse(*args, **kwargs):
        raise AssertionError("schedule built before its length was checked")

    monkeypatch.setattr(protocol, "build_field_schedule", refuse)
    cfg = write_cfg(tmp_path, line + "\n")
    assert main(["run", "--config", cfg]) == 2
    assert "gates, more than the" in capsys.readouterr().err


# About 6.4e9 gates in 40,003 steps.
MANY_GATES_CFG = "N_s = 40000\ndh = 4.99\nT = 0.2\ndt = 0.2\n"


@pytest.mark.parametrize("argv", [["run", "--depth-only"], ["export"]])
def test_circuit_too_large_to_compile_is_exit_2(tmp_path, capsys, monkeypatch,
                                                argv):
    from isingbraid import cli, protocol

    def refuse(*args, **kwargs):
        raise AssertionError("compiled before the gate count was checked")

    monkeypatch.setattr(protocol, "build_field_schedule", refuse)
    monkeypatch.setattr(cli, "compile_scenario", refuse)
    cfg = write_cfg(tmp_path, MANY_GATES_CFG)
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    assert "6,400,440,000 gates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["N_s = 6.5", "seed = abc"])
def test_non_integer_config_value_is_exit_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, FAST_CFG + line + "\n")
    assert main(["run", "--config", cfg]) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_sweep_non_integer_axis_values_are_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG + "axis = N_s\nvalues = 6.5,8.9\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--depth-only"]) == 2
    assert "'6.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["export", "--jobs", "2"],
    ["export", "--depth-only"],
    ["bounds", "--jobs", "2"],
    ["run", "--jobs", "2"],
])
def test_flags_only_on_the_commands_that_use_them(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, FAST_CFG)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_missing_axis_names_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG)
    assert main(["sweep", "--config", cfg]) == 2
    assert "axis" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("axis = dt\n", "sweep requires key 'values'"),
    ("axis = update_mode\nvalues = 1,2\n", "axis must be a numeric parameter"),
    ("axis = dt\nvalues = ,\n", "values list is empty"),
])
def test_sweep_without_a_numeric_axis_or_values_is_exit_2(tmp_path, capsys,
                                                          lines, message):
    cfg = write_cfg(tmp_path, FAST_CFG + lines)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--depth-only"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_out_into_a_missing_directory_is_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = tmp_path / "missing" / "depth.json"
    assert main(["run", "--config", cfg, "--out", str(out), "--depth-only"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_emits_full_report(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = tmp_path / "report.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["scenario"] == "braid"
    assert 0 <= report["exact_fidelity"] <= 1
    assert report["params"]["dh"] == 0.5
    assert report["params"]["update_mode"] == "stepped"  # defaults are echoed
    assert report["depth_evolution_only"] <= report["depth_total"]


def test_run_depth_only_skips_simulation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out = tmp_path / "depth.json"
    assert main(["run", "--config", cfg, "--out", str(out), "--depth-only"]) == 0
    report = json.loads(out.read_text())
    assert "exact_fidelity" not in report
    assert report["depth_total"] >= report["depth_evolution_only"] > 0
    assert report["depth_bound"]["integer"] >= report["depth_evolution_only"]
    # Without --out the same report goes to stdout.
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--depth-only"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_run_depth_only_agrees_with_full_run(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG + "update_mode = linear\n")
    full, only = tmp_path / "full.json", tmp_path / "only.json"
    assert main(["run", "--config", cfg, "--out", str(full)]) == 0
    assert main(["run", "--config", cfg, "--out", str(only), "--depth-only"]) == 0
    full, only = json.loads(full.read_text()), json.loads(only.read_text())
    for key in ("depth_total", "depth_evolution_only", "gate_counts",
                "trotter_steps", "params"):
        assert only[key] == full[key], key


def test_register_too_large_to_simulate(tmp_path, capsys, monkeypatch):
    from isingbraid import protocol

    def refuse(*args):
        raise AssertionError("compiled before the register size was checked")

    # 27 qubits: over the simulator's limit, yet compiled in about a second.
    cfg = write_cfg(tmp_path, FAST_CFG + "N_s = 26\n")
    monkeypatch.setattr(protocol, "compile_scenario", refuse)
    assert main(["run", "--config", cfg]) == 2
    monkeypatch.undo()
    assert "2 GiB" in capsys.readouterr().err
    out = tmp_path / "depth.json"
    assert main(["run", "--config", cfg, "--out", str(out), "--depth-only"]) == 0
    assert json.loads(out.read_text())["params"]["N_s"] == 26
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.json")]) == 0


def test_run_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST_CFG)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


SWEEP_CFG = FAST_CFG + "axis = dt\nvalues = 0.2,0.25\n"


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.2"
    assert first[1] == "braid"
    assert first[2] == "ALL_UP"
    assert first[-1] == str(derive_seed(3, "0.2", "braid"))


def test_sweep_rows_independent_of_order(tmp_path):
    cfg_a = write_cfg(tmp_path, SWEEP_CFG, "a.cfg")
    cfg_b = write_cfg(
        tmp_path, FAST_CFG + "axis = dt\nvalues = 0.25,0.2\n", "b.cfg"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg_a, "--out", str(out_a), "--seed", "3"]) == 0
    assert main(["sweep", "--config", cfg_b, "--out", str(out_b), "--seed", "3"]) == 0
    rows_a = out_a.read_text().splitlines()[1:]
    rows_b = out_b.read_text().splitlines()[1:]
    # seeds are keyed on the axis value, so whole rows are order-independent
    assert sorted(rows_a) == sorted(rows_b)


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    serial, parallel = tmp_path / "ser.csv", tmp_path / "par.csv"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(parallel),
                 "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_starts_no_more_workers_than_points(tmp_path, capsys, monkeypatch):
    from isingbraid import cli

    started = []

    class Pool:  # records its size and maps in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = write_cfg(tmp_path, SWEEP_CFG)  # two values
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
            "--depth-only"]
    assert main([*argv, "--jobs", "64"]) == 0
    assert main([*argv, "--jobs", "1"]) == 0
    assert started == [2]
    for jobs in ("0", "-3"):
        assert main([*argv, f"--jobs={jobs}"]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert started == [2]


@pytest.mark.parametrize("axis, values, flags, message", [
    ("dt", "0.2,0.25,-1", ["--depth-only"], "dt must be positive"),
    ("dt", "0.2,0.25,-1", [], "dt must be positive"),
    ("N_s", "6,26", [], "register size 27"),
])
def test_sweep_checks_every_point_before_compiling(tmp_path, capsys, monkeypatch,
                                                   axis, values, flags, message):
    from isingbraid import cli, protocol

    def refuse(*args, **kwargs):
        raise AssertionError("started before every point was checked")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(cli, "compile_scenario", refuse)
    monkeypatch.setattr(protocol, "compile_scenario", refuse)
    cfg = write_cfg(tmp_path, FAST_CFG + f"axis = {axis}\nvalues = {values}\n")
    out = tmp_path / "s.csv"
    argv = ["sweep", "--config", cfg, "--out", str(out), "--jobs", "2", *flags]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_depth_only_over_system_size(tmp_path):
    cfg = write_cfg(
        tmp_path, FAST_CFG + "axis = N_s\nvalues = 6,8,10\n", "size.cfg"
    )
    out = tmp_path / "depth.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--depth-only"]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    depths = [int(r[7]) for r in rows]
    assert depths == sorted(depths)  # depth grows with system size
    assert all(r[3] == "nan" for r in rows)


def test_bounds_report_values(tmp_path):
    cfg = write_cfg(tmp_path, "Gamma = pi/3\n", "opt.cfg")
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["per_step_bound"] == pytest.approx(1.32)
    assert report["total_bound"] == pytest.approx(7920.0)
    assert report["adiabatic_margin"] == pytest.approx(400.0)
    exact = report["exact_commutator_norms"]
    assert exact["Z_CI"] <= report["commutator_norm_bounds"]["Z_CI"] * (1 + 1e-9)
    assert exact["max_vanishing_norm"] <= 1e-12


def test_bounds_zero_coupler_bound(tmp_path):
    cfg = write_cfg(tmp_path, "J_C = 0\n", "nc.cfg")
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["commutator_norm_bounds"]["Z_CI"] == 0.0


def _parse_qasm(text):
    """Minimal reader for the exporter's own OpenQASM 2.0 output."""
    import re

    lines = text.splitlines()
    n = int(re.fullmatch(r"qreg q\[(\d+)\];", lines[2]).group(1))
    gates = []
    for line in lines[3:]:
        if line.startswith("cx"):
            c, t = re.fullmatch(r"cx q\[(\d+)\],q\[(\d+)\];", line).groups()
            gates.append(Gate(GateKind.CNOT, (int(c), int(t))))
        elif "(" in line:
            name, angle, q = re.fullmatch(
                r"(\w+)\(([^)]+)\) q\[(\d+)\];", line
            ).groups()
            gates.append(Gate(GateKind(name), (int(q),), float(angle)))
        else:
            name, q = re.fullmatch(r"(\w+) q\[(\d+)\];", line).groups()
            gates.append(Gate(GateKind(name), (int(q),)))
    return Circuit(n, tuple(gates))


def test_export_round_trip(tmp_path):
    import numpy as np

    from isingbraid.circuit import to_qasm
    from isingbraid.cli import build_params
    from isingbraid.protocol import LogicalLabel, compile_scenario
    from isingbraid.statevector import run, zero_state

    cfg = write_cfg(tmp_path, FAST_CFG)
    out = tmp_path / "circuit.qasm"
    assert main(["export", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    params = build_params(parse_config(FAST_CFG))
    full = compile_scenario(params, "braid", LogicalLabel.ALL_UP).full_circuit
    header = to_qasm(Circuit(full.n_qubits, ())).splitlines()
    assert len(text.splitlines()) == len(full) + len(header)
    # re-simulating the exported gate list reproduces the state bit-exactly
    reparsed = _parse_qasm(text)
    state_a = run(zero_state(params.n_qubits), full)
    state_b = run(zero_state(reparsed.n_qubits), reparsed)
    assert np.array_equal(state_a.amplitudes, state_b.amplitudes)

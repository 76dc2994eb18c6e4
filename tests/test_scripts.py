"""Smoke tests of the scripts: each runs end to end on a small case, so that
a change to the library cannot leave a script broken."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_step_cost_runs_one_round_at_six_sites():
    lines = run_script("step_cost.py", "--sizes", "6", "--rounds", "1",
                       "--updates", "12")
    rows = [line.split() for line in lines if line.strip()]
    # One row per size in the first two tables, one per update mode in the
    # third, each time as its median and its spread.
    assert rows[1][:2] == ["6", "7"]
    assert len(rows[1]) == 2 + 2 * 4 + 1
    assert [row[:2] for row in rows[3:5]] == [["6", "7"], ["10", "11"]]
    assert len(rows[3]) == 2 + 2 + 1 + 2
    assert [row[:2] for row in rows[6:8]] == [["linear", "6030"], ["stepped", "6030"]]
    assert len(rows[6]) == 2 + 2 * 5
    assert lines[-1] == "median (spread) of 1 interleaved round(s)"


def test_noise_sweep_writes_one_row_per_eps(tmp_path):
    out = tmp_path / "sweep.csv"
    # 0.1 puts errors on most gates of every trajectory.
    lines = run_script("noise_sweep.py", "--eps", "0,1e-3,0.1", "--trajectories", "4",
                       "--out", str(out))
    assert [line.split()[0] for line in lines[:3]] == ["eps=0", "eps=0.001", "eps=0.1"]
    assert lines[-1] == f"wrote {out}"
    header, *rows = out.read_text().splitlines()
    assert header == "eps,mean_fidelity,stderr,trajectories"
    cells = [row.split(",") for row in rows]
    assert [(c[0], c[3]) for c in cells] == [("0", "4"), ("0.001", "4"), ("0.1", "4")]
    # Without noise every trajectory is the noiseless state: the EFF
    # braid's fidelity at N_s = 6, with a zero stderr.
    assert float(cells[0][1]) == pytest.approx(0.29085565387899537, abs=1e-12)
    assert float(cells[0][2]) == 0.0
    assert 0.0 <= float(cells[1][1]) < float(cells[0][1])
    assert 0.0 <= float(cells[2][1]) < float(cells[0][1])


def _csv_rows(path):
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    return [dict(zip(names, row.split(","))) for row in rows]


def test_depth_scaling_writes_depths_without_fidelities(tmp_path):
    out = tmp_path / "depth.csv"
    lines = run_script("depth_scaling.py", "--sizes", "6,22", "--out", str(out))
    assert lines[-1] == f"wrote {out}"
    rows = _csv_rows(out)
    assert [row["axis_value"] for row in rows] == ["6", "22"]
    # The gate-by-gate walk's depths; at N_s = 22 the stretches of repeated
    # steps are thousands of steps long.
    assert [(row["depth_total"], row["depth_evolution"], row["trotter_steps"])
            for row in rows] == [("54276", "54273", "6030"),
                                 ("198284", "198273", "22030")]
    assert all(row["exact_fidelity"] == "nan" for row in rows)


def test_trotter_step_sweep_writes_one_row_per_dt(tmp_path):
    out = tmp_path / "dt.csv"
    lines = run_script("trotter_step_sweep.py", "--values", "0.7", "--out", str(out))
    assert lines[-1] == f"wrote {out}"
    [row] = _csv_rows(out)
    assert (row["axis_value"], row["scenario"], row["init"]) == ("0.7", "braid", "ALL_UP")
    assert 0.0 <= float(row["exact_fidelity"]) <= 1.0


def test_scenario_table_prints_five_scenario_rows():
    lines = run_script("scenario_table.py", "--fast")
    assert lines[0].startswith("# N_s=6")
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        ["translate_no_coupler", "ALL_UP"], ["translate_no_coupler", "L0"],
        ["translate_with_coupler", "ALL_UP"], ["translate_with_coupler", "L0"],
        ["braid", "ALL_UP"]]
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)

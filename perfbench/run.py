"""Benchmark of isingbraid: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``. Each
workload runs in worker processes of its own (``worker.py``) with BLAS
threads pinned to one. Untraced, one worker sets up, runs a warm-up op and
times ops for about ``--seconds``; further workers only set up. The run
reports the median set-up time over all workers, and the median op time
and the peak resident memory of the timing worker. Set-up and op times are
given at the reference speed of ``calibrate.py``, which takes out the
drift of the machine's speed; the wall-clock medians are printed too.
Traced, one worker alternates untraced and traced ops and reports
per-layer self times from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every op's output is
checked; a failed check counts as a failed op. Details, including the
environment, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("braid_opt_n6", "braid_eff_n14", "noise_eff_n6", "oracle_eff_n6")
# Set-ups per untraced run, whose median is setup_s: the timing worker's,
# then those of workers that only set up.
SETUPS = 2
# Every run must end well within 180 s.
DEADLINE_S = 170.0
# Workers keep the bytecode of every module, the library's and numpy's too,
# here and nowhere else, and write it even where the environment says not
# to; an unmeasured set-up fills it before the first measured one. So
# set-up time never includes compiling bytecode, whatever earlier runs or
# tests left in ``__pycache__`` directories.
PYCACHE = OUT / "pycache"
# BLAS threads pinned to one. glibc's malloc thresholds are fixed: left
# to adjust themselves, whether a state-sized numpy temporary is mapped
# afresh (or the heap trimmed) on every gate depends on the process's
# allocation history, so the first 15-qubit op in a process took 5 s or
# 12 s, half of it page faults, from one small change in what ran before.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONPYCACHEPREFIX": str(PYCACHE),
             "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=4194304:"
                               "glibc.malloc.trim_threshold=33554432"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(CHILD_ENV)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               workdir: Path, deadline: float,
               setup_only: bool = False) -> tuple[float, dict]:
    """Start one worker and wait for it. Returns (set-up seconds, result)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(workdir)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first.strip() or not rest:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    if not json.loads(first).get("ready"):
        raise BenchError(f"worker for {workload} did not report ready")
    return setup_s, json.loads(rest[-1])


def warm_pycache(args, deadline: float) -> None:
    """Fill ``PYCACHE`` with an unmeasured set-up, once per checkout."""
    if not PYCACHE.is_dir():
        run_worker(args.workload, args.seed, 0.0, 0, OUT / "pycache-warmup",
                   deadline, setup_only=True)
        PYCACHE.mkdir(exist_ok=True)


def setup_seconds(workload: str, worker: dict) -> float:
    """A worker's set-up time at the reference speed, from the reference
    work timed right after it."""
    return at_reference_speed(workload, worker["setup_s"],
                              worker["reference_times"][0])


def op_seconds(workload: str, worker: dict) -> list[float]:
    """Each timed op's time at the reference speed, from the mean of the
    reference work timed just before and just after it."""
    ref = worker["reference_times"]
    return [at_reference_speed(workload, t, (before + after) / 2)
            for t, before, after in zip(worker["op_times"], ref, ref[1:])]


def measure_untraced(args, deadline: float) -> tuple[dict, dict]:
    workers = []
    for j in range(SETUPS):
        workdir = OUT / f"{args.workload}-seed{args.seed}-{j}"
        setup_s, res = run_worker(args.workload, args.seed, args.seconds, 0,
                                  workdir, deadline, setup_only=j > 0)
        workers.append({"setup_s": setup_s, **res})
    timing = workers[0]
    setups = [setup_seconds(args.workload, w) for w in workers]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_s": {"value": statistics.median(op_seconds(args.workload, timing)),
                 "unit": "s"},
        "peak_rss_mb": {"value": timing["peak_rss_mb"], "unit": "MB"},
    }
    wall = {"setup_wall_s": statistics.median(w["setup_s"] for w in workers),
            "op_wall_s": statistics.median(timing["op_times"])}
    return metrics, {"workers": workers, "wall": wall}


def measure_traced(args, deadline: float) -> tuple[dict, dict]:
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace"
    setup_s, res = run_worker(args.workload, args.seed, args.seconds, 1,
                              workdir, deadline)
    metrics = {name: {"value": value, "unit": res["units"][name]}
               for name, value in res["layers"].items()}
    return metrics, {"workers": [{"setup_s": setup_s, **res}],
                     "spans": str(workdir / "spans.json")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="isingbraid benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "isingbraid" / "__init__.py").is_file():
        print(f"error: no isingbraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        warm_pycache(args, deadline)
        if args.trace:
            metrics, detail = measure_traced(args, deadline)
        else:
            metrics, detail = measure_untraced(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workers = detail["workers"]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [m for w in workers for m in w["failures"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": workers[0]["env"], "metrics": metrics,
              "attempted": attempted, "failed": failed, **detail}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(workers[0]['env'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in detail.get("wall", {}).items():
        print(f"  {name} = {value:.6g} s (wall clock, not at the reference speed)")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} ops)")
    for message in failures:
        print(f"  FAILED {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

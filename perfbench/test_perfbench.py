"""Tests of the benchmark itself:

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, 0, "cli.main", 0.0, 10.0),
        Span(1, 0, 0, "protocol.build_protocol_circuit", 1.0, 4.0),
        Span(2, 1, 0, "trotter.trotter_step_circuit", 2.0, 3.0),
        Span(3, 0, 0, "statevector.run", 4.0, 9.0),
        Span(4, None, 1, "statevector.run", 20.0, 21.5),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 1.0, 3: 5.0, 4: 1.5}
    by_op = self_time_by_name(spans)
    assert by_op[0]["statevector.run"] == [5.0]
    assert by_op[1] == {"statevector.run": [1.5]}
    # Self times of one op add up to its root span's duration.
    assert sum(own[s.id] for s in spans if s.op == 0) == 10.0


def test_tracer_records_parents_and_ops():
    tr = Tracer()
    tr.begin_op()
    with tr.span("cli.main"):
        assert tr.call("protocol.double", lambda x: 2 * x, 4) == 8
    tr.begin_op()
    tr.call("statevector.run", lambda: None)
    inner, outer, other = tr.spans
    assert (inner.name, inner.parent, inner.op) == ("protocol.double", outer.id, 0)
    assert (outer.parent, outer.op) == (None, 0)
    assert (other.parent, other.op) == (None, 1)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_corrupted_reference_fails_every_op(tmp_path):
    refs = copy.deepcopy(workloads.REFERENCE)
    refs["oracle_eff_n6"]["exact_fidelity"] += 1e-3
    wl = workloads.WORKLOADS["oracle_eff_n6"](1, str(tmp_path), refs)
    res = worker.measure(wl, seconds=0.0)
    assert res["attempted"] == 2  # the warm-up op and one timed op
    assert res["failed"] / res["attempted"] == 1.0
    assert "exact fidelity" in res["failures"][0]


def test_pooled_noisy_mean_rejects_twice_the_error_rate(tmp_path):
    wl = workloads.WORKLOADS["noise_eff_n6"](1, str(tmp_path))
    ref = workloads.REFERENCE["noise_eff_n6"]

    def check_means(mean):
        wl.noisy_means.clear()
        return [wl.check({"index": i, "mean": mean,
                          "measured": ref["measured_fidelity"]})
                for i in range(10)]

    assert check_means(ref["noisy_mean"]) == [[]] * 10
    # The mean of many trajectories at eps_bitflip = eps_phase = 2e-4.
    errors = check_means(0.064)
    assert errors[0] == []  # one op's trajectories cannot tell
    assert "pooled noisy fidelity" in errors[-1][0]


def test_an_op_that_raises_is_a_failed_op():
    class Broken(workloads.Workload):
        name = "oracle_eff_n6"

        def op(self, i):
            if i == 1:
                raise ValueError("boom")
            return {"fidelity": workloads.REFERENCE[self.name]["exact_fidelity"]}

        def check(self, out):
            return []

    res = worker.measure(Broken(1, "."), seconds=0.0)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert res["failures"] == ["op 1: ValueError: boom"]
    assert len(res["op_times"]) == 1
    assert len(res["reference_times"]) == 2  # after the warm-up op and op 1


def test_times_are_scaled_by_the_reference_work_around_them():
    nominal = calibrate.REFERENCE_WORK["oracle_eff_n6"][1]
    timing = {"setup_s": 3.0, "op_times": [2.0, 6.0],
              "reference_times": [2 * nominal, 2 * nominal, 4 * nominal]}
    # Set-up is scaled by the reference work right after it; each op by the
    # mean of the reference work before and after it.
    assert run.setup_seconds("oracle_eff_n6", timing) == pytest.approx(1.5)
    assert run.op_seconds("oracle_eff_n6", timing) == pytest.approx([1.0, 2.0])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert list(calibrate.REFERENCE_WORK) == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s", "peak_rss_mb"]

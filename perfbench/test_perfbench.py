"""Tests of the benchmark itself, on reduced sizes of every workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ExpmProbe, Tracer, expm_flops  # noqa: E402
from memtensor.cli import main as cli_main  # noqa: E402

SMALL = {
    "cutoff_sweep": dict(c_values=(6, 8), tm_targets=(2.5, 5.0), horizon=20.0, substeps=8),
    "long_horizon": dict(n_states=2, steps=200, substeps=8, checkpoint=100),
    "continuum_kernel": dict(steps=4, substeps=8, t_values=(1.0,), n_values=(4,),
                             kernel_substeps=32, slice_t=1.0, slice_points=4, slice_substeps=4),
    "large_bath": dict(n_bath=1, steps=3, band=2, substeps=4),
}
LAYERS = {
    "cutoff_sweep": {"models.evolve_state", "tomography.reconstruct_family", "transfer.build_tensors",
                     "transfer.propagate", "transfer.error_bound", "transfer.memory_cutoff_heuristic"},
    "long_horizon": {"tomography.reconstruct_family", "transfer.build_tensors",
                     "serialization.tensors_json", "transfer.propagate", "transfer.error_bound"},
    "continuum_kernel": {"kernel.kernel_norm_curve", "kernel.convergence_study", "kernel.nz_kernel_slice"},
    "large_bath": {"tomography.reconstruct_family", "tomography.check_cptp", "transfer.build_tensors"},
}


def small(name: str, seed: int = 3):
    workload = workloads.WORKLOADS[name](seed, **SMALL[name])
    return workload, workload.run(Tracer())


def as_golden(workload, results) -> dict:
    fingerprint = workload.fingerprint(results)
    if workload.name == "large_bath":
        return {"rtol": 1e-9, "seeds": {str(workload.seed): fingerprint}}
    return fingerprint


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_every_workload(name):
    workload = workloads.WORKLOADS[name](3, **SMALL[name])
    tracer = Tracer()
    results = workload.run(tracer)
    assert {span["name"] for span in tracer.spans} == LAYERS[name]
    assert workload.check(results, None).failures == {}
    check = workload.check(results, as_golden(workload, results))
    assert check.failures == {}
    assert check.max_error > 0


def test_seeded_inputs_repeat():
    a = workloads.LongHorizon(7, **SMALL["long_horizon"])
    b = workloads.LongHorizon(7, **SMALL["long_horizon"])
    c = workloads.LongHorizon(8, **SMALL["long_horizon"])
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    assert not np.array_equal(a.states[0], c.states[0])
    assert not np.array_equal(workloads.LargeBath(1, n_bath=1).fields, workloads.LargeBath(2, n_bath=1).fields)


def test_tampered_cell_fingerprint_fails_that_cell():
    workload, results = small("cutoff_sweep")
    golden = as_golden(workload, results)
    key = workload.ops[1]
    golden["cells"][f"{key[0]},{key[1]}"]["error"] *= 1.001
    assert set(workload.check(results, golden).failures) == {key}


def test_tampered_fingerprints_fail_operations():
    workload, results = small("long_horizon")
    golden = as_golden(workload, results)
    golden["bound"] *= 0.99
    assert set(workload.check(results, golden).failures) == set(workload.ops)

    workload, results = small("continuum_kernel")
    golden = as_golden(workload, results)
    golden["slice"][2][1] *= 1.001
    assert set(workload.check(results, golden).failures) == {"slice"}

    workload, results = small("large_bath")
    golden = as_golden(workload, results)
    golden["seeds"][str(workload.seed)]["norm_checksum"] += 1e-6
    assert set(workload.check(results, golden).failures) == set(workload.ops)


def test_failed_operation_is_counted_and_the_pass_goes_on(monkeypatch):
    workload = workloads.CutoffSweep(0, **SMALL["cutoff_sweep"])
    calls = []
    real = workloads.build_tensors

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "build_tensors", flaky)
    results = workload.run(Tracer())
    failures = workload.check(results, None).failures
    assert list(failures) == [workload.ops[1]]
    assert "injected" in failures[workload.ops[1]]
    assert len(calls) == len(workload.ops)


def test_cutoff_sweep_reproduces_error_sweep_cli(tmp_path):
    params = SMALL["cutoff_sweep"]
    config = {"sweep": {"c_values": list(params["c_values"]), "tm_targets": list(params["tm_targets"]),
                        "horizon": params["horizon"]},
              "substeps": params["substeps"]}
    (tmp_path / "sweep.json").write_text(json.dumps(config))
    code = cli_main(["error-sweep", "--policy", "fixed", "--config", str(tmp_path / "sweep.json"),
                     "--out", str(tmp_path)])
    assert code == 0
    lines = [l for l in (tmp_path / "error_sweep.csv").read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))

    workload, results = small("cutoff_sweep", seed=0)
    assert [(int(r["c"]), int(r["m"])) for r in rows] == workload.ops
    for row, key in zip(rows, workload.ops):
        ours = results[key]
        for column, value in row.items():
            assert float(value) == pytest.approx(ours[column], rel=1e-12, abs=0), column


def test_expm_flop_model():
    n = 4
    assert expm_flops(n, [1e-3], False) == pytest.approx((2 * 2 + 8 / 3) * n**3)
    large = 4 * 5.371920351148152  # degree 13, two squarings
    assert expm_flops(n, [large], True) == pytest.approx((8 * 8 + 32 / 3) * n**3)
    assert expm_flops(n, [large, large], True) == pytest.approx(2 * expm_flops(n, [large], True))


def test_probe_counts_stacks_and_charges_its_recording_to_the_span():
    tracer = Tracer()
    stack = np.stack([np.eye(3) * 1e-3, np.eye(3) * 1e-3])

    def layer():
        start = time.perf_counter()
        time.sleep(0.05)  # stands in for the library call
        tracer.record_expm(stack, start, time.perf_counter())

    tracer.call("tomography.reconstruct_family", layer)
    totals = tracer.layer_totals()["tomography.reconstruct_family"]
    counters = tracer.counter_totals()
    assert counters["linalg.expm.s"] >= 0.05
    assert counters["linalg.expm.mats"] == 2
    assert counters["linalg.expm.flops_computed"] == pytest.approx(expm_flops(3, [1e-3, 1e-3], False))
    # the library time and the recording are both child time: what is left
    # is the span's own call overhead
    assert totals["s"] > counters["linalg.expm.s"]
    assert 0 <= totals["self_s"] < 0.01


def test_inactive_probe_leaves_the_library_expm_in_place():
    import scipy.linalg
    import memtensor.linalg

    original = memtensor.linalg.expm
    tracer = Tracer()
    probe = ExpmProbe(tracer)
    try:
        # memtensor is already imported here, so bind it as an import would
        memtensor.linalg.expm = probe.wrapper
        probe.bind()
        probe.activate(False)
        assert memtensor.linalg.expm is original and scipy.linalg.expm is original
        memtensor.linalg.matrix_exponential(np.eye(2))
        assert tracer.counter_totals()["linalg.expm.mats"] == 0
        probe.activate(True)
        memtensor.linalg.matrix_exponential(np.eye(2))
        assert tracer.counter_totals()["linalg.expm.mats"] == 1
    finally:
        memtensor.linalg.expm = scipy.linalg.expm = original


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(run.layer_metrics({}, {}, workloads.CheckResult(), 1.0)) - {"trace.wall_s"}
    assert layer | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m["name"]: run.unit_of(m["name"]) for m in spec["per_layer"]}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_horizon", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

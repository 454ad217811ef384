"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload traced and untraced through ``run.main`` with problem
sizes shrunk to a fraction of a second, then checks that every metric named
in ``BENCHMARK.json`` is printed with its unit and that every span closes
with a self time >= 0.  Timings at these sizes mean nothing.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_sources()

import workloads  # noqa: E402
from hostclock import ScaledClock  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "heavy_tail": {"n_paths": 128, "epsilon": 0.05, "dt": 0.05, "times": (0.5, 1.0)},
    "diffusive": {"n_paths": 128, "epsilon": 0.02, "dt": 0.05, "times": (0.5, 1.0)},
    "stable_reference": {"n_cms": 1000, "n_ref": 200, "n_paths": 128, "dt": 1e-3, "t": 1.0},
}
TINY_SCALING = {
    "heavy_tail": {"engines": ("direct", "timechange"), "n_paths": 128},
    "diffusive": {"engines": ("direct",), "n_paths": 128},
    "stable_reference": {"engines": ("excursion",), "n_paths": 128, "dt": 1e-3},
}
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.setattr(workloads, "SCALING", TINY_SCALING)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def run_main(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_file_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result = run_main(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    defs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in defs]
    for d in defs:
        m = result["metrics"][d["name"]]
        assert m["unit"] == d["unit"]
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_span_closes_with_nonnegative_self_time(tiny, workload):
    tr = Tracer("test-run")
    workloads.run_pipeline(workload, 5, tr)
    ids = {s["id"] for s in tr.spans}
    assert tr.spans and all(s["run_id"] == "test-run" for s in tr.spans)
    for span in tr.spans:
        assert span["end"] is not None and span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
    assert all(t >= 0.0 for t in tr.self_times().values())
    # every library call the pipeline makes runs inside a phase
    assert all(s["phase"] in ("setup", "sample", "validate")
               for s in tr.spans if s["name"] in workloads.SPAN_METRICS)


def test_traced_and_untraced_pipelines_give_the_same_samples(tiny):
    plain = workloads.run_pipeline("heavy_tail", 7)
    traced = workloads.run_pipeline("heavy_tail", 7, Tracer("t"))
    assert plain.hashes == traced.hashes


def test_scaled_clock_sums_its_segments_without_probe_time():
    clock = ScaledClock()
    clock.start()
    time.sleep(0.02)
    first = clock.mark()
    second = clock.mark()
    assert first > 0.0 and second >= 0.0
    assert clock.scaled == pytest.approx(first + second)
    assert 0.02 <= clock.wall < 0.02 + 3 * max(clock.probes) + 0.05
    assert len(clock.probes) == 3 and min(clock.probes) > 0.0


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heavy_tail", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_statistical_misses_gate_correctness_except_known_failures():
    def evaluate(column):
        checks = [{"column": column, "check": name, "passed": False}
                  for name in ("cf_band", "alpha_hat")]
        res = workloads.PipelineResult(checks=checks)
        return run.evaluate("heavy_tail", 0, {"plain": [res], "traced": []}, run.load_pins())

    assert not evaluate("levy.direct")["correct"]
    assert evaluate("critical.direct")["correct"]

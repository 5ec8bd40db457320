"""The benchmark's own tests: tiny inputs through the same code.

Run from the root of a checkout::

    python3 -m pytest pipebench/tests -q

Each workload runs with ``--size tiny --seconds 1`` (one round, or
two when traced) as a separate process, exactly as the full benchmark
runs, so these tests also cover the step processes, the server
lifecycle and the output checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BATCH = ("fig1-paper", "dense-stream")
COUNTS = ("memsim.accesses", "simproc.samples_kept", "extrae.save_mb",
          "folding.samples_folded")

sys.path.insert(0, str(BENCH))
from probes import layer_totals  # noqa: E402
from run import _tail  # noqa: E402
from speed import PROBE_REF_S, Speedometer  # noqa: E402


def bench(workload: str, seed: int = 0, trace: int = 0, cwd: Path = ROOT):
    """Run one tiny pass; returns (process, result line, record)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return proc, None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (cwd / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return proc, result, record


def assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced tiny runs per batch workload with the same seed."""
    return {w: (bench(w, trace=1), bench(w, trace=1)) for w in BATCH}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    proc, result, record = bench(workload)
    assert proc.returncode == 0, proc.stderr
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert record["machine"]["cpu_count"] >= 1
    assert record["machine"]["python"] and record["machine"]["numpy"]


def test_every_per_layer_metric_is_printed():
    proc, result, record = bench("service-mixed", trace=1)
    assert proc.returncode == 0, proc.stderr
    assert_metrics(result, SPEC["per_layer"])
    assert record["spans"]


@pytest.mark.parametrize("workload", BATCH)
def test_traced_counts_repeat_exactly(traced_runs, workload):
    (_, first, _), (_, second, _) = traced_runs[workload]
    assert_metrics(first, SPEC["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", BATCH)
def test_seed_changes_trace_digests(traced_runs, workload):
    (_, _, record), _ = traced_runs[workload]
    _, _, other = bench(workload, seed=1)
    assert len(record["trace_digests"]) == 1  # rounds of one seed agree
    assert set(record["trace_digests"]).isdisjoint(other["trace_digests"])


def test_fails_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, _ = bench("fig1-paper", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start_ns": 0, "end_ns": 100, "attrs": {}},
        {"id": 1, "parent": 0, "name": "b", "start_ns": 10, "end_ns": 40,
         "attrs": {"accesses": 5}},
        {"id": 2, "parent": 0, "name": "b", "start_ns": 50, "end_ns": 70,
         "attrs": {"accesses": 2}},
    ]
    totals = layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(50e-9)
    assert totals["a"]["total_s"] == pytest.approx(100e-9)
    assert totals["b"] == {"calls": 2, "total_s": pytest.approx(50e-9),
                           "self_s": pytest.approx(50e-9), "accesses": 7}


def test_tail_leaves_ten_requests_beyond():
    latencies = [float(i) for i in range(100)]
    value, percentile = _tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == 90.0


def test_speed_factor_averages_probe_rates():
    meter = Speedometer()
    # one probe a second: at the reference speed for 10 s, then at half
    meter.samples = [(float(t), PROBE_REF_S * (2 if t >= 10 else 1)) for t in range(20)]
    assert meter.factor(0, 9) == pytest.approx(1.0)
    assert meter.factor(10, 19) == pytest.approx(0.5)
    # a window with too few probes takes the eight nearest: four each side
    assert meter.factor(9.5, 9.6) == pytest.approx(0.75)

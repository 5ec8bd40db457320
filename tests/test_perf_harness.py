"""The micro-benchmark runner, driven by fake scenarios with no workload.

:mod:`benchmarks.perf.harness` times ratios as interleaved pairs, gates
floors, ceilings and identity checks, and writes one record per
scenario.  These tests register fake scenario modules, drive the
runner's clock from the fake sides and check the records and exit
status it produces.
"""

import importlib
import json
import sys
import types

import pytest

from benchmarks.perf import harness


class FakeClock:
    """A ``perf_counter`` that only moves when a fake side sleeps."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def side(self, seconds, log=None, tag=None):
        """A side that takes ``seconds[i]`` on its i-th call."""
        durations = iter(seconds)

        def run():
            self.now += next(durations)
            if log is not None:
                log.append(tag)
            return tag

        return run


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(harness, "perf_counter", fake)
    return fake


@pytest.fixture
def scenario(monkeypatch):
    """Register ``measure`` functions as scenario modules by name."""

    def register(**measures):
        scenarios = {}
        for name, measure in measures.items():
            module = types.ModuleType(f"fake_scenario_{name}")
            module.measure = measure
            monkeypatch.setitem(sys.modules, module.__name__, module)
            scenarios[name] = module.__name__
        return scenarios

    return register


def record(results, name):
    return json.loads((results / f"BENCH_{name}.json").read_text())


def test_median_of_paired_ratios_drops_the_warmup_pair(clock, scenario, tmp_path):
    log = []

    def measure(bench):
        # warm-up pair 100 s / 1 s, then timed ratios 6, 4 and 1
        last = bench.time_ratio(
            "speedup",
            clock.side([100, 6, 8, 2], log, "baseline"),
            clock.side([1, 1, 2, 2], log, "candidate"),
            pairs=3, floor=3,
        )
        assert last == ("baseline", "candidate")
        return {"workload": "fake"}

    assert harness.main(["fake"], scenario(fake=measure), tmp_path) == 0
    assert log == ["baseline", "candidate"] * 4
    ratio = record(tmp_path, "fake")["time"]["speedup"]
    assert ratio["per_pair"] == [6, 4, 1]
    assert ratio["ratio"] == 4
    assert ratio["pairs"] == 3
    assert ratio["baseline_median_s"] == 6
    assert ratio["candidate_median_s"] == 2
    assert ratio["passed"] is True


def _slow_ratio(clock):
    def measure(bench):
        bench.time_ratio("speedup", clock.side([2] * 4), clock.side([1] * 4),
                         pairs=3, floor=3)
        return {}
    return measure


def _small_memory_ratio(bench):
    # 8 MB against 4 MB of live allocation: a ratio near 2
    _, baseline = bench.probe(lambda: len(bytearray(8 << 20)))
    _, candidate = bench.probe(lambda: len(bytearray(4 << 20)))
    bench.memory_ratio("peak", baseline, candidate, floor=4)
    assert 1.5 < bench.memory["peak"]["ratio"] < 2.5
    return {}


def _failed_check(bench):
    bench.check("digests_equal", False)
    return {}


def _error_above_ceiling(bench):
    bench.bound("curve_error", 0.05, ceiling=0.02)
    return {}


@pytest.mark.parametrize("case", [
    "time_ratio_below_floor", "memory_ratio_below_floor",
    "failed_identity_check", "bound_above_ceiling",
])
def test_failed_gate_exits_1_and_still_writes_the_record(
        case, clock, scenario, tmp_path, capsys):
    measure = {
        "time_ratio_below_floor": _slow_ratio(clock),
        "memory_ratio_below_floor": _small_memory_ratio,
        "failed_identity_check": _failed_check,
        "bound_above_ceiling": _error_above_ceiling,
    }[case]
    assert harness.main(["fake"], scenario(fake=measure), tmp_path) == 1
    written = record(tmp_path, "fake")
    assert len(written["failures"]) == 1
    assert "FAIL fake" in capsys.readouterr().err


def test_gates_that_hold_exit_0(clock, scenario, tmp_path):
    def measure(bench):
        bench.time_ratio("speedup", clock.side([4] * 4), clock.side([1] * 4),
                         pairs=3, floor=3)
        _, baseline = bench.probe(lambda: len(bytearray(8 << 20)))
        _, candidate = bench.probe(lambda: len(bytearray(1 << 20)))
        bench.memory_ratio("peak", baseline, candidate, floor=4)
        bench.bound("curve_error", 0.01, ceiling=0.02)
        bench.check("digests_equal", True)
        return {}

    assert harness.main(["fake"], scenario(fake=measure), tmp_path) == 0
    written = record(tmp_path, "fake")
    assert written["failures"] == []
    assert written["checks"] == {"digests_equal": True}


def test_every_record_carries_the_machine_shape(monkeypatch, scenario, tmp_path):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    scenarios = scenario(one=lambda bench: {}, two=lambda bench: {"n": 1})
    assert harness.main(["one", "two"], scenarios, tmp_path) == 0
    for name in ("one", "two"):
        written = record(tmp_path, name)
        assert written["scenario"] == name
        assert written["cpu_count"] == 3
        assert written["python"] and written["numpy"]


@pytest.mark.parametrize("cpus, status", [(1, 0), (2, 1)])
def test_ratio_needing_two_cores_is_unmeasured_on_one(
        cpus, status, monkeypatch, clock, scenario, tmp_path):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    calls = []

    def measure(bench):
        results = bench.time_ratio(
            "pooled_vs_serial", clock.side([1] * 4, calls, "serial"),
            clock.side([1] * 4, calls, "pooled"), pairs=3, floor=1.5,
            min_cpus=2,
        )
        assert results == ("serial", "pooled")
        return {}

    assert harness.main(["fake"], scenario(fake=measure), tmp_path) == status
    ratio = record(tmp_path, "fake")["time"]["pooled_vs_serial"]
    if cpus == 1:
        assert ratio["ratio"] is None and ratio["passed"] is None
        assert calls == ["serial", "pooled"]
    else:
        assert ratio["ratio"] == 1 and ratio["passed"] is False


def test_ranks_declares_its_speedup_gate_for_two_cores():
    """The real ``ranks`` scenario arms its pool gate at 2 cores, 1.5x."""
    from benchmarks.perf import bench_ranks

    class Declared(Exception):
        pass

    class Recorder:
        cpu_count = 1

        def time_ratio(self, name, baseline, candidate, **gate):
            raise Declared(name, gate)

    with pytest.raises(Declared) as declared:
        bench_ranks.measure(Recorder())
    name, gate = declared.value.args
    assert name == "pooled_vs_serial"
    assert gate["min_cpus"] == 2
    assert gate["floor"] == 1.5


@pytest.mark.parametrize("argv", [["nope"], ["fake", "nope"], []])
def test_unknown_or_missing_scenario_is_rejected(argv, scenario, tmp_path, capsys):
    ran = []
    scenarios = scenario(fake=lambda bench: ran.append(1) or {})
    assert harness.main(argv, scenarios, tmp_path) == 2
    assert ran == []
    assert not list(tmp_path.iterdir())
    assert "usage: python -m benchmarks.perf" in capsys.readouterr().err


def test_every_registered_scenario_defines_measure():
    assert set(harness.SCENARIOS) == {
        "engine", "fold", "trace", "ranks", "stream", "reps", "service",
    }
    for module in harness.SCENARIOS.values():
        assert callable(importlib.import_module(module).measure)

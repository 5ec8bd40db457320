"""One runner for the micro-benchmark scenarios.

Run from the repository root, naming one or more scenarios::

    PYTHONPATH=src python -m benchmarks.perf fold trace

Each scenario is a ``bench_<name>.py`` module of this package with one
function, ``measure(bench)``: it builds its workload, reports what it
measures through the :class:`Bench` it is given and returns a dict of
plain metrics (workload description, sizes) for the record.  Its
floors are module constants.  The runner owns what every scenario
shares:

* **time ratios** — :meth:`Bench.time_ratio` runs the two sides of a
  ratio as interleaved pairs, baseline then candidate back to back so
  both see the same host speed, after one discarded warm-up pair, and
  gates the median of the per-pair ratios;
* **memory ratios** — :meth:`Bench.probe` runs a side under
  :func:`~benchmarks.perf.memprof.memory_probe` and
  :meth:`Bench.memory_ratio` gates the ratio of two tracemalloc peaks;
* **bounds and checks** — :meth:`Bench.bound` gates a measured value
  against a floor or a ceiling; :meth:`Bench.check` records an
  identity check that fails the run whenever it is false;
* **the record** — ``benchmarks/results/BENCH_<name>.json`` with the
  machine shape (``cpu_count``, Python and NumPy versions) and every
  ratio, bound and check.

The exit status is 0 when every gate of every named scenario holds, 1
when one fails (each record is written first) and 2 for an unknown or
missing scenario name.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from benchmarks.perf.memprof import MemoryProbe, memory_probe

__all__ = ["Bench", "SCENARIOS", "main"]

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: scenario name -> the module whose ``measure(bench)`` runs it
SCENARIOS = {
    name: f"benchmarks.perf.bench_{name}"
    for name in ("engine", "fold", "trace", "ranks", "stream", "reps", "service")
}


def _timed(side):
    """``side()``'s wall seconds and result, from a collected heap."""
    gc.collect()
    t0 = perf_counter()
    result = side()
    return perf_counter() - t0, result


def _gate(value: float, floor: float | None, ceiling: float | None) -> bool | None:
    """Whether *value* holds its floor and ceiling (None: no gate)."""
    if floor is None and ceiling is None:
        return None
    return (floor is None or value >= floor) and (
        ceiling is None or value <= ceiling
    )


class Bench:
    """What one scenario run measured, and which of its gates failed."""

    def __init__(self, cpu_count: int) -> None:
        self.cpu_count = cpu_count
        self.time: dict[str, dict] = {}
        self.memory: dict[str, dict] = {}
        self.bounds: dict[str, dict] = {}
        self.checks: dict[str, bool] = {}
        self.failures: list[str] = []

    def _record(self, section: dict, name: str, measured, *, floor=None,
                ceiling=None, **fields) -> None:
        passed = None if measured is None else _gate(measured, floor, ceiling)
        section[name] = {**fields, "floor": floor, "ceiling": ceiling,
                         "passed": passed}
        if passed is False:
            limit = f">= {floor}" if floor is not None and measured < floor \
                else f"<= {ceiling}"
            self.failures.append(f"{name} = {measured:.4g}, required {limit}")

    def time_ratio(self, name, baseline, candidate, *, pairs: int,
                   floor: float | None = None, min_cpus: int = 1):
        """Time ``baseline()`` against ``candidate()``; gate the median ratio.

        One warm-up pair runs first and is discarded.  Each of the
        *pairs* timed pairs then runs the baseline and the candidate
        back to back; its ratio is baseline seconds over candidate
        seconds, so a speedup reads above 1.  On a machine with fewer
        than *min_cpus* cores the ratio is recorded as ``None``
        (unmeasured) and its gate is skipped.  Returns the two sides'
        results from the last pair run.
        """
        results = baseline(), candidate()
        if self.cpu_count < min_cpus:
            self._record(self.time, name, None, floor=floor, ratio=None,
                         unmeasured=f"needs {min_cpus} cores, "
                                    f"this machine has {self.cpu_count}")
            return results
        seconds = []
        for _ in range(pairs):
            results = None  # free the previous pair's results first
            base_s, base = _timed(baseline)
            cand_s, cand = _timed(candidate)
            results = base, cand
            del base, cand
            seconds.append((base_s, cand_s))
        per_pair = [b / c for b, c in seconds]
        ratio = statistics.median(per_pair)
        self._record(
            self.time, name, ratio, floor=floor,
            baseline_median_s=round(statistics.median(b for b, _ in seconds), 6),
            candidate_median_s=round(statistics.median(c for _, c in seconds), 6),
            pairs=pairs,
            per_pair=[round(r, 2) for r in per_pair],
            ratio=round(ratio, 2),
        )
        return results

    def probe(self, side):
        """Run ``side()`` under the memory probe; return its result and probe."""
        gc.collect()
        with memory_probe() as probe:
            result = side()
        gc.collect()
        return result, probe

    def memory_ratio(self, name, baseline: MemoryProbe,
                     candidate: MemoryProbe, *, floor: float | None = None):
        """Gate the baseline's tracemalloc peak over the candidate's."""
        ratio = baseline.traced_peak_bytes / max(candidate.traced_peak_bytes, 1)
        rss = baseline.rss_peak_delta_bytes / max(candidate.rss_peak_delta_bytes, 1)
        self._record(
            self.memory, name, ratio, floor=floor,
            baseline=baseline.as_dict(), candidate=candidate.as_dict(),
            ratio=round(ratio, 1), rss_ratio=round(rss, 1),
        )

    def bound(self, name, value: float, *, floor: float | None = None,
              ceiling: float | None = None) -> None:
        """Gate a measured value against a floor and/or a ceiling."""
        self._record(self.bounds, name, value, floor=floor, ceiling=ceiling,
                     value=value)

    def check(self, name, ok: bool) -> None:
        """Record an identity check; a false one fails the run."""
        self.checks[name] = bool(ok)
        if not ok:
            self.failures.append(f"{name}: check failed")


def run(name: str, module: str, results: Path) -> bool:
    """Run one scenario, write its record, and say whether it passed."""
    bench = Bench(os.cpu_count() or 1)
    metrics = importlib.import_module(module).measure(bench)
    record = {
        "scenario": name,
        "cpu_count": bench.cpu_count,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **metrics,
        "time": bench.time,
        "memory": bench.memory,
        "bounds": bench.bounds,
        "checks": bench.checks,
        "failures": bench.failures,
    }
    path = results / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {path}")
    for failure in bench.failures:
        print(f"FAIL {name}: {failure}", file=sys.stderr)
    return not bench.failures


def main(argv: list[str] | None = None, scenarios: dict = SCENARIOS,
         results: Path = RESULTS) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [n for n in names if n not in scenarios]
    if not names or unknown:
        print("usage: python -m benchmarks.perf SCENARIO [SCENARIO ...]\n"
              f"scenarios: {' '.join(scenarios)}", file=sys.stderr)
        if unknown:
            print(f"unknown scenario: {' '.join(unknown)}", file=sys.stderr)
        return 2
    results.mkdir(parents=True, exist_ok=True)
    passed = [run(name, scenarios[name], results) for name in names]
    return 0 if all(passed) else 1

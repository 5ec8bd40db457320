"""Folding fast-path benchmark harness.

Measures, on a reference STREAM trace (~60k memory samples), the three
tiers of the folding fast path plus the export rewrite:

* **cold fold** — ``fold_trace`` from scratch (plan build + batched
  fit), the baseline everything else is measured against;
* **plan reuse** — a 10-point bandwidth sweep through one
  :class:`~repro.folding.plan.FoldPlan` vs 10 independent cold folds;
* **report cache** — memo-tier and disk-tier hit latency of
  :class:`~repro.folding.cache.FoldCache` vs the cold fold;
* **gnuplot export** — ``export_gnuplot`` (the block writer of
  :mod:`repro.folding.export`) vs :func:`export_rowwise`, the per-row
  f-string reference, whose files it must equal byte for byte.

Results go to ``benchmarks/results/BENCH_fold.json``.  Run it directly
(it is a script, not a pytest module — see README, "Benchmarks"):

    PYTHONPATH=src python benchmarks/perf/bench_fold.py

``--min-warm-speedup X`` / ``--min-cache-speedup X`` /
``--min-export-speedup X`` make the exit status enforce plan-reuse,
cache-hit and export floors, which CI uses as cheap perf-regression
tripwires.  A byte difference between the export and its reference
always fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache
from repro.folding.lines import FoldedLines
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.memsim.datasource import DataSource
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

RESULTS = Path(__file__).resolve().parent.parent / "results"

STREAM_N = 2_000_000
ITERATIONS = 10
LOAD_PERIOD = 500
#: the kernel-ablation bandwidth range, 10 points
BANDWIDTHS = (0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1)


def make_trace():
    return run_workload(
        StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
        SessionConfig(
            seed=7,
            tracer=TracerConfig(
                load_period=LOAD_PERIOD, store_period=LOAD_PERIOD
            ),
        ),
    )


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cold(trace, repeats: int) -> float:
    return best_of(repeats, lambda: fold_trace(trace))


def bench_plan_reuse(trace, repeats: int, cold_fold: float) -> dict:
    t0 = time.perf_counter()
    plan = FoldPlan.from_trace(trace)
    plan_build = time.perf_counter() - t0

    def warm_sweep():
        for bw in BANDWIDTHS:
            plan.fold(bandwidth=bw)

    def cold_sweep():
        for bw in BANDWIDTHS:
            fold_trace(trace, bandwidth=bw)

    warm = best_of(repeats, warm_sweep)
    cold = best_of(max(1, repeats - 1), cold_sweep)
    return {
        "sweep_points": len(BANDWIDTHS),
        "plan_build_seconds": round(plan_build, 4),
        "cold_sweep_seconds": round(cold, 4),
        "warm_sweep_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 2),
        "warm_fold_seconds": round(warm / len(BANDWIDTHS), 5),
        "warm_vs_cold_fold_speedup": round(
            cold_fold / (warm / len(BANDWIDTHS)), 2
        ),
    }


def bench_cache(trace, repeats: int, cold_fold: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cache = FoldCache(directory=tmp)
        t0 = time.perf_counter()
        fold_trace(trace, cache=cache)
        store = time.perf_counter() - t0
        memo = best_of(repeats, lambda: fold_trace(trace, cache=cache))
        # A fresh FoldCache per call = empty memo = true disk hits.
        disk = best_of(
            repeats,
            lambda: fold_trace(trace, cache=FoldCache(directory=tmp)),
        )
        entry_bytes = cache.stats().total_bytes
    return {
        "cold_store_seconds": round(store, 4),
        "memo_hit_seconds": round(memo, 6),
        "disk_hit_seconds": round(disk, 5),
        "memo_hit_speedup": round(cold_fold / memo, 1),
        "disk_hit_speedup": round(cold_fold / disk, 1),
        "entry_bytes": entry_bytes,
    }


def export_rowwise(report, directory: str | Path) -> list[Path]:
    """Per-row reference of every file ``report.export_gnuplot`` writes.

    One f-string and one ``write`` per row, as the exporter did before
    the block writer of :mod:`repro.folding.export`; the files must be
    byte-identical.  Covers every fold product: the resident report, a
    streamed report and the counters-only folds.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def create(name):
        written.append(directory / name)
        return written[-1].open("w", encoding="utf-8", newline="\n")

    c = report.counters
    mips, ipc = c.mips(), c.ipc()
    rates = {
        name: c.per_instruction(name)
        for name in ("branches", "l1d_misses", "l2_misses", "l3_misses")
    }
    with create("counters.dat") as f:
        f.write("# sigma mips ipc " + " ".join(rates) + "\n")
        for i, s in enumerate(c.sigma):
            cols = " ".join(f"{rates[name][i]:.6f}" for name in rates)
            f.write(f"{s:.6f} {mips[i]:.1f} {ipc[i]:.4f} {cols}\n")

    li = getattr(report, "lines", None)
    if isinstance(li, FoldedLines):
        with create("codeline.dat") as f:
            f.write("# sigma line_id function file line\n")
            for i in range(li.n):
                fn, file, line = li.line_of(i)
                f.write(f"{li.sigma[i]:.6f} {int(li.line_id[i])} {fn} {file} {line}\n")
    elif li is not None:
        with create("codeline_density.dat") as f:
            f.write("# line_id function file line "
                    + " ".join(f"s{j}" for j in range(li.sigma_bins)) + "\n")
            for i, (fn, file, line) in enumerate(li.line_table):
                counts = " ".join(str(int(n)) for n in li.line_counts[i])
                f.write(f"{i} {fn} {file} {line} {counts}\n")

    a = getattr(report, "addresses", None)
    if a is None:
        return written
    records = report.registry.records
    # The file prints the int64 value of an address.
    address = np.asarray(a.address).astype(np.int64)
    with create("addresses.dat") as f:
        f.write("# sigma address op source latency object\n")
        for i in range(a.n):
            index = int(a.object_index[i])
            obj = records[index].name if index >= 0 else "-"
            f.write(
                f"{a.sigma[i]:.6f} {int(address[i]):#x} {int(a.op[i])} "
                f"{DataSource(int(a.source[i])).pretty} {a.latency[i]:.1f} {obj}\n"
            )
    sketch = getattr(a, "sketch", None)
    if sketch is not None:
        edges = sketch.band_edges()
        with create("address_density.dat") as f:
            f.write("# band_lo band_hi "
                    + " ".join(f"s{j}" for j in range(sketch.sigma_bins)) + "\n")
            for b in range(sketch.bands):
                counts = " ".join(str(int(n)) for n in sketch.counts[b])
                f.write(f"{int(edges[b]):#x} {int(edges[b + 1]):#x} {counts}\n")
    with create("objects.dat") as f:
        f.write("# name kind start end bytes_user\n")
        for rec in records:
            f.write(f"{rec.name} {rec.kind} {rec.start:#x} {rec.end:#x} "
                    f"{rec.bytes_user}\n")
        for band in a.bands:
            f.write(f"{band.label} band {band.lo:#x} {band.hi:#x} 0\n")
    return written


def same_files(written: list[Path], reference: list[Path]) -> bool:
    """Whether two exports wrote the same file names with equal bytes."""
    ours = {p.name: p for p in written}
    theirs = {p.name: p for p in reference}
    return ours.keys() == theirs.keys() and all(
        ours[name].read_bytes() == theirs[name].read_bytes() for name in ours
    )


def bench_export(report, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        block_dir, row_dir = Path(tmp) / "block", Path(tmp) / "row"
        block = best_of(repeats, lambda: report.export_gnuplot(block_dir))
        rowwise = best_of(repeats, lambda: export_rowwise(report, row_dir))
        identical = same_files(
            report.export_gnuplot(block_dir), export_rowwise(report, row_dir)
        )
    return {
        "rows": report.addresses.n + report.lines.n + report.counters.sigma.size,
        "rowwise_seconds": round(rowwise, 4),
        "export_seconds": round(block, 4),
        "speedup": round(rowwise / block, 2),
        "output_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=3,
                   help="take the best of this many runs per section")
    p.add_argument("--min-warm-speedup", type=float, default=0.0,
                   help="fail unless the plan-reuse bandwidth sweep beats "
                        "cold folds by this factor")
    p.add_argument("--min-cache-speedup", type=float, default=0.0,
                   help="fail unless a cache hit beats a cold fold by this "
                        "factor")
    p.add_argument("--min-export-speedup", type=float, default=0.0,
                   help="fail unless export_gnuplot beats the per-row "
                        "reference by this factor")
    p.add_argument("-o", "--output", default=str(RESULTS / "BENCH_fold.json"))
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    trace = make_trace()
    trace_seconds = time.perf_counter() - t0
    cold = bench_cold(trace, args.repeats)
    report = fold_trace(trace)

    out_report = {
        "cpu_count": os.cpu_count(),
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {LOAD_PERIOD} -> "
                    f"{trace.n_samples} memory samples",
        "trace_generation_seconds": round(trace_seconds, 3),
        "cold_fold_seconds": round(cold, 4),
        "plan_reuse": bench_plan_reuse(trace, args.repeats, cold),
        "cache": bench_cache(trace, args.repeats, cold),
        "export_gnuplot": bench_export(report, args.repeats),
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(out_report, indent=2) + "\n")
    print(json.dumps(out_report, indent=2))
    print(f"wrote {out}")

    failed = False
    warm = out_report["plan_reuse"]["warm_speedup"]
    if args.min_warm_speedup and warm < args.min_warm_speedup:
        print(f"FAIL: plan-reuse sweep speedup {warm}x "
              f"< required {args.min_warm_speedup}x", file=sys.stderr)
        failed = True
    hit = out_report["cache"]["memo_hit_speedup"]
    if args.min_cache_speedup and hit < args.min_cache_speedup:
        print(f"FAIL: cache-hit speedup {hit}x "
              f"< required {args.min_cache_speedup}x", file=sys.stderr)
        failed = True
    export = out_report["export_gnuplot"]["speedup"]
    if args.min_export_speedup and export < args.min_export_speedup:
        print(f"FAIL: export speedup {export}x "
              f"< required {args.min_export_speedup}x", file=sys.stderr)
        failed = True
    if not out_report["export_gnuplot"]["output_identical"]:
        print("FAIL: export_gnuplot differs from the per-row reference",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``fold`` scenario: the folding fast path.

On a reference STREAM trace (~60k memory samples), each tier of the
folding fast path against the cold ``fold_trace`` it replaces:

* **plan reuse** — a 10-point bandwidth sweep through one
  :class:`~repro.folding.plan.FoldPlan` vs 10 cold folds, gated at
  ``MIN_WARM_SPEEDUP``;
* **report cache** — a :class:`~repro.folding.cache.FoldCache` memo hit
  vs a cold fold, gated at ``MIN_CACHE_SPEEDUP``; a disk hit (a fresh
  cache, so an empty memo) is recorded;
* **refit job** — the service's fold job
  (:func:`~repro.service.work.fold_payload_job`, in a one-process
  pool as the server runs it) at a second fit point of the trace it
  just folded, which refits the plan the worker kept, vs the job that
  folds a trace it has not planned (a copy of the same trace, so the
  two alternate); both miss the fold cache and store their entry.
  Gated at ``MIN_REFIT_SPEEDUP``;
* **gnuplot export** — ``export_gnuplot`` (the block writer of
  :mod:`repro.folding.export`) vs :func:`export_rowwise`, the per-row
  f-string reference, gated at ``MIN_EXPORT_SPEEDUP``; the two must
  write the same files byte for byte (always checked).
"""

from __future__ import annotations

import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from itertools import count
from pathlib import Path

import numpy as np

from benchmarks.perf.bench_service import add_copies
from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache
from repro.folding.lines import FoldedLines
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.spec import FoldSpec
from repro.memsim.datasource import DataSource
from repro.pipeline import SessionConfig, run_workload
from repro.repo import TraceRepo
from repro.service.payloads import fold_body
from repro.service.work import fold_payload_job
from repro.workloads.stream import StreamConfig, StreamWorkload

STREAM_N = 2_000_000
ITERATIONS = 10
LOAD_PERIOD = 500
#: the kernel-ablation bandwidth range, 10 points
BANDWIDTHS = (0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1)
PAIRS = 16
MIN_WARM_SPEEDUP = 5
MIN_CACHE_SPEEDUP = 20
MIN_EXPORT_SPEEDUP = 4
MIN_REFIT_SPEEDUP = 1.5


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


def export_rowwise(report, directory: str | Path, bands=()) -> list[Path]:
    """Per-row reference of every file ``report.export_gnuplot`` writes.

    One f-string and one ``write`` per row, as the exporter did before
    the block writer of :mod:`repro.folding.export`; the files must be
    byte-identical.  Covers every fold product: the resident report, a
    streamed report and the counters-only folds.  *bands* are the
    labelled address ranges a figure adds to ``objects.dat`` (a fold
    product carries none).
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
        for band in bands:
            f.write(f"{band.label} band {band.lo:#x} {band.hi:#x} 0\n")
    return written


def same_files(written: list[Path], reference: list[Path]) -> bool:
    """Whether two exports wrote the same file names with equal bytes."""
    ours = {p.name: p for p in written}
    theirs = {p.name: p for p in reference}
    return ours.keys() == theirs.keys() and all(
        ours[name].read_bytes() == theirs[name].read_bytes() for name in ours
    )


def measure_refit(bench, trace) -> None:
    """Time the fold job at a second fit point against a cold one."""
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp, \
            ProcessPoolExecutor(max_workers=1, mp_context=spawn) as worker:
        repo = TraceRepo(Path(tmp) / "repo")
        digests = [repo.put(trace).digest]
        digests += add_copies(repo, digests[0], 1)
        bandwidths = (0.011 + 0.0001 * i for i in count())
        turns = count()
        current = {}

        def job():
            current["spec"] = FoldSpec(bandwidth=next(bandwidths))
            digest = current["digest"]
            return worker.submit(
                fold_payload_job, str(repo.path(digest)), digest, "counters",
                current["spec"], 0, str(Path(tmp) / "cache"),
            ).result()

        def cold():
            # the container the worker did not fold last: no kept plan
            current["digest"] = digests[next(turns) % 2]
            return job()

        (_, cold_folded), (body, refit_folded) = bench.time_ratio(
            "refit_job", cold, job, pairs=PAIRS, floor=MIN_REFIT_SPEEDUP,
        )
        bench.check("refit_jobs_fold", cold_folded and refit_folded)
        bench.check("refit_body_equals_cold_fold", body == fold_body(
            fold_trace(trace, current["spec"]), "counters"))


def measure(bench) -> dict:
    trace = make_trace()
    plan = FoldPlan.from_trace(trace)

    def cold_sweep():
        for bw in BANDWIDTHS:
            fold_trace(trace, bandwidth=bw)

    def warm_sweep():
        for bw in BANDWIDTHS:
            plan.fold(bandwidth=bw)

    def cold_fold():
        fold_trace(trace)

    bench.time_ratio("plan_reuse", cold_sweep, warm_sweep, pairs=PAIRS,
                     floor=MIN_WARM_SPEEDUP)
    with tempfile.TemporaryDirectory() as tmp:
        cache = FoldCache(directory=tmp)
        fold_trace(trace, cache=cache)
        bench.time_ratio("memo_hit", cold_fold,
                         lambda: fold_trace(trace, cache=cache),
                         pairs=PAIRS, floor=MIN_CACHE_SPEEDUP)
        bench.time_ratio(
            "disk_hit", cold_fold,
            lambda: fold_trace(trace, cache=FoldCache(directory=tmp)),
            pairs=PAIRS,
        )
        entry_bytes = cache.stats().total_bytes
    measure_refit(bench, trace)

    report = fold_trace(trace)
    with tempfile.TemporaryDirectory() as tmp:
        row_dir, block_dir = Path(tmp) / "row", Path(tmp) / "block"
        rowwise, block = bench.time_ratio(
            "export", lambda: export_rowwise(report, row_dir),
            lambda: report.export_gnuplot(block_dir),
            pairs=PAIRS, floor=MIN_EXPORT_SPEEDUP,
        )
        bench.check("export_identical", same_files(block, rowwise))
    return {
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {LOAD_PERIOD} -> "
                    f"{trace.n_samples} memory samples",
        "sweep_points": len(BANDWIDTHS),
        "cache_entry_bytes": entry_bytes,
        "export_rows": report.addresses.n + report.lines.n
        + report.counters.sigma.size,
    }

"""``stream`` scenario: bounded-memory folds of a ~12M-sample trace.

Generates a multi-million-sample STREAM trace, saves it as a v2
``ZIP_STORED`` container, and folds it from the file three times, each
under the memory probe:

* **resident** — ``Trace.load`` + :func:`repro.folding.report.fold_trace`:
  the whole sample table plus the per-sample folded views, address
  scatter and line track are materialized in the parent; it yields the
  references the streamed products are checked against;
* **streamed counters** — :func:`repro.folding.stream.stream_fold_trace`
  on the path: two passes of O(chunk) column slices through the
  chunkwise design accumulator;
* **streamed report** — the same with all three directions: bounded
  per-direction state (exact accounting, reservoir + density sketch,
  line/region count matrices).

Each streamed peak is gated at ``MIN_MEM_RATIO`` below the resident
peak (tracemalloc high-water marks; the streamed reader reads fresh
arrays rather than mapping, so its chunks are visible to tracemalloc).
The report's cost is timed against the counters-only fold's
(``report_vs_counters``: counters-only seconds over report seconds,
gated at ``MIN_REPORT_VS_COUNTERS``), outside the memory probe,
because tracemalloc slows the report's allocation-heavy side more
than the counters-only fold.

The ratios only count if the streamed products are exact, so every
exact product is always checked against the resident fold: counter
curves of both streamed folds, address accounting, line matrices and
the density sketch.  The reservoir's band-density error, the one
approximate product, is measured and gated at ``MAX_BAND_ERROR``.

The resident fold peaks at about 5.3 GB of RSS: run this scenario alone.
"""

from __future__ import annotations

import gc
import tempfile
from pathlib import Path

import numpy as np

from repro.extrae.storage import DEFAULT_CHUNK_ROWS
from repro.extrae.trace import Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.folding.stream_views import (
    AddressAccounting,
    lines_from_folded,
    sketch_from_scatter,
)
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

DIRECTIONS = ("counters", "address", "lines")

# ~12M memory samples: the acceptance scale (>= 10M) where the resident
# fold's working set is GBs while the streamed folds stay at O(chunk).
STREAM_N = 5_000_000
ITERATIONS = 16
PERIOD = 10
MIN_MEM_RATIO = 4
MAX_BAND_ERROR = 0.02
#: timed pairs of the seconds-long counters-only and report folds
PAIRS = 3
#: the report may take at most about 2.2x the counters-only fold: its
#: address and line directions cost their column reads and exact sums
MIN_REPORT_VS_COUNTERS = 0.45


def make_trace_file(tmp: Path) -> tuple[Path, int]:
    trace = run_workload(
        StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
        SessionConfig(
            seed=11,
            tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD),
        ),
    )
    path = tmp / "stream.bsctrace"
    trace.save(path, version=2, compression="none")
    n = trace.n_samples
    del trace
    gc.collect()
    return path, n


def resident_references(path: Path) -> dict:
    """The resident three-direction fold, reduced to compact references.

    Only digests and the per-band density vector leave this function,
    so the resident views are freed before the streamed sides run.
    """
    report = fold_trace(Trace.load(path))
    a = report.addresses
    lo, hi = int(a.address.min()), int(a.address.max())
    sketch = sketch_from_scatter(a, lo, hi)
    return {
        "counters_digest": fold_digest(report),
        "accounting_digest": AddressAccounting.from_addresses(a).digest(),
        "lines_digest": lines_from_folded(report.lines).digest(),
        "sketch_digest": sketch.digest(),
        "band_density": sketch.band_density(),
        "matched_fraction": a.matched_fraction(),
        "n_folded": report.samples.n,
    }


def reservoir_band_error(addresses, band_density) -> float:
    """Max per-band density gap between the reservoir and the full scatter."""
    sketch = addresses.sketch
    band = ((addresses.address - np.uint64(sketch.lo))
            * np.uint64(sketch.bands)) // np.uint64(sketch.hi - sketch.lo + 1)
    band = np.minimum(band.astype(np.int64), sketch.bands - 1)
    density = np.bincount(band, minlength=sketch.bands) / max(addresses.n, 1)
    return float(np.abs(density - band_density).max())


def measure(bench) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path, n_samples = make_trace_file(Path(tmp))
        refs, resident = bench.probe(lambda: resident_references(path))
        counters, counters_peak = bench.probe(lambda: stream_fold_trace(path))
        report, report_peak = bench.probe(
            lambda: stream_fold_trace(path, directions=DIRECTIONS)
        )
        bench.time_ratio(
            "report_vs_counters",
            lambda: stream_fold_trace(path),
            lambda: stream_fold_trace(path, directions=DIRECTIONS),
            pairs=PAIRS, floor=MIN_REPORT_VS_COUNTERS,
        )
        file_bytes = path.stat().st_size

    bench.memory_ratio("streamed_counters", resident, counters_peak,
                       floor=MIN_MEM_RATIO)
    bench.memory_ratio("streamed_report", resident, report_peak,
                       floor=MIN_MEM_RATIO)
    a = report.addresses
    bench.check("counters_digest_equal",
                counters.digest() == refs["counters_digest"])
    bench.check("report_counters_digest_equal",
                fold_digest(report.performance) == refs["counters_digest"])
    bench.check("accounting_digest_equal",
                a.accounting.digest() == refs["accounting_digest"])
    bench.check("lines_digest_equal",
                report.lines.digest() == refs["lines_digest"])
    bench.check("sketch_digest_equal",
                a.sketch.digest() == refs["sketch_digest"])
    bench.bound("reservoir_band_error",
                reservoir_band_error(a, refs["band_density"]),
                ceiling=MAX_BAND_ERROR)
    return {
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {PERIOD} -> {n_samples} memory samples",
        "n_samples": n_samples,
        "file_bytes": file_bytes,
        "chunk_rows": DEFAULT_CHUNK_ROWS,
        "n_folded": {
            "resident": refs["n_folded"],
            "streamed_counters": counters.n_folded,
            "streamed_report": report.n_folded,
        },
        "reservoir_points": a.n,
        "reservoir_capacity": a.capacity,
        "sketch_shape": [a.sketch.bands, a.sketch.sigma_bins],
        "line_rows": len(report.lines.line_table),
        "matched_fraction_error": abs(
            a.matched_fraction() - refs["matched_fraction"]
        ),
    }

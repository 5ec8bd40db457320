#!/usr/bin/env python
"""Load-latency threshold sampling on a latency-bound workload.

PEBS load-latency sampling supports a cost threshold (``ldlat``): only
loads at least that expensive are recorded.  On a GUPS-style random-
access workload this focuses the samples on the DRAM misses that hurt —
the usage HPCToolkit/VTune-style tools emphasize — while the folded
view still shows *where* in the table the expensive accesses land.
"""

import numpy as np

from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.memsim.datasource import DataSource
from repro.pipeline import Session, SessionConfig
from repro.util.tables import format_table
from repro.workloads.randomaccess import RandomAccessConfig, RandomAccessWorkload


def run(latency_threshold: float):
    config = SessionConfig(
        seed=11,
        engine="analytic",
        tracer=TracerConfig(
            load_period=200, store_period=0x7FFFFFFF,  # loads only, dense
            latency_threshold_cycles=latency_threshold,
            sample_stores=False,
        ),
    )
    session = Session(config)
    trace = session.run(
        RandomAccessWorkload(
            RandomAccessConfig(table_bytes=1 << 27, updates_per_iteration=1 << 17,
                               iterations=6)
        )
    )
    return trace


def main() -> None:
    rows = []
    for threshold in (0.0, 50.0, 150.0):
        trace = run(threshold)
        table = trace.sample_table()
        sources, counts = np.unique(table.source, return_counts=True)
        mix = {DataSource(int(s)).pretty: int(c) for s, c in zip(sources, counts)}
        rows.append(
            (int(threshold), table.n, mix.get("DRAM", 0),
             mix.get("L1D", 0) + mix.get("LFB", 0),
             float(table.latency.mean()))
        )
    print(format_table(
        ["ldlat threshold (cyc)", "samples", "DRAM hits", "L1/LFB hits",
         "mean latency (cyc)"],
        rows,
        title="Latency-threshold sweep on GUPS (loads only)",
    ))

    # With the threshold at 150 cycles, virtually everything recorded is
    # a DRAM miss: fold the filtered samples to see their distribution.
    trace = run(150.0)
    report = fold_trace(trace, prune_tolerance=None)
    addresses = report.addresses.address.astype(np.float64)
    lo, hi = addresses.min(), addresses.max() + 1
    octant = np.floor((addresses - lo) / (hi - lo) * 8).astype(np.int64)
    counts = np.bincount(octant, minlength=8)
    print("\nexpensive loads per table octant (folded run):")
    for i, count in enumerate(counts):
        print(f"  octant {i}: {'#' * int(60 * count / counts.max())} {count}")
    print("\nuniform occupancy = the random pattern, as expected; on a"
          "\nreal application the same view pinpoints the hot structure.")


if __name__ == "__main__":
    main()

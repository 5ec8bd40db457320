"""``ranks`` scenario: the scale-out rank pipeline.

Runs an 8-rank STREAM stack through :class:`repro.parallel.RankSet`,
serially in process and through the process pool with worker-side
spill, and measures what the spill pipeline buys over the legacy
return-everything-through-the-pipe design:

* **wall clock** — the pooled scheduler vs the serial path, gated at
  ``MIN_PARALLEL_SPEEDUP`` on machines with at least ``MIN_CPUS`` cores
  (recorded as unmeasured on one core).  The same ratio is recorded,
  ungated, for X2's 24-rank node run (``benchmarks/test_rankset.py``,
  about 0.14 s of work per rank against 0.08 s here), so a stack the
  repository actually runs stays beside the gated one.  Every rank's
  content digest must match the serial run bit for bit, and the pool
  must not fall back to serial execution (both always checked, for
  both stacks);
* **parent-resident sample memory** — bytes of sample-table columns
  the parent must hold: legacy keeps every rank's table live at once
  (sum over ranks) while ``RankSet.stream()`` touches one memory-mapped
  rank at a time (max over ranks); gated at ``MIN_MEM_RATIO``;
* **IPC bytes** — what crosses the process boundary per rank: a result
  pickled with its consolidated trace (the legacy payload) vs the
  :class:`~repro.parallel.ranks.RankSummary` the spill path returns
  (recorded).
"""

from __future__ import annotations

import pickle

from repro.extrae.trace import Trace
from repro.extrae.tracer import TracerConfig
from repro.parallel import RankSet
from repro.pipeline import SessionConfig
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload

N_RANKS = 8
STREAM_N = 1_000_000
ITERATIONS = 6
PERIOD = 200  # dense enough for ~10^4.5 samples per rank
PAIRS = 8
MIN_PARALLEL_SPEEDUP = 1.5
MIN_CPUS = 2
MIN_MEM_RATIO = 5
# X2's stack: 24 ranks of HPCG 24^3, 2 levels, 2 iterations, analytic
# engine, sampling period 10,000
X2_RANKS = 24
X2_NX = 24
X2_ITERATIONS = 2
X2_PERIOD = 10_000


class _StreamFactory:
    """Picklable factory: every rank runs the same local triad."""

    def __call__(self, rank: int, n_ranks: int) -> StreamWorkload:
        return StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS))


class _X2Factory:
    """Picklable factory: X2's HPCG rank at its place in the stack."""

    def __call__(self, rank: int, n_ranks: int) -> HpcgWorkload:
        return HpcgWorkload(HpcgConfig(
            nx=X2_NX, ny=X2_NX, nz=X2_NX, nlevels=2,
            n_iterations=X2_ITERATIONS, rank=rank, npz=n_ranks,
        ))


def session_config() -> SessionConfig:
    return SessionConfig(
        seed=13,
        tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD),
    )


def x2_session_config() -> SessionConfig:
    return SessionConfig(
        seed=77,
        engine="analytic",
        tracer=TracerConfig(load_period=X2_PERIOD, store_period=X2_PERIOD),
    )


def rank_sides(n_ranks: int, config: SessionConfig, factory, workers: int):
    """A reusable pooled :class:`RankSet` and the serial and pooled runs."""
    pooled_set = RankSet(n_ranks, config, max_workers=workers)

    def serial():
        return RankSet(n_ranks, config, max_workers=1).run(factory)

    def pooled():
        # removing the last run's spill files is timed against the pool
        pooled_set.cleanup_spill()
        return pooled_set.run(factory)

    return pooled_set, serial, pooled


def digests(results) -> list[str]:
    return [r.summary.digest for r in results]


def table_nbytes(trace) -> int:
    """Total bytes of a trace's consolidated sample table."""
    table = trace.sample_table()
    return int(sum(table.column(name).nbytes for name in table.columns()))


def measure(bench) -> dict:
    # At least two workers, so the spill and IPC measurements exercise
    # the pool even on a single-core machine.
    workers = max(2, bench.cpu_count)
    pooled_set, serial, pooled = rank_sides(
        N_RANKS, session_config(), _StreamFactory(), min(N_RANKS, workers))
    x2_set, x2_serial, x2_pooled = rank_sides(
        X2_RANKS, x2_session_config(), _X2Factory(), min(X2_RANKS, workers))
    try:
        serial_results, pooled_results = bench.time_ratio(
            "pooled_vs_serial", serial, pooled, pairs=PAIRS,
            floor=MIN_PARALLEL_SPEEDUP, min_cpus=MIN_CPUS,
        )
        bench.check("digests_equal",
                    digests(pooled_results) == digests(serial_results))
        bench.check("pool_did_not_fall_back",
                    pooled_set.last_fallback_reason is None)
        x2_serial_results, x2_pooled_results = bench.time_ratio(
            "x2_pooled_vs_serial", x2_serial, x2_pooled, pairs=PAIRS,
            min_cpus=MIN_CPUS,
        )
        bench.check("x2_digests_equal",
                    digests(x2_pooled_results) == digests(x2_serial_results))
        bench.check("x2_pool_did_not_fall_back",
                    x2_set.last_fallback_reason is None)

        legacy_ipc = [len(pickle.dumps((r.summary, r.trace)))
                      for r in serial_results]
        spill_ipc = [len(pickle.dumps(r.summary)) for r in pooled_results]
        legacy_bytes = sum(table_nbytes(r.trace) for r in serial_results)

        def walk_spill():
            """Load one spilled rank at a time; the largest table's bytes."""
            if pooled_set.spill_dir is None:  # the pool fell back entirely
                return max(table_nbytes(r.trace) for r in serial_results)
            return max(table_nbytes(Trace.load(path))
                       for path in sorted(pooled_set.spill_dir.iterdir()))

        streaming_peak, walk = bench.probe(walk_spill)
    finally:
        pooled_set.cleanup_spill()
        x2_set.cleanup_spill()
    bench.bound("parent_memory_ratio", legacy_bytes / streaming_peak,
                floor=MIN_MEM_RATIO)
    return {
        "workload": f"STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"sampling period {PERIOD}, {N_RANKS} ranks -> "
                    f"{serial_results[0].summary.n_samples} samples/rank",
        "x2_workload": f"HPCG {X2_NX}^3, 2 levels, {X2_ITERATIONS} "
                       f"iterations, analytic engine, sampling period "
                       f"{X2_PERIOD}, {X2_RANKS} ranks -> "
                       f"{x2_serial_results[X2_RANKS // 2].summary.n_samples} "
                       f"samples on the interior rank",
        "workers": min(N_RANKS, workers),
        "ipc": {
            "legacy_bytes_per_rank": max(legacy_ipc),
            "spill_bytes_per_rank": max(spill_ipc),
            "ratio": round(sum(legacy_ipc) / sum(spill_ipc), 1),
        },
        "parent_memory": {
            "legacy_all_ranks_bytes": legacy_bytes,
            "streaming_peak_bytes": streaming_peak,
            # the measured one-at-a-time walk (mmap pages show up in
            # RSS, not tracemalloc); the gate is on the table bytes
            "streaming_walk": walk.as_dict(),
        },
    }

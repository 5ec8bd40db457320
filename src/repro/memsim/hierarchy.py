"""Multi-level cache hierarchy: the *precise* memory engine.

Models an inclusive L1D/L2/L3 hierarchy with true LRU at every level,
optional next-line prefetching into L2 and a data TLB.  Every access is
classified into the :class:`~repro.extrae.schema.DataSource` that
served it, which is exactly the information a PEBS load-latency record
carries on real hardware.

Both engines (this one and :class:`repro.memsim.analytic.AnalyticEngine`)
implement the same ``run_pattern`` interface and return
:class:`PatternResult`, so the simulated processor can switch fidelity
per run (see DESIGN.md, "Fidelity modes").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.memsim.cache import Cache, CacheConfig
from repro.memsim.datasource import LatencyModel
from repro.memsim.patterns import AccessPattern
from repro.memsim.prefetch import NextLinePrefetcher
from repro.memsim.tlb import Tlb, TlbConfig

__all__ = ["CacheHierarchy", "HierarchyConfig", "PatternResult", "PreciseEngine"]

#: Expansion block size used when materializing pattern addresses.
_BLOCK = 1 << 15


def haswell_levels() -> tuple[CacheConfig, ...]:
    """Per-core cache geometry approximating a Xeon E5-2680 v3 (Jureca).

    The shared 30 MB L3 is modeled as a 32 MB power-of-two-sets cache
    private to the simulated core; the evaluation's data structures are
    either far larger (matrix, 617 MB) or far smaller (vectors, ≈9 MB)
    than the L3, so the slight capacity difference does not change which
    regime each structure falls into.
    """
    return (
        CacheConfig("L1D", 32 * 1024, line_size=64, associativity=8),
        CacheConfig("L2", 256 * 1024, line_size=64, associativity=8),
        CacheConfig("L3", 32 * 1024 * 1024, line_size=64, associativity=16),
    )


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the precise hierarchy."""

    levels: tuple[CacheConfig, ...] = field(default_factory=haswell_levels)
    latency: LatencyModel = field(default_factory=LatencyModel)
    enable_prefetch: bool = True
    prefetch_degree: int = 2
    tlb: TlbConfig | None = field(default_factory=TlbConfig)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("hierarchy needs at least one level")
        line = self.levels[0].line_size
        if any(lv.line_size != line for lv in self.levels):
            raise ValueError("all levels must share one line size")

    def legal_sources(self, *, remote: bool = False) -> frozenset[DataSource]:
        """Data sources any engine over this hierarchy may emit.

        Cache-level hits up to the configured depth, plus the line-fill
        buffer and DRAM.  With ``remote`` (the SPE backend's NUMA
        model) the remote-access codes are additionally legal; in the
        default single-socket PEBS model they are not — the trace
        validator treats samples outside this set as corruption.
        """
        hits = (DataSource.L1, DataSource.L2, DataSource.L3)[: len(self.levels)]
        legal = frozenset(hits) | {DataSource.LFB, DataSource.DRAM}
        if remote:
            legal |= {
                DataSource.REMOTE,
                DataSource.REMOTE_CACHE,
                DataSource.REMOTE_DRAM,
            }
        return legal


@dataclass
class PatternResult:
    """Outcome of running one access pattern through a memory engine.

    Attributes
    ----------
    count:
        Number of accesses executed.
    level_misses:
        ``{"L1D": n, "L2": n, "L3": n}`` — accesses that missed at each
        level (i.e. had to look past it).
    source_counts:
        How many accesses each :class:`DataSource` served.
    sample_sources:
        Data source for each requested sample offset (aligned with the
        ``sample_offsets`` argument of ``run_pattern``).
    sample_latencies:
        Access cost in cycles for each sample.
    tlb_misses:
        Data-TLB misses incurred (0 when no TLB is configured).
    dram_lines:
        Number of cache lines transferred from DRAM (traffic model).
    writeback_lines:
        Dirty lines written back to DRAM by last-level evictions.
    """

    count: int
    level_misses: dict[str, int]
    source_counts: dict[DataSource, int]
    sample_sources: np.ndarray
    sample_latencies: np.ndarray
    tlb_misses: int = 0
    dram_lines: int = 0
    writeback_lines: int = 0

    def mean_cost_cycles(self, latency: LatencyModel) -> float:
        """Average per-access cost implied by the source mix."""
        total = sum(self.source_counts.values())
        if not total:
            return 0.0
        return (
            sum(latency.latency(s) * n for s, n in self.source_counts.items()) / total
        )


class CacheHierarchy:
    """The stacked caches themselves, independent of pattern handling."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.levels = [Cache(c) for c in config.levels]
        self.line_size = config.levels[0].line_size
        self.tlb = Tlb(config.tlb) if config.tlb is not None else None
        self.prefetcher = (
            NextLinePrefetcher(degree=config.prefetch_degree)
            if config.enable_prefetch
            else None
        )
        # DataSource for a hit at level index i.
        self._hit_source = [DataSource.L1, DataSource.L2, DataSource.L3][
            : len(self.levels)
        ]
        n = len(self.levels)
        self._n_levels = n
        self._last_index = n - 1
        # _fill_orders[top] = level indices to fill after a hit below
        # `top` (top == n means a full miss), innermost level last.
        self._fill_orders = tuple(
            tuple(range(top - 1, -1, -1)) for top in range(n + 1)
        )
        self._has_l2 = n >= 2
        self._has_l3 = n >= 3
        self.dram_lines = 0
        #: dirty lines written back to memory on last-level eviction
        self.dram_writebacks = 0

    def _fill_last(self, line: int, *, from_prefetch: bool = False) -> None:
        """Fill into the last level, accounting dirty-victim writebacks."""
        last = self.levels[-1]
        last.fill(line, from_prefetch=from_prefetch)
        if last.last_victim_dirty:
            self.dram_writebacks += 1

    def access_line(self, line: int, op: MemOp) -> DataSource:
        """Run one line-granular access; returns its data source.

        Misses are filled inclusively into every level above the hit
        point.  Stores are write-allocate and mark the line dirty at
        the last level; evicting a dirty line from there writes it back
        to memory (counted in :attr:`dram_writebacks`).
        """
        levels = self.levels
        hit_level = -1
        for i, cache in enumerate(levels):
            if cache.access(line):
                hit_level = i
                break
        if hit_level != 0:
            # Fill the line into all levels above the hit point.
            top = hit_level if hit_level >= 0 else self._n_levels
            last_index = self._last_index
            for i in self._fill_orders[top]:
                if i == last_index:
                    self._fill_last(line)
                else:
                    levels[i].fill(line)
            if self.prefetcher is not None:
                pf_lines = self.prefetcher.on_miss(line)
                if self._has_l2:
                    l2 = levels[1]
                    for pf_line in pf_lines:
                        # Prefetches land in L2 (and L3 for inclusion).
                        if not l2.contains(pf_line):
                            l2.fill(pf_line, from_prefetch=True)
                            if self._has_l3 and not levels[2].contains(pf_line):
                                self._fill_last(pf_line, from_prefetch=True)
                                self.dram_lines += 1
        if op == MemOp.STORE:
            last = levels[-1]
            if not last.mark_dirty(line):
                # Inclusivity repair: the line aged out of the last
                # level while still living above it.
                self._fill_last(line)
                last.mark_dirty(line)
        if hit_level == 0:
            return DataSource.L1
        if hit_level >= 0:
            return self._hit_source[hit_level]
        self.dram_lines += 1
        return DataSource.DRAM

    def flush(self) -> None:
        for cache in self.levels:
            cache.flush()
        if self.tlb is not None:
            self.tlb.flush()

    def reset_stats(self) -> None:
        for cache in self.levels:
            cache.stats.reset()
        if self.tlb is not None:
            self.tlb.stats.reset()
        self.dram_lines = 0
        self.dram_writebacks = 0


class PreciseEngine:
    """Per-access memory engine over a :class:`CacheHierarchy`.

    Parameters
    ----------
    config:
        Hierarchy configuration.
    rng:
        Generator used only for latency jitter of sampled accesses.
    """

    name = "precise"

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.hierarchy = CacheHierarchy(self.config)
        self._rng = rng

    def run_pattern(
        self, pattern: AccessPattern, sample_offsets: np.ndarray | None = None
    ) -> PatternResult:
        """Execute every access of *pattern*; classify sampled offsets.

        ``sample_offsets`` must be sorted ascending access indices; the
        returned ``sample_sources``/``sample_latencies`` align with it.
        """
        hier = self.hierarchy
        line_shift = int(np.log2(hier.line_size))
        samples = (
            np.asarray(sample_offsets, dtype=np.int64)
            if sample_offsets is not None
            else np.empty(0, dtype=np.int64)
        )
        if samples.size and np.any(np.diff(samples) < 0):
            raise ValueError("sample_offsets must be sorted ascending")
        sample_src = np.zeros(samples.size, dtype=np.int64)

        n = pattern.count
        src_hist = np.zeros(max(int(s) for s in DataSource) + 1, dtype=np.int64)
        tlb_misses0 = hier.tlb.stats.misses if hier.tlb else 0
        dram0 = hier.dram_lines
        wb0 = hier.dram_writebacks
        miss0 = [c.stats.misses + c.stats.prefetch_fills for c in hier.levels]

        s_ptr = 0
        n_samples = samples.size
        samples_list = samples.tolist()
        l1_code = int(DataSource.L1)
        op = pattern.op
        is_store = op == MemOp.STORE
        access_line = hier.access_line
        l1_stats = hier.levels[0].stats
        mark_dirty_last = hier.levels[-1].mark_dirty
        hist = src_hist.tolist()  # plain-int counters inside the hot loop
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            addrs = pattern.addresses_at(np.arange(lo, hi, dtype=np.int64))
            lines = (addrs >> np.uint64(line_shift)).astype(np.int64)
            if hier.tlb is not None:
                hier.tlb.access_bulk(addrs)
            # Collapse consecutive same-line accesses: after the first
            # access (which may miss and fill), the rest of the run hits
            # L1 by construction — fills are instantaneous.  This keeps
            # per-access semantics exact while cutting the Python loop
            # by the accesses-per-line factor on unit-stride sweeps.
            m = hi - lo
            keep = np.empty(m, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            run_starts = np.nonzero(keep)[0]
            run_lines = lines[run_starts].tolist()
            starts = run_starts.tolist()
            ends = starts[1:]
            ends.append(m)
            for start, end, line in zip(starts, ends, run_lines):
                src = access_line(line, op)
                hist[src] += 1
                run_len = end - start
                if run_len > 1:
                    # Account the collapsed repeat accesses.
                    hist[l1_code] += run_len - 1
                    l1_stats.hits += run_len - 1
                    if is_store:
                        mark_dirty_last(line)
                while s_ptr < n_samples and samples_list[s_ptr] < lo + end:
                    offset_in_block = samples_list[s_ptr] - lo
                    sample_src[s_ptr] = (
                        int(src) if offset_in_block == start else l1_code
                    )
                    s_ptr += 1
        src_hist[:] = hist

        source_counts = {
            DataSource(i): int(c) for i, c in enumerate(src_hist) if c and i
        }
        # "Misses" count line fetches into the level — demand misses plus
        # prefetch fills — i.e. lines transferred, matching the analytic
        # engine and the way PAPI-style miss counters are used in the
        # paper's per-instruction miss-rate curves.
        level_misses = {
            c.config.name: c.stats.misses + c.stats.prefetch_fills - m0
            for c, m0 in zip(hier.levels, miss0)
        }
        latencies = self.config.latency.sample(sample_src, self._rng)
        return PatternResult(
            count=n,
            level_misses=level_misses,
            source_counts=source_counts,
            sample_sources=sample_src,
            sample_latencies=latencies,
            tlb_misses=(hier.tlb.stats.misses - tlb_misses0) if hier.tlb else 0,
            dram_lines=hier.dram_lines - dram0,
            writeback_lines=hier.dram_writebacks - wb0,
        )

    def flush(self) -> None:
        self.hierarchy.flush()

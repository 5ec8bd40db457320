"""Closed-form memory engine for the streaming regime.

Running the paper's full problem (104³ local HPCG, ≈ 617 MB of matrix
arrays per rank, tens of millions of accesses per iteration) through the
per-access simulator is infeasible in pure Python.  In the regime the
evaluation actually probes — structures either far larger or far smaller
than the last-level cache, traversed by sweeps — cache behaviour has a
simple closed form, which this engine implements:

* Accesses are split into **first touches** (one per distinct cache
  line) and **repeat touches** (spatial/temporal reuse within the
  pattern).  Repeat touches hit at the lowest level whose capacity
  covers the pattern's short-term working set.
* First touches hit at a level iff the line is still **resident** there
  from earlier patterns.  Residency is tracked per level with a
  *segment LRU*: an LRU list of disjoint ``[lo, hi)`` byte ranges (with
  a coverage density for diffuse/random fills) totalling at most the
  level's capacity.  A sweep larger than the cache leaves only its
  **tail** resident — in the sweep's direction — which is what produces
  the paper's observation that performance briefly rises at phase
  transitions (the next phase begins in the still-cached tail of the
  previous one).

Sampled accesses get exact addresses from the pattern; their data source
is resolved deterministically for unit-stride sweeps (line-boundary
crossings are first touches) and probabilistically otherwise.

Cross-checked against the precise engine in
``benchmarks/test_ablation_engine.py`` and ``tests/memsim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.memsim.datasource import LatencyModel
from repro.memsim.hierarchy import HierarchyConfig, PatternResult
from repro.memsim.patterns import AccessPattern, Locality
from repro.util.bitops import ceil_div

__all__ = ["AnalyticEngine", "SegmentLru"]


def _sum(values: list[float]) -> float:
    """``np.sum`` of a float64 array of these values, for short lists.

    NumPy sums an array of fewer than eight elements left to right
    (its pairwise summation starts at eight), so this loop gives its
    bits.  It does not stand in for Python's ``sum()``, which is
    compensated on 3.12+ (``SegmentLru.resident_bytes`` keeps it).
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _choice_cdf(p: list[float]) -> np.ndarray:
    """The cdf ``Generator.choice(a, size, p=p)`` searches.

    ``choice`` takes the cumulative sum of *p*, divides it by its last
    element and returns ``a[cdf.searchsorted(random(size),
    side="right")]``.  This builds the same ``cdf`` from the same float
    operations, so searching it draws what ``choice`` draws and leaves
    the generator at the same stream position, without ``choice``'s
    argument checks and array conversions.
    """
    cdf = []
    acc = 0.0
    for v in p:
        acc += v
        cdf.append(acc)
    return np.array([c / acc for c in cdf])


@dataclass
class _Segment:
    """One resident byte range with a coverage density in (0, 1].

    ``direction`` records the sweep order it was streamed in: within a
    streamed segment the earliest-touched bytes (the start, in sweep
    direction) are the least recently used and get trimmed first.
    """

    lo: int
    hi: int
    density: float
    stamp: int
    direction: int = 1
    dirty: bool = False

    @property
    def resident_bytes(self) -> float:
        return (self.hi - self.lo) * self.density


class SegmentLru:
    """LRU list of disjoint resident ranges, capped at *capacity* bytes.

    Models which parts of the address space a cache level still holds,
    at object/segment granularity rather than line granularity.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: disjoint, in stamp (insertion) order: new segments are
        #: appended and ``_carve`` keeps the order of what it splits
        self._segments: list[_Segment] = []
        self._clock = 0
        #: dirty bytes removed by LRU eviction since the last
        #: :meth:`take_evicted_dirty_bytes` call
        self._evicted_dirty_bytes = 0.0

    def resident_bytes(self) -> float:
        # Python's float sum() is compensated on 3.12+: keep it sum().
        return sum([(s.hi - s.lo) * s.density for s in self._segments])

    def residency(self, lo: int, hi: int) -> float:
        """Fraction of ``[lo, hi)`` currently resident (density-weighted)."""
        if hi <= lo:
            return 0.0
        covered = 0.0
        for s in self._segments:
            o_lo, o_hi = max(lo, s.lo), min(hi, s.hi)
            if o_hi > o_lo:
                covered += (o_hi - o_lo) * s.density
        return min(1.0, covered / (hi - lo))

    def usable_residency(self, lo: int, hi: int, direction: int) -> float:
        """Resident fraction of ``[lo, hi)`` a *sweep* can actually use.

        A sweep evicts as it fetches: resident data the sweep only
        reaches after streaming ``d`` new bytes survives only if
        ``d < capacity`` (LRU pushes it out otherwise), and at most the
        first ``capacity - d`` bytes of it are still there.  This is
        why a same-direction re-sweep of a structure much larger than
        the cache gets *no* reuse, while a direction *reversal* (the
        Gauss–Seidel backward sweep) starts exactly in the surviving
        tail — the paper's phase-transition effect.

        ``direction=0`` (no sweep order) falls back to plain residency.
        """
        if hi <= lo:
            return 0.0
        if direction == 0:
            return self.residency(lo, hi)
        usable = 0.0
        for s in self._segments:
            o_lo, o_hi = max(lo, s.lo), min(hi, s.hi)
            if o_hi <= o_lo:
                continue
            dist = (o_lo - lo) if direction > 0 else (hi - o_hi)
            survive_budget = max(0.0, self.capacity - dist)
            usable += min((o_hi - o_lo) * s.density, survive_budget)
        return min(1.0, usable / (hi - lo))

    def _carve(self, lo: int, hi: int) -> None:
        """Remove ``[lo, hi)`` from all existing segments (split/trim)."""
        out: list[_Segment] = []
        for s in self._segments:
            if s.hi <= lo or s.lo >= hi:
                out.append(s)
                continue
            if s.lo < lo:
                out.append(
                    _Segment(s.lo, lo, s.density, s.stamp, s.direction, s.dirty)
                )
            if s.hi > hi:
                out.append(
                    _Segment(hi, s.hi, s.density, s.stamp, s.direction, s.dirty)
                )
        self._segments = out

    def insert(
        self,
        lo: int,
        hi: int,
        direction: int = 1,
        density: float = 1.0,
        dirty: bool = False,
    ) -> None:
        """Record that ``[lo, hi)`` was just streamed through this level.

        If the range exceeds the capacity, only the trailing ``capacity``
        bytes (in sweep *direction*) are kept resident; the evicted part
        of a *dirty* over-capacity insert is written back immediately.
        Older segments are evicted LRU-whole until the budget fits, with
        evicted dirty bytes accumulated for the writeback counter.
        """
        if hi <= lo or density <= 0:
            return
        self._clock += 1
        span = hi - lo
        eff_density = min(1.0, density)
        # Keep only the tail that can possibly fit.
        max_span = max(1, int(self.capacity / eff_density))
        if span > max_span:
            if dirty:
                self._evicted_dirty_bytes += (span - max_span) * eff_density
            if direction >= 0:
                lo = hi - max_span
            else:
                hi = lo + max_span
        self._carve(lo, hi)
        self._segments.append(
            _Segment(lo, hi, eff_density, self._clock, direction, dirty)
        )
        # Evict from the least-recently-inserted segments until within
        # capacity; the last victim is *trimmed*, not dropped whole, so
        # a small fill only nibbles at a big segment's LRU end instead
        # of invalidating it (LRU is line-granular on real hardware).
        # The list is already in stamp order, oldest first.
        total = self.resident_bytes()
        i = 0
        while total > self.capacity and i < len(self._segments):
            victim = self._segments[i]
            overage = total - self.capacity
            if victim.resident_bytes <= overage + 1e-9:
                self._segments.pop(i)
                total -= victim.resident_bytes
                if victim.dirty:
                    self._evicted_dirty_bytes += victim.resident_bytes
            else:
                trim = int(overage / victim.density) + 1
                if victim.dirty:
                    self._evicted_dirty_bytes += min(
                        trim, victim.hi - victim.lo
                    ) * victim.density
                if victim.direction >= 0:
                    victim.lo = min(victim.lo + trim, victim.hi)
                else:
                    victim.hi = max(victim.hi - trim, victim.lo)
                if victim.hi <= victim.lo:
                    self._segments.pop(i)
                total = self.resident_bytes()

    def take_evicted_dirty_bytes(self) -> float:
        """Dirty bytes evicted since the last call (and reset)."""
        out = self._evicted_dirty_bytes
        self._evicted_dirty_bytes = 0.0
        return out

    def flush(self) -> None:
        self._segments.clear()
        self._evicted_dirty_bytes = 0.0


class AnalyticEngine:
    """Closed-form counterpart of :class:`~repro.memsim.hierarchy.PreciseEngine`.

    Parameters
    ----------
    config:
        The same hierarchy configuration the precise engine takes; only
        capacities, line size and the latency model are used.
    rng:
        Source of randomness for probabilistic sample classification and
        latency jitter.
    lfb_fraction:
        Fraction of the line-local repeat hits that PEBS would attribute
        to the line-fill buffer when the first touch itself missed to
        DRAM (adjacent loads issued before the fill returns).
    """

    name = "analytic"

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        rng: np.random.Generator | None = None,
        lfb_fraction: float = 0.15,
        prefetch_coverage: float = 0.95,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.latency: LatencyModel = self.config.latency
        self.line_size = self.config.levels[0].line_size
        self._rng = rng or np.random.default_rng(0)
        if not 0.0 <= lfb_fraction < 1.0:
            raise ValueError(f"lfb_fraction must be in [0, 1), got {lfb_fraction}")
        self.lfb_fraction = lfb_fraction
        if not 0.0 <= prefetch_coverage <= 1.0:
            raise ValueError(
                f"prefetch_coverage must be in [0, 1], got {prefetch_coverage}"
            )
        #: share of streaming first-touch DRAM misses whose *demand*
        #: access is converted to an L2 hit because the streamer ran
        #: ahead; the line fetch itself still counts as an L2/L3 miss
        #: (line transfer) and as DRAM traffic.
        self.prefetch_coverage = (
            prefetch_coverage if self.config.enable_prefetch else 0.0
        )
        self._capacities = [lv.size_bytes for lv in self.config.levels]
        self._names = [lv.name for lv in self.config.levels]
        self._residency = [SegmentLru(c) for c in self._capacities]
        n_levels = len(self._capacities)
        self._level_sources = [DataSource.L1, DataSource.L2, DataSource.L3][:n_levels]
        #: source code of each first-touch outcome: the levels, then DRAM
        self._level_codes = np.array(
            [int(s) for s in self._level_sources] + [int(DataSource.DRAM)],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def _repeat_hit_level(self, working_set: int) -> int:
        """Index of the lowest level whose capacity covers *working_set*.

        Returns ``len(levels)`` when nothing does (repeats go to DRAM).
        """
        for i, cap in enumerate(self._capacities):
            if working_set <= cap:
                return i
        return len(self._capacities)

    def _first_touch_probs(self, loc: Locality) -> list[float]:
        """``P(first touch served at level i)`` plus DRAM as last entry."""
        r = [
            lru.usable_residency(loc.lo, loc.hi, loc.direction)
            for lru in self._residency
        ]
        # Enforce inclusive nesting r1 <= r2 <= r3.
        for i in range(1, len(r)):
            r[i] = max(r[i], r[i - 1])
        probs = []
        prev = 0.0
        for ri in r:
            probs.append(max(0.0, ri - prev))
            prev = max(prev, ri)
        probs.append(max(0.0, 1.0 - prev))
        total = _sum(probs)
        return [p / total for p in probs] if total > 0 else probs

    def run_pattern(
        self, pattern: AccessPattern, sample_offsets: np.ndarray | None = None
    ) -> PatternResult:
        """Cost *pattern* in closed form; classify sampled offsets.

        The costing is scalar: probabilities, counts and shares are
        Python floats over at most four outcomes (the levels and DRAM),
        summed left to right as NumPy sums arrays that short, so the
        result is bit-identical to the array form at a fraction of its
        call overhead.  NumPy runs only over the samples: the first-touch
        draw, the LFB draw and the latency jitter.  Each call reads the
        residency the previous pattern left and draws from the engine's
        generator, so patterns run one at a time, in order.
        """
        loc = pattern.locality()
        count = loc.count
        samples = (
            np.asarray(sample_offsets, dtype=np.int64)
            if sample_offsets is not None
            else np.empty(0, dtype=np.int64)
        )
        if count == 0:
            return PatternResult(
                count=0,
                level_misses={n: 0 for n in self._names},
                source_counts={},
                sample_sources=np.zeros(samples.size, dtype=np.int64),
                sample_latencies=np.zeros(samples.size, dtype=np.float64),
            )

        unique_lines = ceil_div(max(loc.unique_bytes, 1), self.line_size)
        first_touch = min(count, unique_lines)
        repeat = count - first_touch
        ft_probs = self._first_touch_probs(loc)  # len(levels)+1
        rep_level = self._repeat_hit_level(loc.working_set_bytes)

        n_levels = len(self._capacities)
        ft_counts = [p * first_touch for p in ft_probs]  # per level + DRAM
        # Repeat accesses all hit at rep_level (or DRAM if beyond).
        rep_counts = [0.0] * (n_levels + 1)
        rep_counts[min(rep_level, n_levels)] = float(repeat)

        # Per-level miss counters (line fetches past level i) and DRAM
        # traffic are fixed by the residency model *before* prefetch
        # adjustment: the streamer changes who waits, not what moves.
        level_misses: dict[str, int] = {}
        for i, name in enumerate(self._names):
            ft_miss = _sum(ft_counts[i + 1 :])
            rep_miss = _sum(rep_counts[i + 1 :])
            level_misses[name] = int(round(ft_miss + rep_miss))
        dram_lines = int(round(ft_counts[-1] + rep_counts[-1]))

        streaming_dram = loc.kind in ("seq", "strided") and ft_probs[-1] > 0.5

        # Streamer coverage: demand accesses to prefetched lines observe
        # an L2 hit even though the line came from DRAM.
        if loc.kind in ("seq", "strided") and self.prefetch_coverage > 0:
            hidden = ft_counts[-1] * self.prefetch_coverage
            ft_counts[-1] -= hidden
            ft_counts[min(1, n_levels - 1)] += hidden

        # LFB attribution: applies to line-local repeats of unit-stride
        # sweeps whose first touches mostly miss to DRAM.
        lfb = 0.0
        if streaming_dram and rep_level == 0 and repeat > 0:
            lfb = repeat * self.lfb_fraction
            rep_counts[0] -= lfb

        source_counts: dict[DataSource, int] = {}
        for i, src in enumerate(self._level_sources):
            c = int(round(ft_counts[i] + rep_counts[i]))
            if c:
                source_counts[src] = c
        dram_count = int(round(ft_counts[-1] + rep_counts[-1]))
        if dram_count:
            source_counts[DataSource.DRAM] = dram_count
        if lfb >= 0.5:
            source_counts[DataSource.LFB] = int(round(lfb))

        if samples.size:
            ft_total = _sum(ft_counts)
            ft_serve = (
                [c / ft_total for c in ft_counts] if ft_total > 0 else ft_probs
            )
            sample_sources = self._classify_samples(
                pattern, loc, samples, ft_serve, rep_level, first_touch,
                streaming_dram,
            )
            sample_latencies = self.latency.sample(sample_sources, self._rng)
        else:
            # Nothing to classify or jitter: no draw from the generator.
            sample_sources = np.zeros(0, dtype=np.int64)
            sample_latencies = np.zeros(0, dtype=np.float64)

        # Update residency: this pattern's footprint is now (partially)
        # cached at every level, tail-first in sweep direction.  Store
        # footprints are dirty; their last-level eviction (now or by a
        # later pattern) is a writeback to memory.
        span = loc.hi - loc.lo
        density = min(1.0, loc.unique_bytes / span) if span > 0 else 1.0
        is_store = pattern.op == MemOp.STORE
        for lru in self._residency:
            lru.insert(loc.lo, loc.hi, loc.direction or 1, density, dirty=is_store)
        writebacks = int(
            round(self._residency[-1].take_evicted_dirty_bytes() / self.line_size)
        )

        return PatternResult(
            count=count,
            level_misses=level_misses,
            source_counts=source_counts,
            sample_sources=sample_sources,
            sample_latencies=sample_latencies,
            tlb_misses=int(ceil_div(loc.unique_bytes, 4096)) if count else 0,
            dram_lines=dram_lines,
            writeback_lines=writebacks,
        )

    def _classify_samples(
        self,
        pattern: AccessPattern,
        loc: Locality,
        samples: np.ndarray,
        ft_serve: list[float],
        rep_level: int,
        first_touch: int,
        streaming_dram: bool,
    ) -> np.ndarray:
        """Data source per sampled access offset (*samples* is not empty)."""
        n_levels = len(self._capacities)
        # Is each sample a first touch?
        if loc.kind == "seq" and pattern.elem_size < self.line_size:
            addrs = pattern.addresses_at(samples)
            offset_in_line = (addrs % np.uint64(self.line_size)).astype(np.int64)
            if loc.direction >= 0:
                is_first = offset_in_line < pattern.elem_size
            else:
                is_first = offset_in_line >= self.line_size - pattern.elem_size
        else:
            p_first = first_touch / max(loc.count, 1)
            is_first = self._rng.random(samples.size) < p_first

        out = np.empty(samples.size, dtype=np.int64)
        n_first = int(np.count_nonzero(is_first))
        if n_first:
            total = _sum(ft_serve)
            cdf = _choice_cdf([v / total for v in ft_serve])
            draws = cdf.searchsorted(self._rng.random(n_first), side="right")
            out[is_first] = self._level_codes[draws]
        n_rep = samples.size - n_first
        if n_rep:
            rep_src = self._level_codes[min(rep_level, n_levels)]
            rep = np.full(n_rep, rep_src, dtype=np.int64)
            # A share of line-local repeats shows up as LFB hits.
            if streaming_dram and rep_level == 0 and self.lfb_fraction > 0:
                lfb_mask = self._rng.random(n_rep) < self.lfb_fraction
                rep[lfb_mask] = int(DataSource.LFB)
            out[~is_first] = rep
        return out

    def flush(self) -> None:
        """Drop all residency state (cold caches)."""
        for lru in self._residency:
            lru.flush()

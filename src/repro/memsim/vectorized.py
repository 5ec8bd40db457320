"""Vectorized batch memory engine: PreciseEngine semantics over arrays.

The per-access engine (:class:`repro.memsim.hierarchy.PreciseEngine`)
walks every collapsed line run through ``OrderedDict``-based caches —
exact, but bounded by the Python interpreter to ~1 M accesses/second,
which confines precise-fidelity runs to small problems (DESIGN.md,
"Scale notes").  This module re-implements the *same* machine model as
bulk NumPy computation and produces **bit-identical**
:class:`~repro.memsim.hierarchy.PatternResult`\\ s.

The key observation is that the hierarchy is a feed-forward cascade:

* **L1** content depends only on the line stream (prefetches never fill
  L1), so its hit/miss outcome can be computed for a whole block first;
* the **prefetcher** observes the ordered L1-miss subsequence only;
* **L2** sees the L1 misses plus the prefetch-fill candidates;
* **L3** sees the L2 misses, the candidates that filled L2, and — for
  store patterns — one dirty-mark event per access (stores only dirty
  the last level; evicting a dirty line there is a DRAM writeback).

Each level is one :class:`_SetArrayCache`: the ways of every set as a
recency-ordered tag matrix (column 0 = LRU victim).  An ordered event
batch is partitioned by cache set and replayed either

* in closed form when every event line is distinct and non-resident
  (the streaming regime: n inserts into a set are a single shift of its
  recency row — no iteration at all), or
* by a *lockstep* loop over the in-set event position: iteration ``t``
  applies event ``t`` of **every** set at once with array ops, so the
  Python-level loop count drops from "number of accesses" to "events in
  the busiest set".

Equivalence against the precise engine is enforced by
``tests/memsim/test_vectorized_equivalence.py`` (property-based) and the
three-way A4 cross-check in ``benchmarks/test_ablation_engine.py``.
"""

from __future__ import annotations

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.memsim.cache import CacheConfig
from repro.memsim.hierarchy import HierarchyConfig, PatternResult
from repro.memsim.patterns import AccessPattern
from repro.memsim.tlb import TlbConfig
from repro.util.bitops import ilog2

__all__ = ["VectorizedEngine"]

#: Expansion block size used when materializing pattern addresses.
#: Any partition yields identical results (a run split at a block edge
#: re-probes an MRU line: pure L1 hits, no state or counter drift), so
#: the block only bounds peak memory.
_BLOCK = 1 << 20

# Event kinds understood by _SetArrayCache.process.
_DEMAND = 0        # probe; on miss count it and fill (clean)
_PF = 1            # prefetch: fill only if absent; no refresh when present
_DIRTY = 2         # store dirty-ensure: mark dirty, fill dirty if absent,
                   # no recency refresh when present (Cache.mark_dirty)
_DEMAND_DIRTY = 3  # _DEMAND immediately followed by _DIRTY on the same line

_NO_LINE = np.int64(-1)

_IOTA = np.empty(0, dtype=np.int64)


def _iota(n: int) -> np.ndarray:
    """Shared read-only ``arange(n)`` (callers must not write into it)."""
    global _IOTA
    if _IOTA.size < n:
        _IOTA = np.arange(max(n, _BLOCK), dtype=np.int64)
    return _IOTA[:n]


class _SetArrayCache:
    """One set-associative LRU level as recency-ordered way matrices.

    ``ways[s]`` holds set *s*'s residents ordered by recency (column 0 =
    LRU victim, last column = MRU) with the line's dirty bit packed into
    bit 0 (``entry = line << 1 | dirty``); empty ways are ``_EMPTY`` and
    kept leftmost.

    Batches are pre-collapsed: consecutive events of one set that touch
    the *same* line reduce to a single composite event, because after
    the first one the line is certainly resident, so the rest are hits
    whose only effects are "promote to MRU if any demand" and "set the
    dirty bit if any store".  Collapsing is what makes streaming event
    streams (probe + prefetch pairs on one line) all-distinct and
    thereby eligible for the closed-form all-miss path.
    """

    _EMPTY = np.int64(-2)  # (-1 << 1) | clean

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._assoc = config.associativity
        self._set_mask = np.int64(config.n_sets - 1)
        self.ways = np.full((config.n_sets, self._assoc), self._EMPTY, dtype=np.int64)
        self._any_filled = False
        self._any_dirty = False
        #: probe misses (same meaning as ``CacheStats.misses``)
        self.misses = 0
        #: lines installed by the prefetcher (``CacheStats.prefetch_fills``)
        self.prefetch_fills = 0

    def flush(self) -> None:
        self.ways.fill(self._EMPTY)
        self._any_filled = False
        self._any_dirty = False

    # ------------------------------------------------------------------
    def process(
        self,
        lines: np.ndarray,
        kinds: np.ndarray | None = None,
        dirty_const: bool = False,
    ):
        """Replay an ordered event batch; returns ``(hit, victim_dirty)``.

        ``hit[i]`` is whether event *i*'s line was resident when the
        event was applied; ``victim_dirty[i]`` whether its fill evicted
        a dirty line.  Events of different sets commute, so only the
        relative order *within* each set is preserved.

        ``kinds=None`` is the all-demand fast path for run-collapsed
        streams (L1, TLB): every event promotes, consecutive lines are
        already distinct, and *dirty_const* supplies the store flag for
        a single-level hierarchy.
        """
        n = int(lines.size)
        hit = np.empty(n, dtype=bool)
        victim_dirty = np.empty(n, dtype=bool)
        if n == 0:
            return hit, victim_dirty
        # A batch without dirtying events against a cache without dirty
        # lines cannot produce dirty victims: victim_dirty stays False
        # everywhere and all dirty bookkeeping below is skipped.
        can_dirty = dirty_const or (
            kinds is not None and int(kinds.max()) >= _DIRTY
        )
        vd_possible = can_dirty or self._any_dirty
        sets = (lines & self._set_mask).astype(np.int32)
        order = np.argsort(sets, kind="stable")
        ls = lines[order]
        if kinds is None:
            # Caller guarantees a run-collapsed all-demand stream: every
            # event is its own group.
            gi = None
            glines = ls
            gk = None
            gpromote = gdirty = None
            gsets = sets[order]
        else:
            ks = kinds[order]
            # Collapse consecutive same-line events of a set (equal
            # lines imply equal sets, so adjacent equal lines in
            # set-major order are consecutive events of one set): the
            # first event decides hit/miss, the rest are guaranteed
            # hits whose only effects are promote/dirty.
            gfirst = np.empty(n, dtype=bool)
            gfirst[0] = True
            np.not_equal(ls[1:], ls[:-1], out=gfirst[1:])
            gi = np.nonzero(gfirst)[0]
            if can_dirty:
                promote = (ks == _DEMAND) | (ks == _DEMAND_DIRTY)
                dirtying = ks >= _DIRTY
            else:
                promote = ks == _DEMAND
                dirtying = None
            if gi.size == n:
                gi = None
                glines = ls
                gk = ks
                gpromote, gdirty = promote, dirtying
                gsets = sets[order]
            else:
                glines = ls[gi]
                gk = ks[gi]
                gpromote = np.logical_or.reduceat(promote, gi)
                gdirty = (
                    np.logical_or.reduceat(dirtying, gi) if can_dirty else None
                )
                gsets = sets[order[gi]]
        k = glines.size
        snew = np.empty(k, dtype=bool)
        snew[0] = True
        np.not_equal(gsets[1:], gsets[:-1], out=snew[1:])
        gstarts = np.nonzero(snew)[0]
        guniq = gsets[gstarts]
        gcounts = np.diff(np.append(gstarts, k))
        maxc = int(gcounts.max())
        ghit = np.zeros(k, dtype=bool)
        gvd = np.zeros(k, dtype=bool) if vd_possible else None
        done = False
        if maxc > 1:
            done = self._process_fresh(
                glines, gdirty, dirty_const, guniq, gstarts, gcounts, snew, gvd
            )
        if not done:
            if gpromote is None:
                gpromote = np.ones(k, dtype=bool)
                if dirty_const:
                    gdirty = np.ones(k, dtype=bool)
            self._process_lockstep(
                glines, gpromote, gdirty, guniq, gstarts, gcounts, maxc, ghit, gvd
            )
        self._any_filled = True
        if can_dirty:
            self._any_dirty = True
        # Only group leaders can miss or fill; stats come from the
        # (smaller) collapsed domain.
        if gk is None:
            self.misses += int(k - ghit.sum())
        else:
            leader_demand = (
                (gk == _DEMAND) | (gk == _DEMAND_DIRTY)
                if can_dirty
                else gk == _DEMAND
            )
            self.misses += int((leader_demand & ~ghit).sum())
            self.prefetch_fills += int(((gk == _PF) & ~ghit).sum())
        # Expand the per-group outcome back to per-event outcomes: the
        # non-leading events of a group all hit and never fill.
        if not vd_possible:
            victim_dirty.fill(False)
        if gi is None:
            hit[order] = ghit
            if vd_possible:
                victim_dirty[order] = gvd
        else:
            hs = np.ones(n, dtype=bool)
            hs[gi] = ghit
            hit[order] = hs
            if vd_possible:
                vs = np.zeros(n, dtype=bool)
                vs[gi] = gvd
                victim_dirty[order] = vs
        return hit, victim_dirty

    # -- closed-form path ----------------------------------------------
    def _process_fresh(
        self, glines, gdirty, dirty_const, guniq, gstarts, gcounts, snew, gvd
    ):
        """All-miss shortcut: applies iff every event line is distinct
        and absent, in which case each event is exactly one insert and
        the *j*-th insert of a set evicts that set's *j*-th virtual
        column — an original way for ``j < assoc``, else the batch's own
        insert *j - assoc* of the same set.  Returns False (leaving
        state untouched) when the batch does not qualify."""
        n = glines.size
        if self._any_filled:
            # Cheap reject first: probe a prefix before gathering all.
            probe = self.ways[glines[:256] & self._set_mask]
            if ((probe >> 1) == glines[:256, None]).any():
                return False
        # Distinctness: equal lines always map to the same set, so it
        # suffices per set.  Per-set monotone batches (any streaming or
        # strided sweep) are accepted with one diff; otherwise sort.
        if n > 1:
            d = np.diff(glines)
            inner = ~snew[1:]
            if ((d == 0) & inner).any():
                return False
            if not (((d > 0) | ~inner).all() or ((d < 0) | ~inner).all()):
                srt = np.sort(glines)
                if (srt[1:] == srt[:-1]).any():
                    return False
        if self._any_filled:
            resident = self.ways[glines & self._set_mask]
            if ((resident >> 1) == glines[:, None]).any():
                return False
        assoc = self._assoc
        k = guniq.size
        packed = glines << 1
        batch_dirty = gdirty is not None or dirty_const
        if gdirty is not None:
            packed |= gdirty
        elif dirty_const:
            packed |= 1
        if gvd is not None:
            # Victims of the first `assoc` inserts of a set are its old
            # ways (dirty only if the cache holds dirty lines at all);
            # later inserts evict the batch's own earlier inserts
            # (dirty only if the batch carries dirty events).
            col_idx = _iota(n) - np.repeat(gstarts, gcounts)
            early = col_idx < assoc
            if self._any_filled and self._any_dirty:
                row_early = np.repeat(guniq, np.minimum(gcounts, assoc))
                gvd[early] = (self.ways[row_early, col_idx[early]] & 1).astype(bool)
            if batch_dirty:
                late = np.nonzero(~early)[0]
                gvd[late] = (packed[late - assoc] & 1).astype(bool)
        # New state: the last `assoc` virtual columns of each set.
        vcol = gcounts[:, None] + np.arange(assoc)
        from_new = vcol >= assoc
        # Surviving old ways shift left by the set's insert count; the
        # clip keeps take_along_axis in bounds where inserts take over.
        rows = np.take_along_axis(
            self.ways[guniq], np.minimum(vcol, assoc - 1), axis=1
        )
        src = gstarts[:, None] + (vcol - assoc)
        rows[from_new] = packed[src[from_new]]
        self.ways[guniq] = rows
        return True

    # -- generic path ---------------------------------------------------
    def _process_lockstep(
        self, glines, gpromote, gdirty, guniq, gstarts, gcounts, maxc, ghit, gvd
    ) -> None:
        assoc = self._assoc
        jj = np.arange(assoc - 1)
        minc = int(gcounts.min())
        for t in range(maxc):
            if t < minc:
                idx = gstarts + t
                s = guniq
            else:
                act = gcounts > t
                idx = gstarts[act] + t
                s = guniq[act]
            rows = self.ways[s]
            line = glines[idx]
            eq = (rows >> 1) == line[:, None]
            h = eq.any(axis=1)
            ghit[idx] = h
            way = eq.argmax(axis=1)
            pro = gpromote[idx]
            dr = gdirty[idx] if gdirty is not None else None
            if dr is not None:
                # dirty-mark on a non-promoting hit: set bit 0 in place
                mark = h & dr & ~pro
                if mark.any():
                    rows[mark, way[mark]] |= 1
            insert = ~h
            if gvd is not None:
                gvd[idx] = insert & (rows[:, 0] & 1).astype(bool)
            chg = insert | (h & pro)
            if chg.any():
                rc = rows[chg]
                # Drop column `drop` (hit way, or the LRU/empty slot 0
                # for inserts) and append the surviving/new entry MRU.
                drop = np.where(h[chg], way[chg], 0)
                take = np.where(jj[None, :] < drop[:, None], jj[None, :], jj[None, :] + 1)
                rows_new = np.empty_like(rc)
                if assoc > 1:
                    rows_new[:, : assoc - 1] = np.take_along_axis(rc, take, axis=1)
                ar = np.arange(rc.shape[0])
                dc = dr[chg] if dr is not None else False
                rows_new[:, -1] = np.where(
                    h[chg], rc[ar, drop] | dc, (line[chg] << 1) | dc
                )
                rows[chg] = rows_new
            self.ways[s] = rows


class _BatchPrefetcher:
    """Vectorized twin of :class:`repro.memsim.prefetch.NextLinePrefetcher`.

    Stream detection for L1-miss *i* only looks at the ``history`` miss
    lines before it, so a batch reduces to one sliding-window comparison
    against the miss array (extended with the carried tail from earlier
    batches)."""

    _SENTINEL = np.int64(-(1 << 62))

    def __init__(self, degree: int = 2, history: int = 16) -> None:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.history = history
        self._recent = np.full(history, self._SENTINEL, dtype=np.int64)

    def on_miss_batch(self, miss_lines: np.ndarray):
        """Candidates per miss: ``(cand[k, degree], valid[k, degree])``.

        Column *d* holds the (d+1)-th line in stream direction, matching
        the emission order of ``NextLinePrefetcher.on_miss``."""
        k = int(miss_lines.size)
        deg = self.degree
        if k == 0:
            return (
                np.empty((0, deg), dtype=np.int64),
                np.empty((0, deg), dtype=bool),
            )
        hist = self.history
        ext = np.concatenate([self._recent, miss_lines])
        lo = miss_lines - 1
        # Miss i sits at ext[hist + i]; its history window is the `hist`
        # entries before it, i.e. lag j is the contiguous slice
        # ext[hist - j : hist - j + k].  A unit-stride stream resolves
        # almost entirely at lag 1; whatever remains (stream heads,
        # strides, random) is classified by gathering just those
        # misses' windows.  Per-lag contiguous compares cover the
        # mid-density regime more cheaply than one big strided
        # sliding-window reduction.
        asc = ext[hist - 1 : hist - 1 + k] == lo
        rem = np.nonzero(~asc)[0]
        if rem.size > k >> 3:
            for lag in range(2, hist + 1):
                asc |= ext[hist - lag : hist - lag + k] == lo
            rem = np.nonzero(~asc)[0]
            windows = np.lib.stride_tricks.sliding_window_view(ext[:-1], hist)
            desc = np.zeros(k, dtype=bool)
            if rem.size:
                wr = windows[rem]
                desc[rem] = (wr == (miss_lines[rem] + 1)[:, None]).any(axis=1)
        else:
            desc = np.zeros(k, dtype=bool)
            if rem.size:
                wr = np.lib.stride_tricks.sliding_window_view(ext[:-1], hist)[rem]
                asc[rem] = (wr == lo[rem, None]).any(axis=1)
                r2 = rem[~asc[rem]]
                if r2.size:
                    wr2 = np.lib.stride_tricks.sliding_window_view(ext[:-1], hist)[r2]
                    desc[r2] = (wr2 == (miss_lines[r2] + 1)[:, None]).any(axis=1)
        desc &= ~asc  # ascending streams win, like the scalar elif
        steps = np.arange(1, deg + 1, dtype=np.int64)
        cand = np.where(
            asc[:, None],
            miss_lines[:, None] + steps[None, :],
            miss_lines[:, None] - steps[None, :],
        )
        valid = asc[:, None] | (desc[:, None] & (cand >= 0))
        self._recent = ext[-hist:]
        return cand, valid

    def reset(self) -> None:
        self._recent.fill(self._SENTINEL)


class _BatchTlb:
    """Vectorized DTLB with :meth:`repro.memsim.tlb.Tlb.access_bulk` semantics."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self._shift = int(config.page_size).bit_length() - 1
        self.page_shift = self._shift
        self._cache = _SetArrayCache(
            CacheConfig(
                "DTLB",
                size_bytes=config.entries * config.page_size,
                line_size=config.page_size,
                associativity=config.associativity,
            )
        )

    def access_block(self, addresses: np.ndarray) -> int:
        """Translate a block of addresses; returns the number of misses."""
        if addresses.size == 0:
            return 0
        pages = addresses.view(np.int64) >> self._shift
        return self._access_pages(pages)

    def access_line_runs(self, run_lines: np.ndarray, line_shift: int) -> int:
        """Translate a block given its collapsed line runs.

        Pages change only where lines change (the page size is a
        multiple of the line size), so the line-run stream carries every
        page transition of the full access stream and repeat touches of
        a page are idempotent LRU refreshes either way.
        """
        if run_lines.size == 0:
            return 0
        return self._access_pages(run_lines >> (self._shift - line_shift))

    def _access_pages(self, pages: np.ndarray) -> int:
        keep = np.empty(pages.size, dtype=bool)
        keep[0] = True
        np.not_equal(pages[1:], pages[:-1], out=keep[1:])
        run_pages = pages[keep]
        before = self._cache.misses
        self._cache.process(run_pages)
        return self._cache.misses - before

    def flush(self) -> None:
        self._cache.flush()


class VectorizedEngine:
    """Batch-exact counterpart of :class:`~repro.memsim.hierarchy.PreciseEngine`.

    Same constructor contract and ``run_pattern`` interface; results are
    bit-identical to the precise engine on any pattern sequence (the
    fidelity contract the A4 bench and the property suite enforce), at
    10–30× the throughput on streaming patterns.

    Parameters
    ----------
    config:
        Hierarchy configuration (up to three levels, like the precise
        engine's source classification supports).
    rng:
        Generator used only for latency jitter of sampled accesses.
    """

    name = "vectorized"

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        if len(self.config.levels) > 3:
            raise ValueError(
                "vectorized engine models at most three levels "
                f"(got {len(self.config.levels)})"
            )
        self.levels = [_SetArrayCache(c) for c in self.config.levels]
        self.line_size = self.config.levels[0].line_size
        self._line_shift = ilog2(self.line_size)
        self.tlb = _BatchTlb(self.config.tlb) if self.config.tlb is not None else None
        self.prefetcher = (
            _BatchPrefetcher(degree=self.config.prefetch_degree)
            if self.config.enable_prefetch
            else None
        )
        self._rng = rng

    # ------------------------------------------------------------------
    def run_pattern(
        self, pattern: AccessPattern, sample_offsets: np.ndarray | None = None
    ) -> PatternResult:
        """Execute every access of *pattern*; classify sampled offsets.

        ``sample_offsets`` must be sorted ascending access indices in
        ``[0, pattern.count)``; the returned ``sample_sources`` /
        ``sample_latencies`` align with it.
        """
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
        miss0 = [lv.misses + lv.prefetch_fills for lv in self.levels]
        store = pattern.op == MemOp.STORE
        l1_code = int(DataSource.L1)
        tlb_misses = 0
        dram_lines = 0
        writeback_lines = 0

        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            offs = _iota(hi) if lo == 0 else np.arange(lo, hi, dtype=np.int64)
            addrs = pattern.addresses_at(offs)
            # zero-copy reinterpret: addresses are < 2**63
            lines = addrs.view(np.int64) >> self._line_shift
            m = hi - lo
            # Collapse consecutive same-line accesses (repeats hit L1 by
            # construction — identical to the precise engine's collapse).
            keep = np.empty(m, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            run_starts = np.nonzero(keep)[0]
            run_lines = lines[run_starts]
            if self.tlb is not None:
                if self.tlb.page_shift >= self._line_shift:
                    tlb_misses += self.tlb.access_line_runs(
                        run_lines, self._line_shift
                    )
                else:  # pages smaller than lines: translate every access
                    tlb_misses += self.tlb.access_block(addrs)
            run_src, dram, wb = self._run_block(run_lines, store)
            dram_lines += dram
            writeback_lines += wb
            src_hist += np.bincount(run_src, minlength=src_hist.size)
            src_hist[l1_code] += m - run_starts.size
            a = np.searchsorted(samples, lo, side="left")
            b = np.searchsorted(samples, hi, side="left")
            if b > a:
                off = samples[a:b] - lo
                rid = np.searchsorted(run_starts, off, side="right") - 1
                sample_src[a:b] = np.where(
                    off == run_starts[rid], run_src[rid], l1_code
                )

        source_counts = {
            DataSource(i): int(c) for i, c in enumerate(src_hist) if c and i
        }
        level_misses = {
            lv.config.name: lv.misses + lv.prefetch_fills - m0
            for lv, m0 in zip(self.levels, miss0)
        }
        latencies = self.config.latency.sample(sample_src, self._rng)
        return PatternResult(
            count=n,
            level_misses=level_misses,
            source_counts=source_counts,
            sample_sources=sample_src,
            sample_latencies=latencies,
            tlb_misses=tlb_misses,
            dram_lines=dram_lines,
            writeback_lines=writeback_lines,
        )

    # ------------------------------------------------------------------
    def _run_block(self, run_lines: np.ndarray, store: bool):
        """Cascade one block of collapsed line runs through the levels.

        Returns ``(run_src, dram_lines, writeback_lines)`` where
        ``run_src[i]`` is the DataSource code that served run *i*.
        """
        nruns = int(run_lines.size)
        n_levels = len(self.levels)
        degree = self.prefetcher.degree if self.prefetcher is not None else 0
        # Per-access event slots: demand, then the prefetch candidates,
        # then the store dirty-mark — globally ordered sequence numbers.
        # nruns <= _BLOCK, so every sequence number fits int32 and the
        # event sort below runs the fast 4-byte radix.
        stride = degree + 2
        dram = 0
        wb = 0
        run_src = np.full(nruns, int(DataSource.DRAM), dtype=np.int64)
        run_idx = np.arange(nruns, dtype=np.int32)

        # ---- level 0: every run, prefetches never fill L1 ------------
        lvl0 = self.levels[0]
        if n_levels == 1:
            # L1 is also the last level: stores dirty it, misses are DRAM
            # traffic and dirty evictions are writebacks.
            l1_hit, vd = lvl0.process(run_lines, dirty_const=store)
            run_src[l1_hit] = int(DataSource.L1)
            dram += int((~l1_hit).sum())
            wb += int(vd.sum())
            if self.prefetcher is not None:
                self.prefetcher.on_miss_batch(run_lines[~l1_hit])
            return run_src, dram, wb

        l1_hit, _ = lvl0.process(run_lines)
        run_src[l1_hit] = int(DataSource.L1)
        miss1 = run_idx[~l1_hit]

        lvl1 = self.levels[1]
        last_is_l2 = n_levels == 2
        store_l2 = store and last_is_l2
        demand_lines1 = run_lines[miss1]
        # Candidate slots form a uniform [misses, degree] grid when every
        # slot carries an event.  Invalid slots (no stream detected) can
        # be kept in the grid as the row's own demand line: the demand
        # immediately precedes it in its set (candidates land in other
        # sets while n_sets > degree), so the dummy collapses into the
        # demand's group as a guaranteed-hit prefetch — a no-op carrying
        # no fill, stat, promote or dirty effect.  The uniform grid makes
        # every merge position a reshape instead of a sort or search.
        uniform = False
        if self.prefetcher is not None:
            cand, cand_valid = self.prefetcher.on_miss_batch(demand_lines1)
            uniform = not store_l2 and lvl1.config.n_sets > degree
            if uniform:
                cand_grid = np.where(cand_valid, cand, demand_lines1[:, None])
                cand_flat = cand_seq = None
            else:
                cand_flat = np.nonzero(cand_valid.ravel())[0].astype(np.int32)
                cand_lines = cand.ravel()[cand_flat]
                cand_seq = (
                    miss1[:, None] * stride + 1 + np.arange(degree, dtype=np.int32)
                ).ravel()[cand_flat]
        else:
            cand_flat = np.empty(0, dtype=np.int32)
            cand_lines = np.empty(0, dtype=np.int64)
            cand_seq = np.empty(0, dtype=np.int32)

        # ---- level 1: L1 misses + prefetch candidates ----------------
        miss2, pf_keep, vd_total2, vd_pf2 = self._level_events(
            level=lvl1,
            demand_runs=miss1,
            demand_lines=demand_lines1,
            pf_lines=cand_grid if uniform else cand_lines,
            pf_seq=cand_seq,
            stride=stride,
            degree=degree,
            run_lines=run_lines,
            nruns=nruns,
            store_here=store_l2,
            hit_code=int(DataSource.L2),
            run_src=run_src,
            pf_uniform=degree if uniform else None,
        )
        if last_is_l2:
            dram += int(miss2.size)
            # Demand fills and dirty repairs go through _fill_last and
            # account writebacks; a prefetch fill into a 2-level last
            # cache uses plain fill() and does not (hierarchy.py).
            wb += vd_total2 - vd_pf2
            return run_src, dram, wb

        # ---- level 2: L2 misses + prefetches that filled L2 ----------
        lvl2 = self.levels[2]
        if uniform:
            # pf_keep marks real fills only (dummies always hit).
            pf_filled = np.nonzero(pf_keep)[0].astype(np.int32)
            cand_lines3 = cand_grid.ravel()[pf_filled]
        else:
            pf_filled = cand_flat[pf_keep]
            cand_lines3 = cand_lines[pf_keep]
        pf_runs = miss1[pf_filled // degree] if pf_filled.size else pf_filled
        pf_seq3 = (
            pf_runs * stride + 1 + pf_filled % degree
            if pf_filled.size
            else pf_filled
        )
        miss3, pf_keep3, vd_total3, _ = self._level_events(
            level=lvl2,
            demand_runs=miss2,
            demand_lines=run_lines[miss2],
            pf_lines=cand_lines3,
            pf_seq=pf_seq3,
            stride=stride,
            degree=degree,
            run_lines=run_lines,
            nruns=nruns,
            store_here=store,
            hit_code=int(DataSource.L3),
            run_src=run_src,
        )
        # Demand full misses and prefetch fills into the (3-level) last
        # cache are DRAM line transfers; every last-level fill may write
        # back a dirty victim.
        dram += int(miss3.size) + int(np.count_nonzero(pf_keep3))
        wb += vd_total3
        return run_src, dram, wb

    def _level_events(
        self,
        level: _SetArrayCache,
        demand_runs: np.ndarray,
        demand_lines: np.ndarray,
        pf_lines: np.ndarray,
        pf_seq: np.ndarray,
        stride: int,
        degree: int,
        run_lines: np.ndarray,
        nruns: int,
        store_here: bool,
        hit_code: int,
        run_src: np.ndarray,
        pf_uniform: int | None = None,
    ):
        """Assemble, order and replay one level's event batch.

        Scatters ``hit_code`` into ``run_src`` for demand hits and
        returns ``(missed_runs, pf_keep, vd_total, vd_pf)``: the demand
        runs that missed here (ascending), the boolean mask over the pf
        part marking candidates that filled this level, and the dirty
        victim counts of all / of prefetch-caused fills.

        With ``pf_uniform=k``, ``pf_lines`` is a dense ``[nd, k]`` grid —
        every demand carries exactly *k* candidate events right after it
        (dummy slots hold the demand's own line; see ``_run_block``).
        The event order is then ``[demand, k candidates] * nd`` and all
        merge positions are reshapes instead of sorts or searches.
        """
        dirty_fold = store_here and (degree == 0 or level.config.n_sets > degree)
        nd = demand_runs.size
        npf = pf_lines.size
        if not store_here and npf == 0:
            # Demand events only, already in sequence order.
            hit, victim_dirty = level.process(demand_lines)
            run_src[demand_runs[hit]] = hit_code
            return (
                demand_runs[~hit],
                np.empty(0, dtype=bool),
                int(victim_dirty.sum()),
                0,
            )
        if pf_uniform is not None:
            step = pf_uniform + 1
            n_ev = nd * step
            ev_lines = np.empty(n_ev, dtype=np.int64)
            grid = ev_lines.reshape(nd, step)
            grid[:, 0] = demand_lines
            grid[:, 1:] = pf_lines
            ev_kinds = np.empty(n_ev, dtype=np.uint8)
            kgrid = ev_kinds.reshape(nd, step)
            kgrid[:, 0] = _DEMAND
            kgrid[:, 1:] = _PF
            hit, victim_dirty = level.process(ev_lines, ev_kinds)
            h = hit.reshape(nd, step)
            d_hit = h[:, 0]
            run_src[demand_runs[d_hit]] = hit_code
            missed_runs = demand_runs[~d_hit]
            pf_keep = ~h[:, 1:].ravel()
            vd = victim_dirty.reshape(nd, step)
            vd_pf = int(vd[:, 1:].sum())
            vd_total = vd_pf + int(vd[:, 0].sum())
            return missed_runs, pf_keep, vd_total, vd_pf
        if not store_here:
            # Demand and prefetch sequence ids are each strictly
            # ascending and disjoint (distinct per-access slots), so the
            # ordered event batch is a two-way merge: the final position
            # of an element is its own rank plus the count of
            # other-stream elements preceding it.  Cheaper than a radix
            # argsort and yields the part positions directly.
            demand_seq = demand_runs * stride
            d_pos = np.searchsorted(pf_seq, demand_seq) + _iota(nd)
            pf_pos = np.searchsorted(demand_seq, pf_seq) + _iota(npf)
            n_ev = nd + npf
            ev_lines = np.empty(n_ev, dtype=np.int64)
            ev_lines[d_pos] = demand_lines
            ev_lines[pf_pos] = pf_lines
            ev_kinds = np.empty(n_ev, dtype=np.uint8)
            ev_kinds[d_pos] = _DEMAND
            ev_kinds[pf_pos] = _PF
            hit, victim_dirty = level.process(ev_lines, ev_kinds)
        else:
            parts_lines = [demand_lines, pf_lines]
            parts_seq = [demand_runs * stride, pf_seq]
            demand_kind = _DEMAND_DIRTY if dirty_fold else _DEMAND
            parts_kinds = [
                np.full(nd, demand_kind, dtype=np.uint8),
                np.full(npf, _PF, dtype=np.uint8),
            ]
            # Dirty-mark every access that carries no demand event here
            # (folded into _DEMAND_DIRTY above when prefetch candidates
            # cannot alias the access's own set, i.e. n_sets > degree;
            # emitted as separate trailing events otherwise).
            dirty_mask = np.ones(nruns, dtype=bool)
            if dirty_fold:
                dirty_mask[demand_runs] = False
            dirty_runs = np.nonzero(dirty_mask)[0].astype(np.int32)
            parts_lines.append(run_lines[dirty_runs])
            parts_seq.append(dirty_runs * stride + degree + 1)
            parts_kinds.append(np.full(dirty_runs.size, _DIRTY, dtype=np.uint8))
            ev_lines = np.concatenate(parts_lines)
            ev_seq = np.concatenate(parts_seq)
            ev_kinds = np.concatenate(parts_kinds)
            n_ev = ev_lines.size
            # Sequence numbers are < nruns * stride, comfortably int32
            # (callers build them that way), and the 4-byte radix sort
            # is twice as fast as the 8-byte one.
            order = np.argsort(ev_seq, kind="stable")
            hit, victim_dirty = level.process(ev_lines[order], ev_kinds[order])
            # inverse permutation: where each part's events landed
            inv = np.empty(n_ev, dtype=np.int64)
            inv[order] = _iota(n_ev)
            d_pos = inv[:nd]
            pf_pos = inv[nd : nd + npf]
        d_hit = hit[d_pos]
        run_src[demand_runs[d_hit]] = hit_code
        missed_runs = demand_runs[~d_hit]
        pf_keep = ~hit[pf_pos]
        vd_total = int(victim_dirty.sum())
        vd_pf = int(victim_dirty[pf_pos].sum()) if npf else 0
        return missed_runs, pf_keep, vd_total, vd_pf

    def flush(self) -> None:
        """Invalidate caches and TLB (prefetch history is kept, like the
        precise hierarchy's flush)."""
        for lv in self.levels:
            lv.flush()
        if self.tlb is not None:
            self.tlb.flush()

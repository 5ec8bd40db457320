"""Rank-set simulation: one session per simulated MPI rank.

The scale-out rank pipeline.  Running *n* ranks used to mean pickling
each rank's full :class:`~repro.pipeline.Session` + consolidated
:class:`~repro.extrae.trace.Trace` back through the process pool and
holding every rank's sample table in the parent simultaneously —
hundreds of MB of IPC and O(n_ranks) parent memory.  Now each worker
**spills** its finished trace as a v2 ``compression="none"`` container
(the zero-copy format of :mod:`repro.extrae.storage`) into a run-scoped
spill directory and returns a few-hundred-byte :class:`RankSummary`;
the parent memory-maps traces lazily on first access
(:attr:`RankResult.trace`), so peak parent memory is O(one rank) no
matter how many ranks ran.

Scheduling is streaming: :meth:`RankSet.stream` yields ranks as they
complete (or in rank order), supports ``max_workers < n_ranks``
oversubscription, a ``progress`` callback, and a per-rank in-process
retry when a pool worker dies mid-run.  The serial in-process path
remains available (one worker, an unpicklable factory, or an
unspawnable pool) and is bit-identical: both paths run the same
:func:`_run_rank` with the same derived per-rank seed, and a spilled
trace round-trips with its content digest unchanged.  Whenever a pool
fallback happens, the reason lands on :attr:`RankSet.last_fallback_reason`
and in the ``repro.parallel`` log.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.extrae.trace import Trace
from repro.pipeline import Session, SessionConfig
from repro.workloads.base import Workload

__all__ = ["RankResult", "RankSet", "RankSummary", "derive_rank_config"]

logger = logging.getLogger("repro.parallel")

#: Filename of one rank's spilled trace inside the spill directory.
SPILL_PATTERN = "rank{rank:05d}.bsctrace"


def derive_rank_config(config: SessionConfig, rank: int) -> SessionConfig:
    """The per-rank session configuration (seed-derived ASLR etc.).

    One definition shared by the pooled and serial paths, so a rank is
    bit-identical whichever path ran it.
    """
    return config.with_seed(config.seed * 1009 + rank + 1)


@dataclass(frozen=True)
class RankSummary:
    """The small picklable record a worker returns for one rank.

    This — not the live session or trace — is what crosses the process
    boundary: a few hundred bytes regardless of trace size.
    """

    rank: int
    n_ranks: int
    #: the rank's derived session configuration (carries the seed)
    config: SessionConfig
    n_samples: int
    n_events: int
    n_objects: int
    duration_ns: float
    #: content digest of the finished trace (hex SHA-256)
    digest: str
    #: spill file holding the trace, or ``None`` for in-memory results
    path: str | None

    @property
    def seed(self) -> int:
        return self.config.seed


class RankResult:
    """One rank's result: summary plus a lazily materialized trace.

    In the pooled path the trace lives in the spill file until first
    access; ``result.trace`` then memory-maps it (v2 ``none``
    container), and repeated access returns the cached object.  In the
    serial in-memory path the trace is attached directly.
    """

    def __init__(self, summary: RankSummary, trace: Trace | None = None) -> None:
        self.summary = summary
        self._trace = trace

    @property
    def rank(self) -> int:
        return self.summary.rank

    @property
    def trace(self) -> Trace:
        """The rank's finalized trace (loaded from spill on demand)."""
        if self._trace is None:
            if self.summary.path is None:
                raise RuntimeError(
                    f"rank {self.rank} has neither an in-memory trace nor "
                    f"a spill path"
                )
            self._trace = Trace.load(self.summary.path)
        return self._trace

    @property
    def trace_loaded(self) -> bool:
        """Whether the trace has been materialized in this process."""
        return self._trace is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.summary.path or "in-memory"
        return (
            f"RankResult(rank={self.rank}, n_samples={self.summary.n_samples}, "
            f"trace={where})"
        )


def _pickled_or_none(obj) -> bytes | None:
    """*obj* pickled once, or ``None`` when it cannot be (lambdas,
    closures).  The bytes are reused for every pool submission, so the
    probe is also the payload — nothing is pickled twice."""
    try:
        return pickle.dumps(obj)
    except Exception:
        return None


def _run_rank(
    rank: int,
    n_ranks: int,
    config: SessionConfig,
    workload_factory: Callable[[int, int], Workload],
    spill_dir: str | None = None,
) -> RankResult:
    """Build and run one rank's session (top-level for picklability).

    With *spill_dir* the finished trace is saved as a v2 uncompressed
    container and the result carries only the summary; without it the
    trace stays attached in memory.
    """
    derived = derive_rank_config(config, rank)
    session = Session(derived)
    workload = workload_factory(rank, n_ranks)
    trace = session.run(workload)
    trace.metadata["rank"] = rank
    trace.metadata["n_ranks"] = n_ranks
    path: str | None = None
    if spill_dir is not None:
        path = str(Path(spill_dir) / SPILL_PATTERN.format(rank=rank))
        trace.save(path, version=2, compression="none")
    summary = RankSummary(
        rank=rank,
        n_ranks=n_ranks,
        config=derived,
        n_samples=trace.n_samples,
        n_events=len(trace.events),
        n_objects=len(trace.objects),
        duration_ns=trace.duration_ns(),
        digest=trace.digest(),
        path=path,
    )
    return RankResult(summary, trace=None if path is not None else trace)


def _run_rank_pickled(
    rank: int,
    n_ranks: int,
    config: SessionConfig,
    factory_bytes: bytes,
    spill_dir: str,
) -> RankResult:
    """Pool entry point: the factory arrives pre-pickled (exactly the
    bytes the parent's one-time probe produced)."""
    return _run_rank(
        rank, n_ranks, config, pickle.loads(factory_bytes), spill_dir
    )


class RankSet:
    """A 1-D stack of simulated ranks running the same local workload.

    Parameters
    ----------
    n_ranks:
        Number of ranks in the z-stack.
    config:
        Base session configuration; each rank derives its own seed from
        it (so ASLR differs per rank, like real processes).
    max_workers:
        Worker processes for :meth:`run`/:meth:`stream`.  ``None``
        picks ``min(n_ranks, cpu_count)``; ``1`` forces the serial
        path; values below ``n_ranks`` oversubscribe (ranks queue and
        run as workers free up).

    Attributes
    ----------
    last_fallback_reason:
        Why the most recent :meth:`run`/:meth:`stream` left the pool
        path (``None`` when the pool ran to completion or was never
        attempted because ``max_workers`` resolved to 1).
    spill_dir:
        The run-scoped spill directory of the most recent pooled run
        (``None`` for purely in-memory runs).
    """

    def __init__(
        self,
        n_ranks: int,
        config: SessionConfig | None = None,
        max_workers: int | None = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.n_ranks = n_ranks
        self.config = config or SessionConfig()
        self.max_workers = max_workers
        self.last_fallback_reason: str | None = None
        self.spill_dir: Path | None = None
        self._owns_spill = False

    def _resolve_workers(self) -> int:
        if self.max_workers is not None:
            return min(self.max_workers, self.n_ranks)
        return min(self.n_ranks, os.cpu_count() or 1)

    # -- spill lifecycle ----------------------------------------------------
    def _prepare_spill(self, spill_dir: str | Path | None) -> str:
        """Create the run-scoped spill directory.

        Always a fresh subdirectory (under *spill_dir* when given, the
        system temp dir otherwise) so :meth:`cleanup_spill` can remove
        it without touching anything the user put next to it.
        Auto-created temp directories are additionally removed at
        interpreter exit in case the caller never cleans up.
        """
        if spill_dir is not None:
            Path(spill_dir).mkdir(parents=True, exist_ok=True)
        path = tempfile.mkdtemp(
            prefix="repro-ranks-",
            dir=str(spill_dir) if spill_dir is not None else None,
        )
        if spill_dir is None:
            atexit.register(shutil.rmtree, path, ignore_errors=True)
        self.spill_dir = Path(path)
        self._owns_spill = True
        return path

    def cleanup_spill(self) -> bool:
        """Remove the run-scoped spill directory of the last run.

        Returns whether anything was removed.  Traces already
        materialized stay usable (they are memory-mapped copies only
        until touched — materialize or re-save first if you need them
        past cleanup); unmaterialized ones will no longer load.
        """
        if self.spill_dir is None or not self._owns_spill:
            return False
        removed = self.spill_dir.exists()
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.spill_dir = None
        self._owns_spill = False
        return removed

    def _fallback(self, reason: str) -> None:
        self.last_fallback_reason = reason
        logger.info("rank pool fallback: %s", reason)

    # -- execution ----------------------------------------------------------
    def stream(
        self,
        workload_factory: Callable[[int, int], Workload],
        *,
        spill_dir: str | Path | None = None,
        ordered: bool = False,
        progress: Callable[[int, int, RankSummary], None] | None = None,
    ) -> Iterator[RankResult]:
        """Run every rank, yielding results as a stream.

        With more than one worker, ranks execute in a process pool,
        each worker spills its trace to the run-scoped directory, and
        only :class:`RankSummary` records cross the pipe — the parent
        holds at most the one rank's samples it is currently looking
        at.  ``ordered=False`` (default) yields in completion order;
        ``ordered=True`` buffers summaries (not traces — buffering is
        cheap) to yield in rank order.

        A rank whose pool worker dies (``BrokenProcessPool``) is
        retried once, in-process; any other pool-level failure falls
        back to the serial path for the remaining ranks.  Serial
        execution spills only when *spill_dir* is given explicitly.

        ``progress(done, total, summary)`` is called as each rank
        finishes, regardless of path.
        """
        self.last_fallback_reason = None
        total = self.n_ranks
        done = 0

        def advance(result: RankResult) -> RankResult:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total, result.summary)
            return result

        workers = self._resolve_workers()
        factory_bytes = None
        if workers > 1 and total > 1:
            factory_bytes = _pickled_or_none(workload_factory)
            if factory_bytes is None:
                self._fallback(
                    "workload factory is not picklable (lambda/closure?)"
                )
        if factory_bytes is not None:
            # Pool creation and submission happen before the first
            # yield, so falling back here never duplicates a rank the
            # caller already received.
            pooled = None
            try:
                pooled = self._submit_all(workers, factory_bytes, spill_dir)
            except (pickle.PicklingError, BrokenProcessPool, OSError) as exc:
                # Pool never became usable (e.g. a sandbox forbids
                # spawning processes): redo everything serially.
                self._fallback(
                    f"process pool unavailable ({type(exc).__name__}: {exc})"
                )
            if pooled is not None:
                pool, futures, spill = pooled
                try:
                    yield from self._harvest(
                        pool, futures, spill, workload_factory, ordered,
                        advance,
                    )
                finally:
                    pool.shutdown(wait=True, cancel_futures=True)
                return
        serial_spill = (
            self._prepare_spill(spill_dir) if spill_dir is not None else None
        )
        for rank in range(total):
            yield advance(
                _run_rank(
                    rank, total, self.config, workload_factory, serial_spill
                )
            )

    def _submit_all(
        self,
        workers: int,
        factory_bytes: bytes,
        spill_dir: str | Path | None,
    ):
        """Spawn the pool and submit every rank (raises on failure)."""
        spill = self._prepare_spill(spill_dir)
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(
                    _run_rank_pickled, rank, self.n_ranks, self.config,
                    factory_bytes, spill,
                ): rank
                for rank in range(self.n_ranks)
            }
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        return pool, futures, spill

    def _harvest(
        self,
        pool: ProcessPoolExecutor,
        futures: dict,
        spill: str,
        workload_factory: Callable[[int, int], Workload],
        ordered: bool,
        advance: Callable[[RankResult], RankResult],
    ) -> Iterator[RankResult]:
        """Yield results ``as_completed``, retrying dead-worker ranks."""
        held: dict[int, RankResult] = {}
        next_rank = 0
        for future in as_completed(futures):
            rank = futures[future]
            try:
                result = future.result()
            except BrokenProcessPool:
                # The worker died mid-run (OOM kill, crash).  Retry
                # this rank once, in-process — same _run_rank, same
                # derived seed, so the result is identical to what
                # the worker would have produced.
                self._fallback(
                    f"pool worker died running rank {rank}; retried "
                    f"in-process"
                )
                result = _run_rank(
                    rank, self.n_ranks, self.config, workload_factory, spill
                )
            if not ordered:
                yield advance(result)
                continue
            held[rank] = result
            while next_rank in held:
                yield advance(held.pop(next_rank))
                next_rank += 1

    def run(
        self,
        workload_factory: Callable[[int, int], Workload],
        *,
        spill_dir: str | Path | None = None,
        progress: Callable[[int, int, RankSummary], None] | None = None,
    ) -> list[RankResult]:
        """Run ``workload_factory(rank, n_ranks)`` on every rank.

        Results come back in rank order and are bit-identical between
        the pooled and serial paths (asserted by the test suite on
        trace digests).  Traces of pooled runs are lazy — accessing
        ``result.trace`` memory-maps the rank's spill file; iterate
        :meth:`stream` instead if you want to bound parent memory to
        one rank at a time.
        """
        return list(
            self.stream(
                workload_factory, spill_dir=spill_dir, ordered=True,
                progress=progress,
            )
        )

"""Parameter sweeps over the folding fast path.

Folding a trace at many (grid, bandwidth) points — e.g. the kernel
ablation in :mod:`benchmarks` or a seed-stability study — shares the
expensive trace-dependent work: :func:`fold_sweep` builds one
:class:`~repro.folding.plan.FoldPlan` and folds every point against it
in-process (a process pool ran at 0.12–0.19x of this loop on 2 cores,
for 10 bandwidths on a 60k-sample trace).
:func:`seed_sweep` runs a workload at several seeds and folds each
resulting trace; each seed is a whole simulation, so seeds run in a
process pool.

:func:`seed_sweep` reuses the serial-fallback discipline of
:class:`~repro.parallel.ranks.RankSet`: one worker, an unpicklable
factory, or a sandbox that cannot spawn processes all fall back to a
sequential in-process loop producing bit-identical results, and the
fallback reason is logged on the ``repro.parallel`` logger.  The
factory is pickled exactly once — the picklability probe's output *is*
the payload the workers receive.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.extrae.trace import Trace
from repro.folding.plan import FoldPlan
from repro.folding.report import FoldedReport
from repro.parallel.ranks import _pickled_or_none, logger
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.base import Workload

__all__ = ["SweepPoint", "SweepResult", "SeedResult", "fold_sweep", "seed_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One (grid_points, bandwidth) fold-parameter combination."""

    grid_points: int
    bandwidth: float


@dataclass
class SweepResult:
    """A folded report at one sweep point."""

    point: SweepPoint
    report: FoldedReport


@dataclass
class SeedResult:
    """One seed's trace and folded report."""

    seed: int
    report: FoldedReport


def fold_sweep(
    trace: Trace,
    bandwidths: Sequence[float] = (0.015,),
    grid_points: Sequence[int] = (201,),
    prune_tolerance: float | None = 0.5,
    align_regions: tuple[str, ...] | None = None,
) -> list[SweepResult]:
    """Fold *trace* at every (grid, bandwidth) combination.

    Points are the cross product ``grid_points × bandwidths`` in that
    nesting order, and results come back in point order, all folded
    against one :class:`~repro.folding.plan.FoldPlan` of *trace*.
    """
    points = [
        SweepPoint(grid_points=g, bandwidth=b)
        for g in grid_points
        for b in bandwidths
    ]
    if not points:
        return []
    plan = FoldPlan.from_trace(
        trace, prune_tolerance=prune_tolerance, align_regions=align_regions
    )
    return [
        SweepResult(
            p, plan.fold(grid_points=p.grid_points, bandwidth=p.bandwidth)
        )
        for p in points
    ]


def _run_seed(
    seed: int,
    config: SessionConfig,
    workload_factory: Callable[[], Workload],
    grid_points: int,
    bandwidth: float,
) -> SeedResult:
    """Run and fold one seed (top-level for picklability)."""
    trace = run_workload(workload_factory(), config.with_seed(seed))
    plan = FoldPlan.from_trace(trace)
    return SeedResult(
        seed=seed, report=plan.fold(grid_points=grid_points, bandwidth=bandwidth)
    )


def _run_seed_pickled(
    seed: int,
    config: SessionConfig,
    factory_bytes: bytes,
    grid_points: int,
    bandwidth: float,
) -> SeedResult:
    """Pool entry point: the factory arrives pre-pickled."""
    return _run_seed(
        seed, config, pickle.loads(factory_bytes), grid_points, bandwidth
    )


def seed_sweep(
    workload_factory: Callable[[], Workload],
    seeds: Sequence[int],
    config: SessionConfig | None = None,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    max_workers: int | None = None,
) -> list[SeedResult]:
    """Run ``workload_factory()`` at every seed and fold each trace.

    The workhorse of seed-stability studies: how much do folded curves
    move under ASLR/sampling randomization alone?  Each seed is a full
    independent simulation, so seeds execute in a process pool when
    available (results in seed order, bit-identical to serial); the
    factory must be a picklable top-level callable for the pool path
    and is pickled exactly once.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    config = config or SessionConfig()
    seeds = list(seeds)
    if not seeds:
        return []
    workers = (
        min(max_workers, len(seeds))
        if max_workers is not None
        else min(len(seeds), os.cpu_count() or 1)
    )
    if workers > 1 and len(seeds) > 1:
        factory_bytes = _pickled_or_none(workload_factory)
        if factory_bytes is None:
            logger.info("seed_sweep fallback: factory is not picklable")
        else:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(
                            _run_seed_pickled, seed, config, factory_bytes,
                            grid_points, bandwidth,
                        )
                        for seed in seeds
                    ]
                    return [f.result() for f in futures]
            except (pickle.PicklingError, BrokenProcessPool, OSError) as exc:
                logger.info(
                    "seed_sweep fallback: process pool unavailable "
                    "(%s: %s)", type(exc).__name__, exc,
                )
    return [
        _run_seed(seed, config, workload_factory, grid_points, bandwidth)
        for seed in seeds
    ]

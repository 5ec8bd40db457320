"""Hybrid-memory placement advisor.

The paper closes with: "the fact that a portion of the address space is
only read during the execution phase means that this region might
benefit from memory technologies where loads are faster than stores"
(pointing at read-asymmetric technologies and the explicitly-managed
multi-memory systems of Peña & Balaji, refs [2]/[6]).

This module turns that observation into a tool: given a folded report
and a model of a two-tier memory system, classify every data object by
its sampled access mix (read-only / read-mostly / read-write, hot /
cold) and recommend a placement, with a first-order estimate of the
memory-time change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.memalloc import ObjectRecord
from repro.extrae.schema import MemOp
from repro.folding.report import FoldedReport
from repro.util.tables import format_table

__all__ = ["HybridMemoryModel", "PlacementAdvice", "PlacementPlan", "advise_placement"]


@dataclass(frozen=True)
class HybridMemoryModel:
    """A two-tier memory: default DRAM plus an alternative technology.

    The defaults describe a read-asymmetric class of memory (e.g. a
    denser NVM-like tier): loads cost about the same as DRAM, stores
    are several times more expensive, capacity is large.  Setting
    ``load_factor < 1`` instead models a faster-read tier (e.g. on-
    package memory used read-only).

    Factors are relative to DRAM access cost.
    """

    name: str = "read-optimized tier"
    load_factor: float = 0.7
    store_factor: float = 2.0
    capacity_bytes: int = 1 << 40

    def __post_init__(self) -> None:
        if self.load_factor <= 0 or self.store_factor <= 0:
            raise ValueError("cost factors must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")


@dataclass
class PlacementAdvice:
    """Recommendation for one data object."""

    record: ObjectRecord
    classification: str  # "read-only" | "read-mostly" | "read-write"
    n_loads: int
    n_stores: int
    recommend_move: bool
    #: estimated relative change of this object's memory time when
    #: moved (negative = improvement)
    delta: float

    @property
    def name(self) -> str:
        return self.record.name


@dataclass
class PlacementPlan:
    """The advisor's full output."""

    model: HybridMemoryModel
    advice: list[PlacementAdvice] = field(default_factory=list)

    def moved(self) -> list[PlacementAdvice]:
        return [a for a in self.advice if a.recommend_move]

    def moved_bytes(self) -> int:
        return sum(a.record.bytes_user for a in self.moved())

    def total_delta(self) -> float:
        """Traffic-weighted relative memory-time change of the plan."""
        total = sum(a.n_loads + a.n_stores for a in self.advice)
        if total == 0:
            return 0.0
        moved = sum(
            (a.n_loads + a.n_stores) * a.delta for a in self.advice if a.recommend_move
        )
        return moved / total

    def to_table(self, top: int = 10) -> str:
        ranked = sorted(
            self.advice, key=lambda a: a.n_loads + a.n_stores, reverse=True
        )[:top]
        rows = [
            (
                a.name,
                a.record.bytes_user / 1e6,
                a.classification,
                a.n_loads,
                a.n_stores,
                "move" if a.recommend_move else "keep",
                a.delta * 100.0,
            )
            for a in ranked
        ]
        return format_table(
            ["object", "MB", "class", "loads", "stores", "advice", "delta %"],
            rows,
            title=f"Hybrid-memory placement ({self.model.name})",
        )


def advise_placement(
    report: FoldedReport,
    model: HybridMemoryModel | None = None,
    read_mostly_threshold: float = 0.05,
    min_samples: int = 20,
) -> PlacementPlan:
    """Classify objects and recommend hybrid-memory placement.

    An object moves to the alternative tier when its sampled store
    share is small enough that the modeled load gain outweighs the
    store penalty, subject to the tier's capacity (greedy by benefit).

    Parameters
    ----------
    report:
        Folded report over the *execution phase* (setup writes are
        already excluded by the folding instances).
    read_mostly_threshold:
        Store share below which an object counts as read-mostly.
    """
    model = model or HybridMemoryModel()
    a = report.addresses
    plan = PlacementPlan(model=model)

    candidates: list[PlacementAdvice] = []
    for idx in np.unique(a.object_index):
        if idx < 0:
            continue
        mask = a.object_index == idx
        if int(mask.sum()) < min_samples:
            continue
        record = report.registry.records[int(idx)]
        loads = int((a.op[mask] == int(MemOp.LOAD)).sum())
        stores = int((a.op[mask] == int(MemOp.STORE)).sum())
        total = loads + stores
        store_share = stores / total
        if stores == 0:
            classification = "read-only"
        elif store_share <= read_mostly_threshold:
            classification = "read-mostly"
        else:
            classification = "read-write"
        # First-order relative change of the object's memory time.
        delta = (
            (loads * model.load_factor + stores * model.store_factor) / total
        ) - 1.0
        advice = PlacementAdvice(
            record=record,
            classification=classification,
            n_loads=loads,
            n_stores=stores,
            recommend_move=False,
            delta=delta,
        )
        candidates.append(advice)

    # Greedy: best (most negative) delta first, within capacity.
    budget = model.capacity_bytes
    for advice in sorted(candidates, key=lambda x: x.delta):
        if advice.delta < 0 and advice.record.bytes_user <= budget:
            advice.recommend_move = True
            budget -= advice.record.bytes_user
    plan.advice = sorted(candidates, key=lambda x: x.delta)
    return plan

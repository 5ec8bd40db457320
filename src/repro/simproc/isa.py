"""Kernel-batch descriptors: the unit of work the machine executes.

A workload is a sequence of :class:`KernelBatch` objects.  Each batch
bundles the access patterns a code region performs with the instruction
mix executed around them and the memory-level parallelism the region can
sustain.  Batches carry a source-code location so the folded report can
draw its code-line panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extrae.schema import MemOp
from repro.memsim.patterns import AccessPattern
from repro.vmem.callstack import Frame

__all__ = ["KernelBatch"]


@dataclass(frozen=True)
class KernelBatch:
    """One region's worth of work.

    Parameters
    ----------
    label:
        Kernel/phase label (``"symgs_forward"``, ``"spmv"``, ...); used
        for phase segmentation and per-kernel MLP lookup.
    patterns:
        The access patterns executed (conceptually interleaved) by this
        region.
    instructions:
        Total retired instructions for the region, memory operations
        included.
    branches:
        Retired branch instructions.
    mlp:
        Sustained memory-level parallelism: how many outstanding line
        fetches overlap.  See :mod:`repro.simproc.calibration`.
    source:
        Source location of the region's hot loop (code-line panel).
    flops:
        Floating-point operations (reporting only).
    """

    label: str
    patterns: tuple[AccessPattern, ...]
    instructions: int
    branches: int = 0
    mlp: float = 6.0
    source: Frame | None = None
    flops: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.patterns, tuple):
            object.__setattr__(self, "patterns", tuple(self.patterns))
        if self.instructions < self.memory_accesses:
            raise ValueError(
                f"batch {self.label!r}: {self.instructions} instructions cannot "
                f"cover {self.memory_accesses} memory accesses"
            )
        if self.branches < 0 or self.branches > self.instructions:
            raise ValueError(f"batch {self.label!r}: invalid branch count")
        if self.mlp <= 0:
            raise ValueError(f"batch {self.label!r}: mlp must be positive")

    @property
    def memory_accesses(self) -> int:
        return sum(p.count for p in self.patterns)

    @property
    def loads(self) -> int:
        return sum(p.count for p in self.patterns if p.op == MemOp.LOAD)

    @property
    def stores(self) -> int:
        return sum(p.count for p in self.patterns if p.op == MemOp.STORE)

    def scaled(self, factor: float) -> "KernelBatch":
        """A copy with instruction/branch counts scaled (for calibration
        sweeps); access patterns are untouched."""
        return KernelBatch(
            label=self.label,
            patterns=self.patterns,
            instructions=max(self.memory_accesses, int(self.instructions * factor)),
            branches=int(self.branches * factor),
            mlp=self.mlp,
            source=self.source,
            flops=self.flops,
        )

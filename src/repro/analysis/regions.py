"""Per-region progression reports.

§II of the paper: the integration helps "the exploration of the
application performance, its progression on code regions and their
access to the address space".  Beyond the single folded iteration,
this module folds *each instrumented region over its own occurrences*
and summarizes, per region: achieved MIPS, miss rates, the address
footprint touched, the load/store mix and the sweep direction — the
per-code-region progression table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sweeps import detect_sweeps, split_address_bands
from repro.extrae.schema import MemOp
from repro.extrae.trace import Trace
from repro.folding.address import fold_addresses
from repro.folding.detect import instances_from_regions
from repro.folding.fold import fold_samples
from repro.folding.model import fold_counters
from repro.objects.registry import DataObjectRegistry
from repro.util.tables import format_table

__all__ = ["RegionProgress", "RegionReport", "region_progress"]


@dataclass(frozen=True)
class RegionProgress:
    """One region's folded summary across its occurrences."""

    name: str
    occurrences: int
    mean_duration_ns: float
    n_samples: int
    mips_mean: float
    l3_miss_per_instr: float
    footprint_bytes: int
    load_fraction: float
    dominant_direction: int  # +1 / -1 / 0

    @property
    def direction_name(self) -> str:
        return {1: "forward", -1: "backward", 0: "mixed"}[self.dominant_direction]


@dataclass
class RegionReport:
    """Progression across all analysed regions."""

    regions: list[RegionProgress] = field(default_factory=list)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def region(self, name: str) -> RegionProgress:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(f"no region named {name!r}")

    def to_table(self) -> str:
        rows = [
            (
                r.name,
                r.occurrences,
                r.mean_duration_ns / 1e6,
                r.mips_mean,
                r.l3_miss_per_instr,
                r.footprint_bytes / 1e6,
                r.load_fraction * 100.0,
                r.direction_name,
            )
            for r in self.regions
        ]
        return format_table(
            ["region", "occurrences", "mean ms", "MIPS", "L3 miss/instr",
             "footprint MB", "loads %", "sweep"],
            rows, floatfmt=",.3f",
            title="Progression on code regions",
        )


def region_progress(
    trace: Trace,
    regions: tuple[str, ...] = (
        "ComputeSYMGS_ref",
        "ComputeSPMV_ref",
        "ComputeDotProduct_ref",
        "ComputeWAXPBY_ref",
    ),
    registry: DataObjectRegistry | None = None,
    min_samples: int = 10,
) -> RegionReport:
    """Fold each region over its own occurrences and summarize it.

    Regions with fewer than *min_samples* folded samples are skipped
    (their occurrences are too short for the sampling period).
    """
    registry = registry if registry is not None else DataObjectRegistry(trace.objects)
    table = trace.sample_table()
    report = RegionReport()
    for name in regions:
        try:
            instances = instances_from_regions(trace, name)
        except ValueError:
            continue
        folded = fold_samples(table, instances)
        if folded.n < min_samples:
            continue
        counters = fold_counters(folded)
        addresses = fold_addresses(folded, registry)
        ops = folded.table.op
        loads = int((ops == int(MemOp.LOAD)).sum())
        addr = folded.table.address
        # Footprint: sampled pages touched (robust to the heap/mmap gap
        # a simple max-min span would swallow).
        pages = np.unique(addr >> np.uint64(12))
        footprint = int(pages.size) * 4096
        # Detect direction on the dominant address band: the raw
        # heap/mmap mixture drowns the correlation signal.  Coarse bins
        # keep the per-bin slope span large relative to the variance the
        # mixed MG levels contribute, and a low correlation floor is
        # fine for a direction *summary*.
        bands = split_address_bands(addresses)
        sweeps = (
            detect_sweeps(addresses, mask=bands[0], bins=8,
                          min_bin_samples=4, min_correlation=0.10)
            if bands
            else []
        )
        fwd = sum(s.n_samples for s in sweeps if s.direction == 1)
        bwd = sum(s.n_samples for s in sweeps if s.direction == -1)
        # A region is directional only when one direction dominates;
        # SYMGS (forward + backward sweeps folded together) is mixed.
        direction = 0
        if fwd + bwd > 0:
            minority = min(fwd, bwd) / max(fwd, bwd)
            if minority < 0.33:
                direction = 1 if fwd > bwd else -1
        report.regions.append(
            RegionProgress(
                name=name,
                occurrences=instances.n,
                mean_duration_ns=instances.mean_duration_ns,
                n_samples=folded.n,
                mips_mean=float(counters.mips().mean()),
                l3_miss_per_instr=float(
                    counters.per_instruction("l3_misses").mean()
                ),
                footprint_bytes=footprint,
                load_fraction=loads / folded.n,
                dominant_direction=direction,
            )
        )
    report.regions.sort(key=lambda r: r.mean_duration_ns * r.occurrences,
                        reverse=True)
    return report

"""The sample schema: what one recorded memory sample is.

Both sides of a trace know these names.  The simulator
(:mod:`repro.simproc`, :mod:`repro.memsim`) produces samples in this
form and the tracer records them; :class:`~repro.extrae.trace.Trace`,
folding, object resolution, the analyses and the service read them
back.  Keeping the schema here, with nothing but NumPy below it, lets
the reading side open and fold a trace without importing the
simulator — as in the paper, where Extrae writes traces and Folding
only reads them.

* :class:`MemOp` and :class:`DataSource` — the integer codes of the
  ``op`` and ``source`` sample columns (stable: they are on disk);
* :data:`SAMPLE_COUNTERS` — the cumulative hardware counters
  interpolated onto every sample, one float column each;
* :class:`SampleBlock` — the samples of one pattern of one batch, the
  unit the machine emits and :meth:`Trace.add_samples` records.

The old homes (:mod:`repro.memsim.patterns`,
:mod:`repro.memsim.datasource`, :mod:`repro.simproc.machine`)
re-export the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["DataSource", "MemOp", "SAMPLE_COUNTERS", "SampleBlock"]


class MemOp(IntEnum):
    """Memory operation kind; values are stable in serialized traces."""

    LOAD = 0
    STORE = 1


class DataSource(IntEnum):
    """Which part of the memory hierarchy served an access.

    The integer values are stable and appear in serialized traces; do
    not renumber.
    """

    L1 = 1
    #: Line-fill buffer: the line was already in flight (a prior miss to
    #: the same line had not completed).  PEBS reports these separately.
    LFB = 2
    L2 = 3
    L3 = 4
    DRAM = 5
    #: Data served from a remote socket's cache or memory, without
    #: distinguishing which.  Unused by the single-socket model but
    #: kept for trace-format completeness (legacy PEBS encoding).
    REMOTE = 6
    #: Served by the remote socket's last-level cache.  ARM SPE packet
    #: data sources distinguish remote cache from remote memory; the
    #: SPE backend's NUMA model emits these two codes.
    REMOTE_CACHE = 7
    #: Served by the remote socket's memory.
    REMOTE_DRAM = 8

    @property
    def pretty(self) -> str:
        return {
            DataSource.L1: "L1D",
            DataSource.LFB: "LFB",
            DataSource.L2: "L2",
            DataSource.L3: "L3",
            DataSource.DRAM: "DRAM",
            DataSource.REMOTE: "remote",
            DataSource.REMOTE_CACHE: "remote-cache",
            DataSource.REMOTE_DRAM: "remote-DRAM",
        }[self]

    @property
    def is_remote(self) -> bool:
        """Whether the access crossed the socket interconnect."""
        return self in (
            DataSource.REMOTE,
            DataSource.REMOTE_CACHE,
            DataSource.REMOTE_DRAM,
        )


#: Counter fields attached (interpolated) to every sample record.
SAMPLE_COUNTERS = (
    "instructions",
    "cycles",
    "branches",
    "l1d_misses",
    "l2_misses",
    "l3_misses",
    "flops",
    "dram_lines",
    "dram_writebacks",
)


@dataclass
class SampleBlock:
    """PEBS samples harvested from one pattern of one batch."""

    op: MemOp
    label: str
    offsets: np.ndarray
    addresses: np.ndarray
    sources: np.ndarray
    latencies: np.ndarray
    times_ns: np.ndarray
    counters: dict[str, np.ndarray]

    @property
    def n(self) -> int:
        return int(self.offsets.size)

    def select(self, mask: np.ndarray) -> "SampleBlock":
        """A copy with only the samples where *mask* is true."""
        return SampleBlock(
            op=self.op,
            label=self.label,
            offsets=self.offsets[mask],
            addresses=self.addresses[mask],
            sources=self.sources[mask],
            latencies=self.latencies[mask],
            times_ns=self.times_ns[mask],
            counters={k: v[mask] for k, v in self.counters.items()},
        )

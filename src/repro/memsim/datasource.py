"""Memory-hierarchy data sources and their access-cost model.

PEBS load-latency records carry a *data source* field (which structure
served the load) and the *access cost* in core cycles.  The simulator
reproduces both: the hierarchy engines classify each access into a
:class:`DataSource` and the :class:`LatencyModel` turns sources into
cycle costs, with optional jitter so latency histograms are not
degenerate spikes.

The default latencies approximate a Haswell-EP core (the Jureca nodes
used in the paper are dual Xeon E5-2680 v3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = ["DataSource", "LatencyModel"]


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


@dataclass(frozen=True)
class LatencyModel:
    """Cycle cost of an access by data source.

    Parameters
    ----------
    cycles:
        Mean access cost per source.
    jitter:
        Relative standard deviation of the (truncated normal) cost
        noise; 0 disables jitter.
    """

    cycles: dict[DataSource, float] = field(
        default_factory=lambda: {
            DataSource.L1: 4.0,
            DataSource.LFB: 9.0,
            DataSource.L2: 12.0,
            DataSource.L3: 38.0,
            DataSource.DRAM: 210.0,
            DataSource.REMOTE: 310.0,
            DataSource.REMOTE_CACHE: 95.0,
            DataSource.REMOTE_DRAM: 315.0,
        }
    )
    jitter: float = 0.10

    def __post_init__(self) -> None:
        # The source -> cycles lookup table, built once: ``sample`` runs
        # for every sampled pattern.  ``cycles`` is read here only.
        table = np.zeros(max(int(s) for s in DataSource) + 1, dtype=np.float64)
        for s, c in self.cycles.items():
            table[int(s)] = c
        object.__setattr__(self, "_table", table)

    def latency(self, source: DataSource) -> float:
        """Mean cost in cycles for *source*."""
        return self.cycles[source]

    def sample(
        self, sources: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Per-access cost in cycles for an array of source codes.

        Parameters
        ----------
        sources:
            Integer array of :class:`DataSource` values.
        rng:
            If given, apply multiplicative truncated-normal jitter.
        """
        lat = self._table[np.asarray(sources, dtype=np.int64)]
        if rng is not None and self.jitter > 0:
            noise = rng.normal(1.0, self.jitter, size=lat.shape)
            # Truncate so costs never drop below half the mean: hardware
            # latencies have a hard floor (pipeline depth).  The values
            # of np.clip(noise, 0.5, 2.0), at half its call overhead.
            np.maximum(noise, 0.5, out=noise)
            np.minimum(noise, 2.0, out=noise)
            lat = lat * noise
        return lat

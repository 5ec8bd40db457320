"""Memory-hierarchy data sources and their access-cost model.

PEBS load-latency records carry a *data source* field (which structure
served the load) and the *access cost* in core cycles.  The simulator
reproduces both: the hierarchy engines classify each access into a
:class:`DataSource` and the :class:`LatencyModel` turns sources into
cycle costs, with optional jitter so latency histograms are not
degenerate spikes.  :class:`DataSource` is part of the sample schema
(:mod:`repro.extrae.schema`) and is re-exported here.

The default latencies approximate a Haswell-EP core (the Jureca nodes
used in the paper are dual Xeon E5-2680 v3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extrae.schema import DataSource

__all__ = ["DataSource", "LatencyModel"]


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

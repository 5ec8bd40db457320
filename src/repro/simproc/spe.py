"""ARM SPE-like statistical profiling backend.

Models the contrasting sampling semantics of ARM's Statistical
Profiling Extension (SPE), as characterized in "Multi-level
Memory-Centric Profiling on ARM Processors with ARM SPE"
(arXiv 2410.01514), next to the paper's Intel PEBS facility:

* **One blind packet stream.**  An interval counter picks every Nth
  *operation* from the instruction stream regardless of kind — there
  are no per-event-kind counters to program or multiplex.  Loads and
  stores are captured natively from the same stream; packets of kinds
  the profiler did not ask for are discarded by the *software* packet
  filter, not suppressed in hardware.
* **Integer interval randomization.**  The sampling interval reload
  value is perturbed by a bounded random offset per sample (SPE
  randomizes low bits of the interval register), so gaps are integers
  drawn uniformly from ``period ± round(period * randomization)``.
* **Software latency post-filtering.**  SPE has no load-latency
  (``ldlat``-style) hardware threshold; every sampled packet records
  its total latency and a minimum-latency cut is applied when the
  packet stream is decoded.  The filter therefore applies to loads
  *and* stores alike.
* **Remote-access/NUMA data sources.**  SPE packet data-source codes
  distinguish accesses served by the remote socket's cache or memory.
  The backend models a first-touch-interleaved dual-socket machine: a
  deterministic per-cache-line hash homes a configurable fraction of
  lines remotely, rewriting their source to
  :class:`~repro.extrae.schema.DataSource.REMOTE_CACHE` /
  ``REMOTE_DRAM`` and scaling their latency by the configured
  remote-access penalty.

The backend emits the exact columnar trace schema the PEBS backend
does, so validation, ``TraceIndex``, folding (resident and streaming)
and the rank pipeline all run unchanged on SPE traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import DataSource, MemOp
from repro.simproc.sampler import Sampler

__all__ = ["SpeConfig", "SpeSampler", "line_home_hash"]

_SPLITMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_2 = np.uint64(0x94D049BB133111EB)


def line_home_hash(addresses: np.ndarray, line_size: int = 64) -> np.ndarray:
    """Deterministic 64-bit mix of each address's cache-line index.

    A splitmix64-style finalizer over ``address // line_size``: the
    same line always hashes the same way, so the NUMA homing decision
    is a pure function of the address — reproducible across runs and
    independent of sampling order (no RNG stream is consumed).
    """
    x = np.asarray(addresses, dtype=np.uint64) // np.uint64(line_size)
    x = (x ^ (x >> np.uint64(30))) * _SPLITMIX_1
    x = (x ^ (x >> np.uint64(27))) * _SPLITMIX_2
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class SpeConfig:
    """Configuration of the SPE-like packet stream.

    Parameters
    ----------
    period:
        Interval-counter reload value: mean number of operations (of
        any kind) between samples.
    randomization:
        Relative half-width of the integer interval jitter; each gap
        is drawn uniformly from the integers in
        ``period ± round(period * randomization)``.
    min_latency_cycles:
        Software packet post-filter: recorded packets cheaper than
        this are discarded at decode time (0 keeps everything).
        Applies to loads *and* stores — there is no hardware
        ``ldlat`` equivalent.
    sample_stores:
        Whether store packets survive the software packet filter
        (store sampling is native; disabling it discards store
        packets, it does not reprogram the stream).
    remote_fraction:
        Fraction of cache lines homed on the remote socket (0
        disables the NUMA model and the classification pass).
    remote_cache_scale / remote_dram_scale:
        Latency multiplier applied to accesses reclassified as served
        by the remote socket's LLC / memory.
    """

    period: int = 10_000
    randomization: float = 0.1
    min_latency_cycles: float = 0.0
    sample_stores: bool = True
    remote_fraction: float = 0.0
    remote_cache_scale: float = 2.5
    remote_dram_scale: float = 1.5

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0.0 <= self.randomization < 1.0:
            raise ValueError(
                f"randomization must be in [0, 1), got {self.randomization}"
            )
        if self.min_latency_cycles < 0:
            raise ValueError("minimum latency must be non-negative")
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ValueError(
                f"remote_fraction must be in [0, 1], got {self.remote_fraction}"
            )
        if self.remote_cache_scale < 1.0 or self.remote_dram_scale < 1.0:
            raise ValueError("remote latency scales must be >= 1")

    @property
    def jitter(self) -> int:
        """Half-width of the integer interval jitter, in operations."""
        return int(round(self.period * self.randomization))


class SpeSampler(Sampler):
    """Stateful SPE-like packet-stream generator.

    One shared integer countdown spans *all* operation kinds: the
    stream position advances whatever kind of operation passes, and
    sampled packets of unwanted kinds are discarded by the software
    filter (counted in :attr:`packets_discarded_kind`).

    Parameters
    ----------
    config:
        Packet-stream configuration.
    rng:
        Interval-randomization stream.
    """

    name = "spe"

    def __init__(
        self,
        config: SpeConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or SpeConfig()
        self._rng = rng or np.random.default_rng(0)
        self.post_classifies = self.config.remote_fraction > 0.0
        self.ops = frozenset(
            {MemOp.LOAD} | ({MemOp.STORE} if self.config.sample_stores else set())
        )
        #: operations (of any kind) until the next packet
        self._countdown: int = self._gap()
        self.samples_taken: dict[MemOp, int] = {op: 0 for op in MemOp}
        self.packets_generated = 0
        #: packets discarded by the software filter for their kind
        self.packets_discarded_kind = 0

    # ------------------------------------------------------------------
    def _bounds(self) -> tuple[int, int]:
        """Inclusive integer gap bounds ``[lo, hi]`` (both >= 1)."""
        j = self.config.jitter
        return max(self.config.period - j, 1), self.config.period + j

    def _gap(self) -> int:
        lo, hi = self._bounds()
        if lo == hi:
            return lo
        return int(self._rng.integers(lo, hi + 1))

    def take(self, op: MemOp, n_ops: int) -> np.ndarray:
        """Offsets of sampled operations among the next *n_ops*
        operations of kind *op*.

        Unsampled kinds still advance the shared stream position (the
        hardware samples blindly); their packets are discarded here,
        exactly like the software packet filter does.
        """
        if n_ops <= 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized emission, identical to the scalar loop
        #   while pos < n_ops: emit(pos); pos += gap()
        # Each round draws a conservative count of gaps guaranteed to
        # stay below n_ops (integers(lo, hi+1, k) consumes the stream
        # like k scalar draws); a scalar tail finishes near the edge.
        lo, hi = self._bounds()
        fixed = lo == hi
        parts: list[np.ndarray] = []
        pos = self._countdown
        while pos < n_ops:
            est = (n_ops - pos - 1) // hi
            if est <= 0:
                parts.append(np.array([pos], dtype=np.int64))
                pos += self._gap()
                continue
            if fixed:
                gaps = np.full(est, lo, dtype=np.int64)
            else:
                gaps = self._rng.integers(lo, hi + 1, size=est).astype(np.int64)
            positions = np.empty(est + 1, dtype=np.int64)
            positions[0] = pos
            np.cumsum(gaps, out=positions[1:])
            positions[1:] += pos
            parts.append(positions)
            pos = int(positions[-1]) + self._gap()
        self._countdown = pos - n_ops
        if not parts:
            return np.empty(0, dtype=np.int64)
        offsets = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.packets_generated += offsets.size
        if op not in self.ops:
            self.packets_discarded_kind += offsets.size
            return np.empty(0, dtype=np.int64)
        self.samples_taken[op] += offsets.size
        return offsets

    # ------------------------------------------------------------------
    def latency_filter(self, op: MemOp, latencies: np.ndarray) -> np.ndarray:
        """Software packet post-filter: keep packets at least
        ``min_latency_cycles`` costly, whatever their kind."""
        lat = np.asarray(latencies, dtype=np.float64)
        if self.config.min_latency_cycles <= 0:
            return np.ones(lat.shape, dtype=bool)
        return lat >= self.config.min_latency_cycles

    def classify(
        self,
        op: MemOp,
        addresses: np.ndarray,
        sources: np.ndarray,
        latencies: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """NUMA classification: rewrite remotely homed lines.

        Lines whose :func:`line_home_hash` falls below the configured
        ``remote_fraction`` are served by the remote socket — L3 hits
        become ``REMOTE_CACHE``, memory accesses become
        ``REMOTE_DRAM`` — and their recorded latency is scaled by the
        remote-access penalty.  Deterministic per address, so repeated
        samples of one line always agree.
        """
        frac = self.config.remote_fraction
        if frac <= 0.0 or sources.size == 0:
            return sources, latencies
        threshold = np.uint64(min(int(frac * 2.0**64), 2**64 - 1))
        remote = line_home_hash(addresses) < threshold
        from_l3 = remote & (sources == int(DataSource.L3))
        from_dram = remote & (sources == int(DataSource.DRAM))
        if not (from_l3.any() or from_dram.any()):
            return sources, latencies
        sources = sources.copy()
        latencies = latencies.astype(np.float64).copy()
        sources[from_l3] = int(DataSource.REMOTE_CACHE)
        latencies[from_l3] *= self.config.remote_cache_scale
        sources[from_dram] = int(DataSource.REMOTE_DRAM)
        latencies[from_dram] *= self.config.remote_dram_scale
        return sources, latencies

    # ------------------------------------------------------------------
    def expected_rate(self, op: MemOp) -> float:
        """Expected samples per operation of kind *op*.

        The blind stream samples every operation with probability
        ``1 / period``; kinds the packet filter discards net zero.
        """
        return 1.0 / self.config.period if op in self.ops else 0.0

    def metadata(self) -> dict:
        return {
            "sampler": self.name,
            "spe_period": self.config.period,
            "spe_min_latency_cycles": self.config.min_latency_cycles,
            "spe_remote_fraction": self.config.remote_fraction,
        }

"""Precise event-based sampling engine.

Models the PEBS facility the paper relies on: a hardware counter counts
*memory operations of a given kind* (loads, or stores); every time it
reaches the sampling period, the very next matching operation is
captured precisely — its address, its access cost in cycles and the data
source that served it.  The period is randomized by a small factor per
sample, as tools do on real hardware to avoid phase-locking with loop
bodies.  A latency threshold can restrict load sampling to costly
accesses (the load-latency facility's ``ldlat`` threshold).

The sampler is a pure offset generator: it answers "which of the next
*n* operations of kind X are sampled?" and keeps the countdown across
batches, so the sample spacing is correct no matter how the workload is
chopped into batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import MemOp
from repro.simproc.sampler import Sampler

__all__ = ["PebsConfig", "PebsSampler"]


@dataclass(frozen=True)
class PebsConfig:
    """Sampling configuration for one event kind.

    Parameters
    ----------
    period:
        Mean number of operations between samples (e.g. one sample
        every 10 000 loads).  Coarse periods are the point of the
        paper: Folding reconstructs detail from sparse samples.
    randomization:
        Relative half-width of the per-sample period jitter; each gap is
        drawn uniformly from ``period * [1 - r, 1 + r]``.
    latency_threshold_cycles:
        Only accesses at least this costly are recorded (0 disables the
        filter).  Mirrors the load-latency ``ldlat`` threshold.
    """

    period: int = 10_000
    randomization: float = 0.1
    latency_threshold_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0.0 <= self.randomization < 1.0:
            raise ValueError(
                f"randomization must be in [0, 1), got {self.randomization}"
            )
        if self.latency_threshold_cycles < 0:
            raise ValueError("latency threshold must be non-negative")


class PebsSampler(Sampler):
    """Stateful per-event-kind sample-offset generator.

    Parameters
    ----------
    configs:
        Sampling configuration per :class:`MemOp`.  Operations without a
        config are never sampled.
    rng:
        Period-randomization stream.
    """

    name = "pebs"

    def __init__(
        self,
        configs: dict[MemOp, PebsConfig],
        rng: np.random.Generator | None = None,
    ) -> None:
        self.configs = dict(configs)
        self._rng = rng or np.random.default_rng(0)
        # Remaining operations until the next sample, per event kind.
        self._countdown: dict[MemOp, float] = {
            op: self._gap(cfg) for op, cfg in self.configs.items()
        }
        self.samples_taken: dict[MemOp, int] = {op: 0 for op in self.configs}

    def _gap(self, cfg: PebsConfig) -> float:
        if cfg.randomization == 0.0:
            return float(cfg.period)
        lo = cfg.period * (1.0 - cfg.randomization)
        hi = cfg.period * (1.0 + cfg.randomization)
        return float(self._rng.uniform(lo, hi))

    def take(self, op: MemOp, n_ops: int) -> np.ndarray:
        """Offsets (0-based, sorted) of sampled operations among the
        next *n_ops* operations of kind *op*.

        Advances the countdown state; call exactly once per run of
        operations, in execution order.
        """
        cfg = self.configs.get(op)
        if cfg is None or n_ops <= 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized emission, bit-identical to the scalar loop
        #   while pos < n_ops: emit(int(pos)); pos += gap()
        # Each round places a *conservative* count of samples — small
        # enough that every resulting position is guaranteed below n_ops,
        # so the scalar loop would have drawn exactly the same gaps from
        # the stream (array uniform(lo, hi, k) consumes the stream like k
        # scalar draws).  The round's last gap, past its last sample, is
        # one the scalar loop draws too, so it comes in the same call.
        # cumsum with the current position prepended reproduces the
        # sequential float accumulation exactly; a scalar tail handles
        # the last few positions near the boundary (once there, every
        # later round is scalar too: pos only grows).
        lo = cfg.period * (1.0 - cfg.randomization)
        hi = cfg.period * (1.0 + cfg.randomization)
        parts: list[np.ndarray] = []
        tail: list[int] = []
        pos = float(self._countdown[op])
        while pos < n_ops:
            est = int((n_ops - pos) / hi) - 1
            if est <= 0:
                tail.append(int(pos))
                pos += self._gap(cfg)
                continue
            if cfg.randomization == 0.0:
                gaps = np.full(est + 1, float(cfg.period))
            else:
                gaps = self._rng.uniform(lo, hi, size=est + 1)
            positions = np.cumsum(np.concatenate(([pos], gaps[:est])))
            parts.append(positions.astype(np.int64))
            pos = float(positions[-1]) + float(gaps[est])
        if tail:
            parts.append(np.array(tail, dtype=np.int64))
        self._countdown[op] = pos - n_ops
        if not parts:
            return np.empty(0, dtype=np.int64)
        offsets = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.samples_taken[op] += offsets.size
        return offsets

    def latency_filter(self, op: MemOp, latencies: np.ndarray) -> np.ndarray:
        """Boolean mask of samples passing *op*'s latency threshold."""
        cfg = self.configs.get(op)
        lat = np.asarray(latencies, dtype=np.float64)
        if cfg is None or cfg.latency_threshold_cycles <= 0:
            return np.ones(lat.shape, dtype=bool)
        return lat >= cfg.latency_threshold_cycles

    def expected_rate(self, op: MemOp) -> float:
        """Expected samples per operation (0 if the kind is not sampled)."""
        cfg = self.configs.get(op)
        return 1.0 / cfg.period if cfg else 0.0

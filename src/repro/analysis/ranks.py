"""Cross-rank imbalance over a rank-set run.

The paper folds *one representative task* of the 24-core HPCG run.
``bsc-memtools-run --ranks N`` simulates the whole stack, writes that
interior rank's trace, and prints how the ranks spread around it:
:func:`rank_imbalance` reduces one per-rank metric (samples, duration)
to its min/median/max/mean and the classic MPI imbalance factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Imbalance", "rank_imbalance"]


@dataclass(frozen=True)
class Imbalance:
    """Spread of one metric across ranks."""

    metric: str
    min: float
    median: float
    max: float
    mean: float

    @property
    def imbalance_factor(self) -> float:
        """``max / mean`` — the classic MPI load-imbalance factor
        (1.0 = perfectly balanced)."""
        return self.max / self.mean if self.mean else float("nan")

    @property
    def spread(self) -> float:
        """``(max - min) / median`` — relative peak-to-peak spread."""
        return (self.max - self.min) / self.median if self.median else float("nan")


def rank_imbalance(values: Sequence[float], metric: str) -> Imbalance:
    """Min/median/max/mean of one per-rank metric."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"no per-rank values for {metric!r}")
    return Imbalance(
        metric=metric,
        min=float(arr.min()),
        median=float(np.median(arr)),
        max=float(arr.max()),
        mean=float(arr.mean()),
    )

"""Access-pattern descriptors.

A workload describes its memory behaviour as a sequence of *patterns*:
compact, closed-form descriptions of an access stream (sequential sweep,
strided walk, gather through an index array, uniform random, or an
explicit address list).  Patterns serve three consumers:

* the **precise engine** expands them (fully or block-wise) into concrete
  addresses fed through the set-associative hierarchy;
* the **analytic engine** reads their :meth:`AccessPattern.locality`
  summary and costs them in closed form;
* the **PEBS sampler** asks for the concrete addresses of the specific
  access offsets that the sampling period selects
  (:meth:`AccessPattern.addresses_at`), so sampled addresses are exact
  even when the bulk of the stream is costed analytically.

All address arithmetic is in bytes on ``uint64``.  :class:`MemOp`
belongs to the sample schema (:mod:`repro.extrae.schema`) and is
re-exported here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import MemOp
from repro.util.bitops import ceil_div

__all__ = [
    "AccessPattern",
    "ExplicitPattern",
    "GatherPattern",
    "Locality",
    "MemOp",
    "RandomPattern",
    "SequentialPattern",
    "StridedPattern",
]


@dataclass(frozen=True)
class Locality:
    """Closed-form locality summary consumed by the analytic engine.

    Attributes
    ----------
    lo, hi:
        Bounding byte range ``[lo, hi)`` of the pattern.
    unique_bytes:
        Number of distinct bytes touched (≤ ``hi - lo``).
    count:
        Total number of accesses.
    working_set_bytes:
        Size of the short-term reuse window: repeat touches of a line
        hit at the lowest cache level whose capacity covers this.
    kind:
        ``"seq"``, ``"strided"``, ``"gather"`` or ``"random"``.
    direction:
        +1 for ascending sweeps, -1 for descending, 0 for no direction.
        Determines which end of a larger-than-cache footprint remains
        resident after the pattern completes.
    """

    lo: int
    hi: int
    unique_bytes: int
    count: int
    working_set_bytes: int
    kind: str
    direction: int = 0


class AccessPattern(ABC):
    """Base class for access-stream descriptors."""

    #: operation performed by every access of the pattern
    op: MemOp
    #: element size in bytes of one access
    elem_size: int

    @property
    @abstractmethod
    def count(self) -> int:
        """Total number of accesses in the pattern."""

    @abstractmethod
    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        """Concrete byte addresses of accesses number *offsets* (0-based)."""

    @abstractmethod
    def locality(self) -> Locality:
        """Closed-form locality summary for analytic costing."""

    def expand(self) -> np.ndarray:
        """All addresses of the pattern, in access order."""
        return self.addresses_at(np.arange(self.count, dtype=np.int64))

    def _check_offsets(self, offsets: np.ndarray) -> np.ndarray:
        off = np.asarray(offsets, dtype=np.int64)
        if off.size and (off.min() < 0 or off.max() >= self.count):
            raise IndexError(
                f"offsets out of range [0, {self.count}) for {type(self).__name__}"
            )
        return off


@dataclass(frozen=True)
class SequentialPattern(AccessPattern):
    """A unit-stride sweep over ``count * elem_size`` contiguous bytes.

    ``direction=+1`` starts at *start* and ascends; ``direction=-1``
    starts at the top of the range and descends (the Gauss–Seidel
    backward sweep).  *start* is always the **low** end of the range.
    """

    start: int
    count_: int
    elem_size: int = 8
    direction: int = 1
    op: MemOp = MemOp.LOAD

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise ValueError(f"direction must be ±1, got {self.direction}")
        if self.count_ < 0 or self.elem_size <= 0:
            raise ValueError("count must be >= 0 and elem_size positive")

    @property
    def count(self) -> int:
        return self.count_

    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        off = self._check_offsets(offsets)
        if self.direction == 1:
            idx = off
        else:
            idx = (self.count_ - 1) - off
        return (np.uint64(self.start) + idx.astype(np.uint64) * np.uint64(self.elem_size))

    def locality(self) -> Locality:
        nbytes = self.count_ * self.elem_size
        # Short-term reuse of a unit-stride sweep is confined to the
        # current cache line: repeats always hit L1 (or the LFB).
        return Locality(
            lo=self.start,
            hi=self.start + nbytes,
            unique_bytes=nbytes,
            count=self.count_,
            working_set_bytes=min(nbytes, 128),
            kind="seq",
            direction=self.direction,
        )


@dataclass(frozen=True)
class StridedPattern(AccessPattern):
    """*count* accesses of *elem_size* bytes, *stride* bytes apart."""

    start: int
    count_: int
    stride: int
    elem_size: int = 8
    op: MemOp = MemOp.LOAD

    def __post_init__(self) -> None:
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.count_ < 0 or self.elem_size <= 0:
            raise ValueError("count must be >= 0 and elem_size positive")

    @property
    def count(self) -> int:
        return self.count_

    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        off = self._check_offsets(offsets)
        return np.uint64(self.start) + off.astype(np.uint64) * np.uint64(self.stride)

    def locality(self) -> Locality:
        span = (self.count_ - 1) * self.stride + self.elem_size if self.count_ else 0
        return Locality(
            lo=self.start,
            hi=self.start + span,
            unique_bytes=self.count_ * self.elem_size,
            count=self.count_,
            working_set_bytes=min(span, 128),
            kind="strided",
            direction=1,
        )


@dataclass(frozen=True)
class GatherPattern(AccessPattern):
    """Indexed accesses ``base + indices[i] * elem_size``.

    Used for the HPCG ``x[col]`` gathers.  *working_set_bytes* tells the
    analytic engine how large the short-term reuse window is (for a
    27-point stencil traversed row-major it is roughly three grid planes
    of the gathered vector); by default it is the full index span, i.e.
    no short-term reuse is assumed beyond the first touch.
    """

    base: int
    indices: np.ndarray
    elem_size: int = 8
    op: MemOp = MemOp.LOAD
    working_set_hint: int | None = None
    direction_hint: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "indices", np.ascontiguousarray(self.indices, dtype=np.int64)
        )
        if self.indices.ndim != 1:
            raise ValueError("indices must be 1-D")
        if self.indices.size and self.indices.min() < 0:
            raise ValueError("indices must be non-negative")

    @property
    def count(self) -> int:
        return int(self.indices.size)

    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        off = self._check_offsets(offsets)
        return (
            np.uint64(self.base)
            + self.indices[off].astype(np.uint64) * np.uint64(self.elem_size)
        )

    def locality(self) -> Locality:
        if self.indices.size == 0:
            return Locality(self.base, self.base + 1, 0, 0, 0, "gather", 0)
        lo_i = int(self.indices.min())
        hi_i = int(self.indices.max()) + 1
        unique = int(np.unique(self.indices).size) * self.elem_size
        span = (hi_i - lo_i) * self.elem_size
        ws = self.working_set_hint if self.working_set_hint is not None else span
        return Locality(
            lo=self.base + lo_i * self.elem_size,
            hi=self.base + hi_i * self.elem_size,
            unique_bytes=unique,
            count=self.count,
            working_set_bytes=ws,
            kind="gather",
            direction=self.direction_hint,
        )


@dataclass(frozen=True)
class RandomPattern(AccessPattern):
    """*count* uniform random accesses within ``[start, start + nbytes)``.

    Addresses are generated deterministically from *seed* so the precise
    engine and the PEBS sampler see the same stream.
    """

    start: int
    nbytes: int
    count_: int
    elem_size: int = 8
    op: MemOp = MemOp.LOAD
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < self.elem_size:
            raise ValueError("range must hold at least one element")

    @property
    def count(self) -> int:
        return self.count_

    def _elements(self, offsets: np.ndarray) -> np.ndarray:
        # Counter-based generation: the element index depends only on
        # the access offset (splitmix64-style hash), so addresses_at is
        # consistent across calls and offers O(1) random access.
        n_elems = self.nbytes // self.elem_size
        x = offsets.astype(np.uint64) + np.uint64(self.seed * 0x9E3779B97F4A7C15 % 2**64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
        return x % np.uint64(n_elems)

    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        off = self._check_offsets(offsets)
        return (
            np.uint64(self.start) + self._elements(off) * np.uint64(self.elem_size)
        )

    def locality(self) -> Locality:
        n_elems = self.nbytes // self.elem_size
        # Expected distinct elements among `count` uniform draws.
        if n_elems > 0 and self.count_ > 0:
            frac = 1.0 - np.exp(-self.count_ / n_elems)
            unique = int(round(n_elems * frac)) * self.elem_size
            unique = max(self.elem_size, min(unique, self.nbytes))
        else:
            unique = 0
        return Locality(
            lo=self.start,
            hi=self.start + self.nbytes,
            unique_bytes=unique,
            count=self.count_,
            working_set_bytes=self.nbytes,
            kind="random",
            direction=0,
        )


@dataclass(frozen=True)
class ExplicitPattern(AccessPattern):
    """A concrete, pre-materialized address list."""

    addresses: np.ndarray
    elem_size: int = 8
    op: MemOp = MemOp.LOAD

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "addresses", np.ascontiguousarray(self.addresses, dtype=np.uint64)
        )
        if self.addresses.ndim != 1:
            raise ValueError("addresses must be 1-D")

    @property
    def count(self) -> int:
        return int(self.addresses.size)

    def addresses_at(self, offsets: np.ndarray) -> np.ndarray:
        off = self._check_offsets(offsets)
        return self.addresses[off]

    def expand(self) -> np.ndarray:
        return self.addresses

    def locality(self) -> Locality:
        if self.addresses.size == 0:
            return Locality(0, 1, 0, 0, 0, "gather", 0)
        lo = int(self.addresses.min())
        hi = int(self.addresses.max()) + self.elem_size
        # Count unique lines at 64 B granularity; exact uniqueness at
        # byte granularity is not needed by the analytic model.
        unique = int(np.unique(self.addresses >> np.uint64(6)).size) * 64
        unique = min(unique, hi - lo)
        direction = 0
        if self.addresses.size >= 2:
            d = np.diff(self.addresses.astype(np.int64))
            if (d >= 0).all():
                direction = 1
            elif (d <= 0).all():
                direction = -1
        return Locality(
            lo=lo,
            hi=hi,
            unique_bytes=max(unique, self.elem_size),
            count=self.count,
            working_set_bytes=hi - lo,
            kind="gather",
            direction=direction,
        )


def pattern_lines(pattern: AccessPattern, line_size: int = 64) -> int:
    """Approximate distinct cache lines touched by *pattern*."""
    loc = pattern.locality()
    return ceil_div(max(loc.unique_bytes, 1), line_size) if loc.count else 0

"""LRU of open traces for the service's window and region queries.

Each trace digest is backed by **one** read-only memory map (the single
``mmap`` held by :class:`~repro.extrae.storage.ColumnReader`), shared by
every request that touches that trace.  An open trace comes with its
:class:`~repro.extrae.index.TraceIndex`, so time-window and per-region
queries answer from prebuilt indexes instead of rescanning.

The server event loop is the only caller, and each handler uses the
trace it gets synchronously, with no ``await`` before its last read.
So no other request holds a trace while one is opened or evicted, and
eviction closes the trace it drops at once: no locks, leases or
deferred closes.  The OS page cache does the actual cross-request
sharing.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from repro.extrae.index import TraceIndex
from repro.extrae.trace import Trace

__all__ = ["SharedTraceCache"]


class SharedTraceCache:
    """LRU of open traces, keyed by digest, shared across requests."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._open: OrderedDict[str, tuple[Trace, TraceIndex]] = OrderedDict()
        self.opens = 0  # cold opens (cache misses)
        self.hits = 0  # get() calls served from an open trace

    def __len__(self) -> int:
        return len(self._open)

    def get(self, digest: str, path: str | Path) -> tuple[Trace, TraceIndex]:
        """The open trace at *path* under *digest* and its index, opened
        if needed.

        Valid until the next call opens another trace, which may evict
        and close it.
        """
        entry = self._open.get(digest)
        if entry is not None:
            self._open.move_to_end(digest)
            self.hits += 1
            return entry
        trace = Trace.load(path)
        entry = self._open[digest] = (trace, trace.index())
        self.opens += 1
        if len(self._open) > self.capacity:
            _digest, (evicted, _index) = self._open.popitem(last=False)
            evicted.close()
        return entry

    def close(self) -> None:
        """Close every open trace."""
        for trace, _index in self._open.values():
            trace.close()
        self._open.clear()

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "n_open": len(self._open),
            "opens": self.opens,
            "hits": self.hits,
        }

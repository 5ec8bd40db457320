"""Peak-memory probe behind the benchmark runner's memory ratios.

Two complementary measurements, taken together by :func:`memory_probe`:

* **tracemalloc peak** — exact bytes of Python-level allocations
  (numpy array buffers included) live at the high-water mark inside
  the probed block.  Deterministic and unaffected by allocator reuse,
  so it is what the runner's memory ratios gate.  Memory the
  allocator obtained outside Python (``np.memmap`` pages, child
  processes) is invisible to it — which is why the streamed read path
  (:func:`repro.extrae.storage.iter_chunks`) deliberately reads fresh
  arrays instead of mapping.
* **RSS high-water delta** — the OS view, polled from
  ``/proc/self/status`` ``VmRSS`` by a background thread.  Noisy
  (page-cache effects, allocator retention: RSS rarely shrinks back)
  but it covers everything the process touches; reported for context,
  never gated on.

No third-party dependency: ``psutil`` is intentionally not required.

Usage::

    with memory_probe() as probe:
        ...            # the code whose peak footprint matters
    print(probe.traced_peak_bytes, probe.rss_peak_delta_bytes)
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["MemoryProbe", "memory_probe", "rss_bytes"]


def rss_bytes() -> int:
    """Current resident-set size from ``/proc/self/status`` (0 if absent)."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-procfs platform
        pass
    return 0


@dataclass
class MemoryProbe:
    """Result of one :func:`memory_probe` block."""

    #: tracemalloc high-water mark inside the block, bytes
    traced_peak_bytes: int = 0
    #: RSS at entry, bytes (0 when /proc is unavailable)
    rss_start_bytes: int = 0
    #: highest RSS sample seen during the block, bytes
    rss_peak_bytes: int = 0
    #: wall-clock of the block, seconds
    elapsed_s: float = 0.0
    #: RSS samples taken by the poller (diagnostic)
    rss_samples: int = field(default=0, repr=False)

    @property
    def rss_peak_delta_bytes(self) -> int:
        """RSS growth over the block's high-water mark (>= 0)."""
        return max(self.rss_peak_bytes - self.rss_start_bytes, 0)

    def as_dict(self) -> dict:
        return {
            "traced_peak_bytes": self.traced_peak_bytes,
            "rss_start_bytes": self.rss_start_bytes,
            "rss_peak_bytes": self.rss_peak_bytes,
            "rss_peak_delta_bytes": self.rss_peak_delta_bytes,
            "elapsed_s": self.elapsed_s,
        }


@contextmanager
def memory_probe(poll_interval: float = 0.005):
    """Measure the peak memory footprint of a ``with`` block.

    Starts (or resets) tracemalloc for the exact Python-level peak and
    a ``VmRSS`` polling thread for the OS-level high-water mark; both
    land in the yielded :class:`MemoryProbe` when the block exits.
    Nesting is not supported (tracemalloc's peak counter is global).
    """
    probe = MemoryProbe()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()

    probe.rss_start_bytes = rss_bytes()
    probe.rss_peak_bytes = probe.rss_start_bytes
    stop = threading.Event()

    def _poll() -> None:
        while not stop.is_set():
            sample = rss_bytes()
            if sample > probe.rss_peak_bytes:
                probe.rss_peak_bytes = sample
            probe.rss_samples += 1
            stop.wait(poll_interval)

    poller = threading.Thread(target=_poll, daemon=True)
    poller.start()
    t0 = time.perf_counter()
    try:
        yield probe
    finally:
        probe.elapsed_s = time.perf_counter() - t0
        stop.set()
        poller.join()
        _, peak = tracemalloc.get_traced_memory()
        probe.traced_peak_bytes = max(peak - baseline, 0)
        sample = rss_bytes()
        if sample > probe.rss_peak_bytes:
            probe.rss_peak_bytes = sample
        if not was_tracing:
            tracemalloc.stop()

"""Host-speed sampling, so that timings read at a reference speed.

On a shared host each CPU's speed changes by up to about 1.5x within
seconds, on each CPU independently of the other: a fixed interpreted
loop timed back to back on one CPU switches between two modes, and its
speed one second later correlates only weakly (about 0.4) with its
speed now.  A step timed once is then off by whatever mode it ran in,
and a median over a run moves with how much of the run was slow.

A :class:`Speedometer` thread in the benchmark's own process times a
fixed 0.3 ms loop (:func:`probe`) every :data:`PERIOD_S`, on the CPU
where a followed process runs at that moment, or on each CPU in turn.
:meth:`Speedometer.factor` turns the probes inside a time window into
the host's speed over that window relative to the reference speed;
a wall time times that factor is the time at the reference speed.  A
change to the program moves it in proportion, a change of host speed
mostly cancels.  The probe runs in the benchmark's process, not in the
measured one, and takes about 1% of the followed CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

__all__ = ["MIN_PROBES", "PERIOD_S", "PROBE_REF_S", "Speedometer", "probe"]

#: Wall time (s) of one :func:`probe` at the reference speed: the
#: probe's time in the fast mode of a 2-CPU x86-64 host (Intel Xeon,
#: Python 3.11).
PROBE_REF_S = 0.00028
#: seconds between probes
PERIOD_S = 0.04
#: fewest probes a speed is averaged over
MIN_PROBES = 8


def probe() -> float:
    """Run the fixed interpreted loop once; returns its wall time."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 31] = counts.get(i % 31, 0) + i
    return time.perf_counter() - t0


def _cpu_of(pid: int) -> int | None:
    """The CPU *pid* last ran on, or None once it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Speedometer:
    """Probe the host's speed in a background thread until stopped.

    While :attr:`follow` holds a process id, each probe runs on the CPU
    that process last ran on; otherwise the probes take every CPU this
    process may use in turn.
    """

    def __init__(self) -> None:
        self.follow: int | None = None
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, probe s)
        self._cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self) -> Speedometer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            follow = self.follow
            cpu = _cpu_of(follow) if follow is not None else None
            if cpu is None:
                cpu = self._cpus[turn % len(self._cpus)]
                turn += 1
            try:
                os.sched_setaffinity(0, {cpu})  # this thread only
            except OSError:
                continue
            self.samples.append((time.perf_counter(), probe()))

    def factor(self, t0: float, t1: float) -> float:
        """Mean host speed over ``[t0, t1]`` relative to the reference
        speed: ``PROBE_REF_S`` over each probe's time, averaged as a rate.

        A window holding fewer than :data:`MIN_PROBES` probes (a request
        of a few milliseconds) takes the probes nearest to it instead.
        """
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            if hi >= len(times) or (lo > 0 and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        rates = [PROBE_REF_S / s for _, s in self.samples[lo:hi]]
        return statistics.fmean(rates) if rates else 1.0

    def summary(self) -> dict:
        """Count and quartiles (s) of the probe times, for the record."""
        times = [s for _, s in self.samples]
        if len(times) < 2:
            return {"n": len(times)}
        q1, q2, q3 = statistics.quantiles(times, n=4)
        return {"n": len(times), "q1_s": q1, "median_s": q2, "q3_s": q3}

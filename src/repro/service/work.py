"""Cold-fold jobs executed in the service's bounded worker pool.

One module-level entry point, :func:`fold_payload_job`, picklable into
a ``ProcessPoolExecutor``: load the container (lazily — columns
arrive as memory maps inside the worker), fold it through the exact
library paths the batch CLI uses, and return the JSON-able payload.
The worker shares the service's on-disk :class:`FoldCache` directory,
so a fold computed for one request warms every later process that
asks — including a restarted server.
"""

from __future__ import annotations

from repro.folding.cache import FoldCache
from repro.folding.report import fold_trace
from repro.folding.spec import FoldSpec
from repro.service.payloads import fold_payload

__all__ = ["fold_payload_job"]


def fold_payload_job(
    path: str,
    direction: str,
    spec: FoldSpec,
    points: int,
    cache_dir: str | None,
) -> dict:
    """Fold the container at *path* by *spec*; build the *direction* payload.

    Runs in a pool worker.  *points* bounds the scatter/track rows of
    address/lines payloads (:func:`~repro.service.payloads.fold_payload`).
    """
    from repro.extrae.trace import Trace

    cache = FoldCache(cache_dir) if cache_dir else None
    with Trace.load(path) as trace:
        fold = fold_trace(trace, spec, cache=cache)
        return fold_payload(fold, direction, points)

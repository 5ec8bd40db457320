"""Concurrent analysis server over a content-addressed trace repository.

A small asyncio HTTP/1.1 server (stdlib only) that serves repository
listings, index-backed trace queries and folded reports as canonical
JSON payloads (:mod:`repro.service.payloads`).  The interesting part
is how it stays fast under many concurrent clients:

* **Shared memory maps** — every open trace is held once in an LRU
  (:class:`~repro.service.tables.SharedTraceCache`); all requests
  against a digest read the same ``mmap``.
* **Bounded fold workers** — fold bodies are never built on the event
  loop: every response-cache miss goes to a ``ProcessPoolExecutor`` of
  ``workers`` processes (:func:`~repro.service.work.fold_payload_job`,
  which answers from the on-disk
  :class:`~repro.folding.cache.FoldCache` or folds), so fold CPU and
  decoded reports stay in the workers and the loop keeps answering
  cheap queries.  A pool broken by a dead worker is replaced, and its
  requests answer ``503``.
* **Request coalescing** — concurrent requests for the same fold
  payload (one ETag) await one shared future; the fold is computed
  once and fanned out.
* **Content-addressed caching** — the loop keeps an LRU of serialized
  response bodies and stamps every payload response with a strong
  ``ETag``, so revalidating clients get ``304 Not Modified`` with no
  body at all.

Routes (all ``GET``)::

    /v1/healthz
    /v1/stats
    /v1/traces
    /v1/traces/{digest}
    /v1/traces/{digest}/window?t0=..&t1=..
    /v1/traces/{digest}/regions
    /v1/traces/{digest}/regions/{name}
    /v1/traces/{digest}/fold?direction=counters|address|lines
        [&grid=N][&bandwidth=F][&reps=N][&seed=N][&stream=1][&points=N]

``{digest}`` accepts any unambiguous prefix (4-64 hex chars); anything
else is a 404 before it names a path.  The fold query keys map onto
one :class:`~repro.folding.spec.FoldSpec`; a parameter the spec
rejects is a 400.  A request head that is malformed, longer than the
stream limit (64 KiB) or cut off by the end of the stream is a 400,
and the connection closes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.folding.cache import FoldCache
from repro.folding.spec import DIRECTIONS, FoldSpec, serves
from repro.repo import RepoError, TraceRepo
from repro.service.payloads import PAYLOAD_VERSION, canonical_bytes, sealed_bytes
from repro.service.tables import SharedTraceCache
from repro.service.work import fold_payload_job

__all__ = ["AnalysisServer", "HttpError"]

_JSON = "application/json"

logger = logging.getLogger("repro.service")

#: Fold query key -> (FoldSpec field, conversion of the query string).
_SPEC_QUERY = {
    "grid": ("grid_points", int),
    "bandwidth": ("bandwidth", float),
    "stream": ("streaming", lambda v: v not in ("0", "false")),
    # reps=0 asks for the exact fold, as an absent reps= does
    "reps": ("rep_budget", lambda v: int(v) or None),
    "seed": ("rep_seed", int),
}


class HttpError(Exception):
    """A request error with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _fold_request(query: dict) -> tuple[str, FoldSpec, int]:
    """``(direction, spec, points)`` of a fold query, or a 400.

    Query strings are only converted here; the range and combination
    checks are :class:`FoldSpec`'s, and absent keys keep its defaults.
    """
    direction = query.get("direction", "counters")
    if direction not in DIRECTIONS:
        raise HttpError(
            400, f"direction must be one of {DIRECTIONS}, got {direction!r}"
        )
    try:
        spec = FoldSpec(
            **{
                field: convert(query[key])
                for key, (field, convert) in _SPEC_QUERY.items()
                if key in query
            }
        )
        points = int(query.get("points", 0))
    except ValueError as exc:
        raise HttpError(400, f"bad fold parameter: {exc}") from exc
    if points < 0:
        raise HttpError(400, f"points must be >= 0, got {points}")
    if not serves(spec.path, direction):
        raise HttpError(400, f"a {spec.path} fold has no {direction} payload")
    return direction, spec, points


class _ResponseCache:
    """Byte-bounded LRU of serialized response bodies, keyed by ETag."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0

    def get(self, etag: str) -> bytes | None:
        body = self._entries.get(etag)
        if body is not None:
            self._entries.move_to_end(etag)
        return body

    def put(self, etag: str, body: bytes) -> None:
        if etag in self._entries:
            self._bytes -= len(self._entries.pop(etag))
        self._entries[etag] = body
        self._bytes += len(body)
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)

    def stats(self) -> dict:
        return {"n_entries": len(self._entries), "bytes": self._bytes}


class AnalysisServer:
    """The analysis service; see module docstring for the route map."""

    def __init__(
        self,
        repo: TraceRepo,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: str | Path | None = None,
        trace_cache_capacity: int = 8,
        response_cache_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.repo = repo
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.cache_dir = Path(cache_dir) if cache_dir else repo.root / "foldcache"
        self.tables = SharedTraceCache(capacity=trace_cache_capacity)
        self.responses = _ResponseCache(response_cache_bytes)
        self.fold_cache = FoldCache(self.cache_dir)
        self._pool: ProcessPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self.counters = {
            "requests": 0,
            "fold_requests": 0,
            "folds_cold": 0,
            "folds_warm_cache": 0,
            "folds_coalesced": 0,
            "response_cache_hits": 0,
            "not_modified": 0,
            "errors": 0,
        }

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.tables.close()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self.stop()

    def run(self) -> None:
        """Blocking convenience entry point (used by the CLI)."""
        asyncio.run(self.serve_until_stopped())

    def request_stop(self) -> None:
        """Ask a running server to stop — safe from any thread."""
        loop = getattr(self, "_loop", None)
        if loop is not None and self._stopped is not None:
            loop.call_soon_threadsafe(self._stopped.set)

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    # EOF between requests ends a keep-alive connection;
                    # EOF inside a head leaves a request unanswered.
                    if exc.partial:
                        await self._bad_request(writer, "request head cut off")
                    return
                except asyncio.LimitOverrunError:
                    await self._bad_request(writer, "request head too large")
                    return
                request_line, *header_lines = head.decode(
                    "latin-1"
                ).split("\r\n")
                parts = request_line.split()
                if len(parts) != 3:
                    await self._bad_request(writer, "malformed request line")
                    return
                method, target, _version = parts
                headers = {}
                for line in header_lines:
                    if ":" in line:
                        k, v = line.split(":", 1)
                        headers[k.strip().lower()] = v.strip()
                self.counters["requests"] += 1
                keep_alive = headers.get("connection", "").lower() != "close"
                status, body, extra = await self._dispatch(method, target, headers)
                await self._write_response(writer, status, body, extra, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            return  # server shutting down mid-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,  # shutdown cancelled the handler
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _bad_request(self, writer: asyncio.StreamWriter, error: str) -> None:
        """Answer 400 to a request that cannot be framed; the caller
        then closes the connection."""
        self.counters["errors"] += 1
        body = canonical_bytes({"error": error, "status": 400})
        await self._write_response(writer, 400, body, {}, False)

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra_headers: dict,
        keep_alive: bool,
    ) -> None:
        reason = {
            200: "OK",
            304: "Not Modified",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"content-type: {_JSON}",
            f"content-length: {len(body)}",
            f"connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for k, v in extra_headers.items():
            lines.append(f"{k}: {v}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, headers: dict
    ) -> tuple[int, bytes, dict]:
        try:
            if method != "GET":
                raise HttpError(405, f"method {method} not supported")
            split = urlsplit(target)
            segments = [unquote(s) for s in split.path.split("/") if s]
            query = {
                k: v[-1] for k, v in parse_qs(split.query).items()
            }
            return await self._route(segments, query, headers)
        except HttpError as exc:
            self.counters["errors"] += 1
            body = canonical_bytes({"error": str(exc), "status": exc.status})
            return exc.status, body, {}
        except RepoError as exc:
            self.counters["errors"] += 1
            body = canonical_bytes({"error": str(exc), "status": 404})
            return 404, body, {}
        except Exception:  # noqa: BLE001 - boundary: report, don't die
            # The traceback goes to the log; the client learns nothing
            # of paths or internals.
            logger.exception("internal error serving %s %s", method, target)
            self.counters["errors"] += 1
            body = canonical_bytes({"error": "internal error", "status": 500})
            return 500, body, {}

    async def _route(
        self, segments: list[str], query: dict, headers: dict
    ) -> tuple[int, bytes, dict]:
        if not segments or segments[0] != "v1":
            raise HttpError(404, "unknown path (expected /v1/...)")
        rest = segments[1:]
        if rest == ["healthz"]:
            return 200, canonical_bytes({"ok": True}), {}
        if rest == ["stats"]:
            return 200, canonical_bytes(self._stats_payload()), {}
        if not rest or rest[0] != "traces":
            raise HttpError(404, f"unknown path /{'/'.join(segments)}")
        if rest == ["traces"]:
            return self._list_traces()
        digest = self.repo.resolve(rest[1])
        tail = rest[2:]
        if not tail:
            return self._trace_meta(digest)
        if tail == ["window"]:
            return self._window(digest, query)
        if tail == ["regions"]:
            return self._regions(digest)
        if len(tail) == 2 and tail[0] == "regions":
            return self._region_detail(digest, tail[1])
        if tail == ["fold"]:
            return await self._fold(digest, query, headers)
        raise HttpError(404, f"unknown trace endpoint /{'/'.join(tail)}")

    # -- cheap (in-loop) endpoints -------------------------------------------
    def _stats_payload(self) -> dict:
        cache_stats = self.fold_cache.stats()
        return {
            "version": PAYLOAD_VERSION,
            "repo": self.repo.stats(),
            "tables": self.tables.stats(),
            "responses": self.responses.stats(),
            "fold_cache": {
                "directory": str(self.cache_dir),
                "n_entries": cache_stats.n_entries,
                "total_bytes": cache_stats.total_bytes,
            },
            "workers": self.workers,
            "counters": dict(self.counters),
            "inflight": len(self._inflight),
        }

    def _list_traces(self) -> tuple[int, bytes, dict]:
        entries = self.repo.list()
        body = sealed_bytes(
            {
                "version": PAYLOAD_VERSION,
                "n_traces": len(entries),
                "traces": [
                    {"digest": e.digest, **e.meta} for e in entries
                ],
            }
        )
        return 200, body, {}

    def _trace_meta(self, digest: str) -> tuple[int, bytes, dict]:
        entry = self.repo.entry(digest)
        body = sealed_bytes(
            {
                "version": PAYLOAD_VERSION,
                "digest": digest,
                "meta": entry.meta,
            }
        )
        return 200, body, {}

    def _fold_etag(
        self, digest: str, direction: str, spec: FoldSpec, points: int
    ) -> str:
        """Strong validator of one fold payload (also its cache and
        coalescing key).

        It names the fold the way the fold cache does,
        ``FoldCache.key(digest, spec)``, so spellings of one fold
        (``stream=1``, a ``seed=`` without ``reps=``) share one tag;
        a counters payload ignores *points*.
        """
        blob = json.dumps(
            {
                "payload_version": PAYLOAD_VERSION,
                "fold": self.fold_cache.key(digest, spec),
                "direction": direction,
                "points": points if direction != "counters" else 0,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def _window(self, digest: str, query: dict) -> tuple[int, bytes, dict]:
        try:
            t0 = float(query["t0"])
            t1 = float(query["t1"])
        except (KeyError, ValueError) as exc:
            raise HttpError(400, "window needs numeric t0 and t1") from exc
        trace, index = self.tables.get(digest, self.repo.path(digest))
        # Column *views* over the shared map — the O(n)-copy
        # SampleIndex.window() would materialize the whole slice
        # on the event loop for every request.
        sl = index.samples.time_slice(t0, t1)
        n = int(sl.stop - sl.start)
        table = trace.sample_table()
        op = table.column("op")[sl]
        latency = table.column("latency")[sl]
        body = sealed_bytes(
            {
                "version": PAYLOAD_VERSION,
                "digest": digest,
                "t0_ns": t0,
                "t1_ns": t1,
                "n_samples": n,
                "n_loads": int((op == 0).sum()) if n else 0,
                "n_stores": int((op == 1).sum()) if n else 0,
                "mean_latency": float(latency.mean()) if n else 0.0,
                "max_latency": float(latency.max()) if n else 0.0,
            }
        )
        return 200, body, {}

    def _regions(self, digest: str) -> tuple[int, bytes, dict]:
        _trace, index = self.tables.get(digest, self.repo.path(digest))
        ev = index.events
        body = sealed_bytes(
            {
                "version": PAYLOAD_VERSION,
                "digest": digest,
                "regions": [
                    {
                        "name": name,
                        "n_intervals": len(ev.region_intervals(name)),
                    }
                    for name in ev.region_names
                ],
                "n_iterations": len(ev.iteration_times()),
            }
        )
        return 200, body, {}

    def _region_detail(self, digest: str, name: str) -> tuple[int, bytes, dict]:
        _trace, index = self.tables.get(digest, self.repo.path(digest))
        ev = index.events
        if name not in ev.region_names:
            raise HttpError(404, f"no region {name!r} in trace {digest[:12]}")
        intervals = []
        for start, end in ev.region_intervals(name):
            sl = index.samples.time_slice(start, end)
            intervals.append(
                {
                    "t0_ns": float(start),
                    "t1_ns": float(end),
                    "n_samples": int(sl.stop - sl.start),
                }
            )
        body = sealed_bytes(
            {
                "version": PAYLOAD_VERSION,
                "digest": digest,
                "region": name,
                "intervals": intervals,
            }
        )
        return 200, body, {}

    # -- folds (workers + caches + coalescing) -------------------------------
    async def _fold(
        self, digest: str, query: dict, headers: dict
    ) -> tuple[int, bytes, dict]:
        self.counters["fold_requests"] += 1
        direction, spec, points = _fold_request(query)
        etag = self._fold_etag(digest, direction, spec, points)
        etag_header = {"etag": f'"{etag}"'}

        if_none_match = headers.get("if-none-match", "")
        if etag in if_none_match:
            self.counters["not_modified"] += 1
            return 304, b"", etag_header

        cached = self.responses.get(etag)
        if cached is not None:
            self.counters["response_cache_hits"] += 1
            return 200, cached, etag_header

        inflight = self._inflight.get(etag)
        if inflight is not None:
            self.counters["folds_coalesced"] += 1
            body = await asyncio.shield(inflight)
            return 200, body, etag_header

        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._inflight[etag] = fut
        try:
            body = await self._compute_fold(digest, direction, spec, points)
            fut.set_result(body)
        except BaseException as exc:
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # mark retrieved for the no-waiter case
            raise
        finally:
            self._inflight.pop(etag, None)
        self.responses.put(etag, body)
        return 200, body, etag_header

    async def _compute_fold(
        self, digest: str, direction: str, spec: FoldSpec, points: int
    ) -> bytes:
        loop = asyncio.get_running_loop()
        pool = self._pool
        try:
            body, folded = await loop.run_in_executor(
                pool,
                fold_payload_job,
                str(self.repo.path(digest)),
                digest,
                direction,
                spec,
                points,
                str(self.cache_dir),
            )
        except BrokenProcessPool as exc:
            # A dead worker fails every job of its pool; only the first
            # failure to arrive still finds that pool installed, so the
            # pool is replaced once, not once per job.
            if self._pool is pool:
                logger.warning("fold worker died; starting a new fold pool")
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            raise HttpError(503, "fold worker died; retry the request") from exc
        self.counters["folds_cold" if folded else "folds_warm_cache"] += 1
        return body

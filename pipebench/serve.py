"""Serve rounds: the analysis server in its own process, two clients.

A round starts ``python -m repro.cli serve --workers 1`` over a fresh
repository and fold cache, waits for its ``serving … on
http://host:port`` line, drives it with one load-generating process
(this one) holding two keep-alive connections in a closed loop over a
seeded request sequence, reads its ``/v1/stats`` and peak RSS, and
stops it with SIGINT.  After the stop no fold worker may outlive the
server: SIGTERM leaves the pool's forked worker orphaned (re-parented
to PID 1, still holding its memory), so the round stops with SIGINT
and checks.

The request sequence is the same rule on every workload (see
:func:`build_round`); only what the workload serves — its traces,
directions and fit points — changes the requests.  It is synthetic:
no recorded client traffic stands behind it.  It follows what viewers
of the reports do with :class:`ServiceClient` and its default
revalidation, and its one free count, :data:`WINDOWS`, was chosen for
the median's stability: time-window queries are most of the requests
on every workload, so the median request is one of them, inside one
latency mode, instead of on the boundary between two.

Request classes, as the client sees them:

* ``cold`` — the first fold request for its (trace, fit point) on the
  round's fresh fold cache; it pays a real fold in the worker, or
  waits for one when both connections ask at once;
* ``fold_cache`` — the first request for another direction of that
  fold, which the server answers from the on-disk fold cache;
* ``warm_fold`` — any other fold answered 200 (response cache);
* ``revalidate`` — a fold repeat with ``If-None-Match`` answered 304;
* ``query`` — time-window and region queries.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

from repro.service import ServiceClient, ServiceError
from repro.service.payloads import payload_digest
from step import vmhwm_mb

__all__ = ["Request", "ServerProcess", "build_round", "drive_phase", "open_clients"]

_SERVE_TIMEOUT_S = 60.0

#: time-window queries per connection and round, over the traces in turn
WINDOWS = 24
#: scatter/track rows requested in address and line payloads
POINTS = 20_000


class ServerProcess:
    """``bsc-memtools-serve`` as a child process, started and stopped cleanly."""

    def __init__(self, src: Path, root: Path, log_path: Path) -> None:
        self.src = src
        self.root = root
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.launched = 0.0  # perf_counter at launch
        self.setup_s = 0.0

    def start(self, speedometer) -> None:
        """Launch and block until the serving line (no sleep-polling);
        *speedometer* (a :class:`speed.Speedometer`) follows the server
        process until then."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        self.launched = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--root",
                 str(self.root), "--port", "0", "--workers", "1"],
                stdout=subprocess.PIPE, stderr=log, env=env,
            )
        speedometer.follow = self.proc.pid
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], _SERVE_TIMEOUT_S)
            line = self.proc.stdout.readline().decode(errors="replace") if ready else ""
        finally:
            speedometer.follow = None
        if "http://" not in line:
            self.kill()
            raise RuntimeError(f"server did not print its serving line: {line!r}")
        self.setup_s = time.perf_counter() - self.launched
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_mb(self) -> float:
        """VmHWM of the server process (not its fold worker)."""
        return vmhwm_mb(self.proc.pid)

    def _children(self) -> list[int]:
        kids = []
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                kids += [int(p) for p in (task / "children").read_text().split()]
            except OSError:
                continue
        return kids

    def stop(self) -> list[str]:
        """SIGINT, wait, and check that no worker outlived the server.

        Returns the problems found (empty when the stop was clean);
        anything left running is killed so later rounds start clean.
        """
        if self.proc.poll() is not None:
            self.proc.stdout.close()
            return [f"server exited before its stop, code {self.proc.returncode}"]
        problems = []
        workers = self._children()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            problems.append("server ignored SIGINT for 30 s")
            self.kill()
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        alive = [pid for pid in workers if _running(pid)]
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if _running(pid)]
        for pid in alive:
            problems.append(f"fold worker {pid} outlived the server")
            os.kill(pid, signal.SIGKILL)
        return problems

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Request:
    """One request of a round's sequence and, after it ran, its outcome."""

    __slots__ = ("tag", "kind", "digest", "params", "status", "started",
                 "latency_s", "scaled_s", "payload_digest", "error")

    def __init__(self, tag: str, kind: str, digest: str, params: dict) -> None:
        self.tag = tag  # "cold" | "fold_cache" by its place in the sequence, else ""
        self.kind = kind  # "fold" | "panel" | "window" | "regions"
        self.digest = digest
        self.params = params
        self.status = 0
        self.started = 0.0  # perf_counter when it was sent
        self.latency_s = 0.0
        self.scaled_s = 0.0  # latency_s at the reference host speed
        self.payload_digest = None
        self.error = None

    @property
    def is_fold(self) -> bool:
        return self.kind in ("fold", "panel")

    @property
    def key(self) -> tuple:
        """(trace, direction, grid, bandwidth, points, stream) of a fold."""
        p = self.params
        return (self.digest, p["direction"], p["grid"], p["bandwidth"],
                p["points"], p["stream"])

    @property
    def cls(self) -> str:
        if not self.is_fold:
            return "query"
        if self.tag:
            return self.tag
        return "revalidate" if self.status == 304 else "warm_fold"


class _TimedClient(ServiceClient):
    """ServiceClient that times each raw HTTP exchange it makes.

    *verified* maps the SHA-256 of every fold body this load generator
    has checked to its payload digest; the clients of a run share it.
    """

    def __init__(self, host: str, port: int, verified: dict, timeout: float) -> None:
        super().__init__(host, port, timeout=timeout)
        self.verified = verified

    def get(self, path, headers=None):
        t0 = time.perf_counter()
        status, resp_headers, body = super().get(path, headers)
        self.last = (status, t0, time.perf_counter() - t0)
        return status, resp_headers, body

    def panel(self, digest: str, p: dict) -> str:
        """GET a fold panel without ``If-None-Match``, as
        :meth:`ServiceClient.fold` does for a panel it holds no copy
        of; returns its payload digest.

        The body gets the digest check of ``ServiceClient.fold`` the
        first time these exact bytes arrive; a repeat of a checked body
        (the same panel in a later round) is only hashed.  Parsing and
        re-digesting a 1 MB address panel takes the client about 65 ms
        against a request latency near 1 ms, and would otherwise set
        the length of a round.  Two connections racing on one new body
        both check it and store the same digest.
        """
        query = {"direction": p["direction"], "grid": str(p["grid"]),
                 "bandwidth": repr(p["bandwidth"])}
        if p["stream"]:
            query["stream"] = "1"
        if p["points"]:
            query["points"] = str(p["points"])
        status, _headers, body = self.get(f"/v1/traces/{digest}/fold?{urlencode(query)}")
        if status != 200:
            raise ServiceError(status, body.decode(errors="replace"))
        sha = hashlib.sha256(body).digest()
        if sha not in self.verified:
            payload = json.loads(body)
            claimed = payload.get("payload_digest")
            if claimed != payload_digest(payload):
                raise ServiceError(200, f"payload digest mismatch: {claimed}")
            self.verified[sha] = claimed
        return self.verified[sha]


def _run(client: _TimedClient, req: Request) -> None:
    p = req.params
    try:
        if req.kind == "fold":
            payload = client.fold(
                req.digest, p["direction"], grid=p["grid"],
                bandwidth=p["bandwidth"], stream=p["stream"],
                points=p["points"] or None,
            )
            req.payload_digest = payload["payload_digest"]
        elif req.kind == "panel":
            req.payload_digest = client.panel(req.digest, p)
        elif req.kind == "window":
            client.window(req.digest, p["t0"], p["t1"])
        else:
            client.regions(req.digest)
        req.status, req.started, req.latency_s = client.last
    except (ServiceError, OSError, http.client.HTTPException, ValueError) as exc:
        req.status, req.started, req.latency_s = getattr(client, "last", (0, 0.0, 0.0))
        req.error = f"{type(exc).__name__}: {exc}"
        client.close()  # the next request reconnects


def drive_phase(clients, ops_a: list, ops_b: list, together: bool = True) -> None:
    """Both connections run their lists, each closed-loop: concurrently
    and starting at once, or (``together=False``) one after the other."""
    # The clients keep every payload they received (for 304s); a
    # collector pass over them inside a timed request would be the
    # load generator's pause, not the server's latency.
    gc.disable()
    try:
        if not together:
            for client, ops in zip(clients, (ops_a, ops_b)):
                for req in ops:
                    _run(client, req)
            return
        barrier = threading.Barrier(2)

        def worker(client, ops):
            barrier.wait()
            for req in ops:
                _run(client, req)

        other = threading.Thread(target=worker, args=(clients[1], ops_b))
        other.start()
        worker(clients[0], ops_a)
        other.join()
    finally:
        gc.enable()


def open_clients(port: int, verified: dict):
    return [_TimedClient("127.0.0.1", port, verified, timeout=_SERVE_TIMEOUT_S)
            for _ in range(2)]


def _fold(tag, digest, direction, fit, wl, kind="fold"):
    points = POINTS if direction != "counters" else 0
    return Request(tag, kind, digest, {
        "direction": direction, "grid": fit[0], "bandwidth": fit[1],
        "points": points, "stream": wl.stream,
    })


def build_round(rng: random.Random, wl, traces: dict, new: str | None):
    """The seeded request sequence of one serve round, as phases.

    *traces* maps the digests in the repository at round start to
    their time span (ns); *new* is a digest published mid-round.
    Returns ``[(publish_digest_or_None, together, ops_a, ops_b), ...]``:
    with ``together`` the two connections start the phase at once,
    otherwise one runs its list after the other.  A key is a (trace,
    fit point); the first of the workload's directions is its counters
    panel, the rest (if any) its address and line panels.

    1. Cold: for each key, in seeded order, both connections ask for
       its first direction at once, as two viewers opening the same
       report — one fold in the worker, one coalesced wait, so a cold
       latency never depends on how two folds happened to overlap in
       the single worker.
    2. Publish (only with *new*), then the same pair for the new trace.
    3. First fetch: each connection fetches the other panels of half
       the keys, from the fold cache the worker filled.
    4. Cross fetch, one connection after the other: each fetches the
       other half's panels (response cache, 200).
    5. Browse, one connection after the other: each trace's region
       list, then :data:`WINDOWS` time-window queries of a tenth of a
       trace's span at seeded offsets, over the traces in turn — a
       viewer stepping through the repository.  With more traces than
       the server's open-trace cache holds, this cyclic order reopens
       a trace's map for every request.
    6. Revalidate, one connection after the other: every key's first
       direction once more (``If-None-Match``, 304).

    Cold pairs and revalidations go through :meth:`ServiceClient.fold`
    with its default revalidation; the other panels are plain GETs
    (:meth:`_TimedClient.panel`), which is what ``ServiceClient.fold``
    sends for a panel its connection has not fetched before.
    Phases 4 to 6 run one connection at a time because a request that
    waits on the other connection — its heavy request on the event
    loop, or its payload check holding this process's interpreter
    lock — lands in another latency mode, and how often that happens
    would move the median.
    """
    first, rest = wl.directions[0], wl.directions[1:]

    def pair(digest, fit):
        return [_fold("cold", digest, first, fit, wl)], [_fold("cold", digest, first, fit, wl)]

    def panels(keys, tag=""):
        return [_fold(tag, d, direction, fit, wl, "panel")
                for d, fit in keys for direction in rest]

    keys = [(d, fit) for d in sorted(traces) for fit in wl.fit_points]
    rng.shuffle(keys)
    phases = [(None, True, *pair(d, fit)) for d, fit in keys]
    if new is not None:
        phases.append((new, True, *pair(new, wl.fit_points[0])))
        keys.append((new, wl.fit_points[0]))
    own = (keys[0::2], keys[1::2])
    order = sorted(traces)
    fetch, cross, browse, again = ([], []), ([], []), ([], []), ([], [])
    for side in (0, 1):
        fetch[side].extend(panels(own[side], "fold_cache"))
        cross[side].extend(panels(own[1 - side]))
        browse[side].extend(Request("", "regions", d, {}) for d in order)
        for i in range(WINDOWS):
            d = order[i % len(order)]
            t0 = rng.uniform(0.0, 0.9) * traces[d]
            browse[side].append(Request("", "window", d, {"t0": t0, "t1": t0 + 0.1 * traces[d]}))
        again[side].extend(_fold("", d, first, fit, wl) for d, fit in keys)
        rng.shuffle(again[side])
    phases += [(None, True, *fetch), (None, False, *cross),
               (None, False, *browse), (None, False, *again)]
    return phases

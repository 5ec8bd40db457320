"""``service`` scenario: the analysis service, cold vs warm folds.

Builds a temporary content-addressed repository with two STREAM
traces, starts the :class:`~repro.service.server.AnalysisServer` on an
ephemeral port, and drives it in four phases:

* **payloads** — every (trace, direction) fold at the default spec, and
  the streamed counters fold, is requested once; each payload digest
  must match a direct :func:`~repro.folding.report.fold_trace` of the
  same container (always checked);
* **cold folds** — each pair folds the counters of a trace no worker
  has seen: a copy of the first trace that differs only in its
  metadata, so it has its own digest, and no worker can refit a plan
  it kept (a new fit point of a planned trace is a refit, not a fold).
  Then one idle client requests the same key again, which the
  response cache answers (recorded); the warm payload must equal the
  cold one;
* **refits** — a second, one-worker server over the same copies and a
  fresh fold cache: each pair folds a copy no request of this server
  has folded, then the same copy at another bandwidth, which the
  worker refits from the plan it kept (recorded; the refit payload
  must equal a direct fold's);
* **load** — ``CLIENTS`` concurrent clients issue a mixed stream of
  fold, window and region requests against the warm caches; half of
  them revalidate with ``If-None-Match`` (the 304 path), half fetch
  full bodies (the response cache).  Throughput and latency
  percentiles are recorded; every fold payload is digest-checked and
  no client may fail (both always checked).

The gate, ``warm_vs_cold``, is the median cold fold of the pairs over
the median fold latency under the load, at ``MIN_WARM_SPEEDUP``: a
warm fold must stay cheap while ``CLIENTS`` clients share the event
loop, not only when one client has it to itself.
"""

from __future__ import annotations

import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from repro.extrae.trace import Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient
from repro.service.payloads import fold_payload
from repro.workloads.stream import StreamConfig, StreamWorkload

DIRECTIONS = ("counters", "address", "lines")
STREAM_N = 400_000
ITERATIONS = 10
PERIOD = 6
SEEDS = (21, 22)
CLIENTS = 8
REQUESTS = 25
WORKERS = 2
PAIRS = 8
MIN_WARM_SPEEDUP = 10
#: the fit point a refit pair asks for after the default one
REFIT_BANDWIDTH = 0.02


def build_repo(root: Path):
    """Populate a repository; return it and {digest: reference digests}."""
    repo = TraceRepo(root)
    reference = {}
    for seed in SEEDS:
        trace = run_workload(
            StreamWorkload(StreamConfig(n=STREAM_N, iterations=ITERATIONS)),
            SessionConfig(
                seed=seed,
                tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD),
            ),
        )
        report = fold_trace(trace)
        reference[repo.put(trace).digest] = {
            direction: fold_payload(report, direction)["payload_digest"]
            for direction in DIRECTIONS
        }
    return repo, reference


def add_copies(repo, digest: str, n: int) -> list[str]:
    """Digests of *n* copies of a stored trace that differ only in metadata.

    Each copy folds exactly like the original, but under its own
    digest, which no worker has folded or planned yet.
    """
    digests = []
    for i in range(n):
        with Trace.load(repo.path(digest)) as copy:
            copy.metadata["copy"] = i
            digests.append(repo.put(copy).digest)
    return digests


def pair_sides(client, copies: list[str], **again):
    """The two sides of a cold pair on *client*.

    The first folds the next copy in *copies*; the second asks for the
    same copy again, with *again* changing the query (none: the same
    key, which the response cache answers).
    """
    unfolded = iter(copies)
    current = {}

    def cold():
        current["digest"] = next(unfolded)
        return client.fold(current["digest"])

    def second():
        return client.fold(current["digest"], revalidate=False, **again)

    return cold, second, current


@contextmanager
def running(server):
    """Run *server* on a background thread until the block exits."""
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    while not server.port and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        if not server.port:
            raise RuntimeError("server did not come up")
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=60)


def payload_mismatches(port: int, reference: dict) -> int:
    """Fold every key once at the default spec; count digest mismatches."""
    mismatches = 0
    with ServiceClient("127.0.0.1", port) as client:
        for digest, want in reference.items():
            for direction in DIRECTIONS:
                payload = client.fold(digest, direction)
                mismatches += payload["payload_digest"] != want[direction]
            # the streamed counters path must land on the same digest
            streamed = client.fold(digest, "counters", stream=True)
            mismatches += streamed["payload_digest"] != want["counters"]
    return mismatches


def warm_client(port: int, reference: dict, revalidate: bool):
    """One concurrent client's mixed warm workload."""
    fold_lat, query_lat, mismatches = [], [], 0
    digests = sorted(reference)
    with ServiceClient("127.0.0.1", port) as client:
        for i in range(REQUESTS):
            digest = digests[i % len(digests)]
            kind = i % 5
            t0 = time.perf_counter()
            if kind < 3:  # folds dominate the mix
                direction = DIRECTIONS[kind]
                payload = client.fold(digest, direction, revalidate=revalidate)
                fold_lat.append(time.perf_counter() - t0)
                mismatches += (
                    payload["payload_digest"] != reference[digest][direction]
                )
            elif kind == 3:
                client.window(digest, 0.0, 1e15)
                query_lat.append(time.perf_counter() - t0)
            else:
                client.regions(digest)
                query_lat.append(time.perf_counter() - t0)
    return fold_lat, query_lat, mismatches


def percentile(latencies: list[float], q: float) -> float:
    latencies = sorted(latencies)
    return round(latencies[min(len(latencies) - 1, int(q * len(latencies)))], 5)


def measure(bench) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        repo, reference = build_repo(Path(tmp) / "repo")
        # one unfolded copy per cold pair, and one for the warm-up pair
        copies = add_copies(repo, sorted(reference)[0], PAIRS + 1)
        with running(AnalysisServer(repo, workers=WORKERS)) as server:
            bench.check("payload_digests_equal",
                        payload_mismatches(server.port, reference) == 0)

            with ServiceClient("127.0.0.1", server.port) as client:
                cold, warm, _current = pair_sides(client, copies)
                cold_payload, warm_payload = bench.time_ratio(
                    "uncontended_warm_vs_cold", cold, warm, pairs=PAIRS,
                )
            bench.check("warm_payload_equals_cold",
                        warm_payload["payload_digest"]
                        == cold_payload["payload_digest"])

            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                futures = [
                    pool.submit(warm_client, server.port, reference, i % 2 == 0)
                    for i in range(CLIENTS)
                ]
            wall_s = time.perf_counter() - t0
            errors = sum(f.exception() is not None for f in futures)
            results = [f.result() for f in futures if f.exception() is None]
            with ServiceClient("127.0.0.1", server.port) as stats_client:
                stats = stats_client.stats()

        refit_server = AnalysisServer(
            repo, workers=1, cache_dir=Path(tmp) / "refit-cache"
        )
        with running(refit_server) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                cold, refit, current = pair_sides(
                    client, copies, bandwidth=REFIT_BANDWIDTH
                )
                _cold, refit_payload = bench.time_ratio(
                    "refit_vs_cold", cold, refit, pairs=PAIRS,
                )
            refit_folds = server.counters["folds_cold"]
        with Trace.load(repo.path(current["digest"])) as copy:
            direct = fold_payload(
                fold_trace(copy, bandwidth=REFIT_BANDWIDTH), "counters"
            )
        bench.check("refit_payload_equals_direct_fold",
                    refit_payload["payload_digest"] == direct["payload_digest"])
        bench.check("refits_count_as_folds", refit_folds == 2 * (PAIRS + 1))

    fold_lat = [x for r in results for x in r[0]]
    query_lat = [x for r in results for x in r[1]]
    bench.check("load_payload_digests_equal",
                sum(r[2] for r in results) == 0)
    bench.check("no_client_errors", errors == 0)
    n_requests = len(fold_lat) + len(query_lat)
    fold_p50 = percentile(fold_lat, 0.50) if fold_lat else None
    cold_s = bench.time["uncontended_warm_vs_cold"]["baseline_median_s"]
    speedup = cold_s / fold_p50 if fold_p50 else 0.0
    bench.bound("warm_vs_cold", round(speedup, 1), floor=MIN_WARM_SPEEDUP)
    return {
        "workload": f"2x STREAM n={STREAM_N}, {ITERATIONS} iterations, "
                    f"period {PERIOD}; {CLIENTS} clients x {REQUESTS} "
                    f"requests, {WORKERS} fold workers",
        "load": {
            "n_requests": n_requests,
            "wall_seconds": round(wall_s, 3),
            "requests_per_second": round(n_requests / wall_s, 1),
            "fold_p50_seconds": fold_p50,
            "fold_p99_seconds": percentile(fold_lat, 0.99) if fold_lat else None,
            "query_p50_seconds": percentile(query_lat, 0.50) if query_lat else None,
        },
        "server_counters": stats["counters"],
    }

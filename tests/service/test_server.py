"""AnalysisServer: endpoints, caching/ETag semantics, concurrency."""

import json
import logging
import os
import signal
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from urllib.parse import quote

import numpy as np
import pytest

import repro.service.server as server_module
from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.report import fold_trace
from repro.folding.spec import FoldSpec
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient, ServiceError
from repro.service.payloads import (
    address_payload,
    counters_payload,
    lines_payload,
    payload_digest,
)

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


@contextmanager
def serving(server):
    """Run *server* on a background thread until the block exits."""
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not server.port and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.port, "server did not come up"
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not stop"


@pytest.fixture(scope="module")
def served(traced, tmp_path_factory):
    """A live server over a one-trace repository (module-shared)."""
    root = tmp_path_factory.mktemp("service")
    repo = TraceRepo(root / "repo")
    entry = repo.put(traced)
    with serving(AnalysisServer(repo, workers=2, trace_cache_capacity=4)) as server:
        yield server, entry


@pytest.fixture()
def client(served):
    server, _entry = served
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestBasicEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_traces_listing(self, served, client):
        _server, entry = served
        listing = client.traces()
        assert listing["n_traces"] == 1
        assert listing["traces"][0]["digest"] == entry.digest

    def test_trace_meta_by_prefix(self, served, client, traced):
        _server, entry = served
        meta = client.trace(entry.digest[:8])
        assert meta["digest"] == entry.digest
        assert meta["meta"]["n_samples"] == traced.n_samples

    def test_unknown_digest_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.trace("0000beef")
        assert exc.value.status == 404

    def test_unknown_path_is_404(self, client):
        status, _headers, _body = client.get("/nope")
        assert status == 404

    def test_stats_endpoint(self, client):
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["counters"]["requests"] >= 1

    def test_internal_error_body_hides_the_exception(
        self, served, client, monkeypatch, caplog
    ):
        server, _entry = served

        def broken_route():
            raise RuntimeError("/secret/path")

        monkeypatch.setattr(server, "_list_traces", broken_route)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            status, _headers, body = client.get("/v1/traces")
        assert status == 500
        assert b"/secret/path" not in body
        assert json.loads(body) == {"error": "internal error", "status": 500}
        assert "/secret/path" in caplog.text  # the traceback is logged
        assert client.healthz() == {"ok": True}

    def test_malformed_request_line_is_400(self, served, client):
        server, _entry = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after it
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert client.healthz() == {"ok": True}

    def test_oversized_request_head_is_400(self, served, client):
        server, _entry = served
        errors = server.counters["errors"]
        head = b"GET /v1/healthz HTTP/1.1\r\nx-pad: " + b"a" * 70_000 + b"\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after it
                reply += chunk
        status_line, body = reply.split(b"\r\n\r\n", 1)
        assert status_line.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert json.loads(body) == {"error": "request head too large", "status": 400}
        assert server.counters["errors"] == errors + 1
        assert client.healthz() == {"ok": True}

    def test_request_head_cut_off_by_eof_is_400(self, served, client):
        server, _entry = served
        errors = server.counters["errors"]
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nhost: x")
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after it
                reply += chunk
        status_line, body = reply.split(b"\r\n\r\n", 1)
        assert status_line.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert json.loads(body) == {"error": "request head cut off", "status": 400}
        assert server.counters["errors"] == errors + 1
        assert client.healthz() == {"ok": True}

    def test_keep_alive_connection_closed_between_requests_is_quiet(
        self, served, client
    ):
        server, _entry = served
        errors = server.counters["errors"]
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after it
                reply += chunk
        status_line, body = reply.split(b"\r\n\r\n", 1)
        assert status_line.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(body) == {"ok": True}  # and nothing after it
        assert server.counters["errors"] == errors
        assert client.healthz() == {"ok": True}

    def test_traversal_digest_is_404(self, served, client, traced):
        """A 64-character "digest" that climbs out of the repository
        through an existing shard names no trace."""
        server, entry = served
        outside = server.repo.root.parent / "outside"
        outside.mkdir(exist_ok=True)
        traced.save(outside / "trace.bsctrace", version=2, compression="none")
        evil = quote(entry.digest[:2] + "../../../outside" + "/." * 23, safe="")
        opens = server.tables.opens
        fold_requests = server.counters["fold_requests"]
        for tail in ("", "/window?t0=0&t1=1e15", "/regions", "/fold"):
            status, _headers, body = client.get(f"/v1/traces/{evil}{tail}")
            assert status == 404, tail
            assert json.loads(body)["status"] == 404
        assert server.tables.opens == opens
        assert server.counters["fold_requests"] == fold_requests

    def test_payloads_are_digest_stamped(self, served, client):
        _server, entry = served
        meta = client.trace(entry.digest)
        assert meta["payload_digest"] == payload_digest(meta)


class TestIndexQueries:
    def test_window_counts_match_trace(self, served, client, traced):
        _server, entry = served
        table = traced.sample_table()
        t = np.asarray(table.column("time_ns"))
        t0, t1 = float(t.min()), float(np.median(t))
        win = client.window(entry.digest, t0, t1)
        in_window = (t >= t0) & (t < t1)
        assert win["n_samples"] == int(in_window.sum())
        assert win["n_loads"] + win["n_stores"] == win["n_samples"]

    def test_window_requires_bounds(self, served, client):
        _server, entry = served
        status, _h, _b = client.get(f"/v1/traces/{entry.digest}/window?t0=1")
        assert status == 400

    def test_regions_listing(self, served, client, traced):
        _server, entry = served
        regions = client.regions(entry.digest)
        names = {r["name"] for r in regions["regions"]}
        assert names  # the stream workload marks its kernels
        detail = client.region(entry.digest, sorted(names)[0])
        assert detail["intervals"]
        assert all(iv["t1_ns"] >= iv["t0_ns"] for iv in detail["intervals"])

    def test_unknown_region_is_404(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.region(entry.digest, "NoSuchRegion")
        assert exc.value.status == 404


class TestFoldEndpoint:
    def test_counters_payload_matches_direct_fold(self, served, client, traced):
        _server, entry = served
        got = client.fold(entry.digest, "counters")
        want = counters_payload(fold_trace(traced))
        assert got["payload_digest"] == want["payload_digest"]

    def test_address_and_lines_match_direct_fold(self, served, client, traced):
        _server, entry = served
        report = fold_trace(traced)
        assert client.fold(entry.digest, "address")["payload_digest"] == \
            address_payload(report)["payload_digest"]
        assert client.fold(entry.digest, "lines")["payload_digest"] == \
            lines_payload(report)["payload_digest"]

    def test_streamed_counters_share_the_resident_digest(
        self, served, client
    ):
        _server, entry = served
        resident = client.fold(entry.digest, "counters")
        streamed = client.fold(entry.digest, "counters", stream=True)
        assert streamed["payload_digest"] == resident["payload_digest"]

    def test_reps_fold(self, served, client, traced):
        _server, entry = served
        payload = client.fold(entry.digest, "counters", reps=2)
        assert 0 < payload["n_folded"] <= traced.n_samples
        assert payload["n_instances"] > 0

    def test_bad_direction_is_400(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.fold(entry.digest, "sideways")
        assert exc.value.status == 400

    def test_reps_outside_counters_is_400(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.fold(entry.digest, "address", reps=2)
        assert exc.value.status == 400

    @pytest.mark.parametrize("query", [
        "bandwidth=nan", "bandwidth=inf", "bandwidth=0", "bandwidth=-1",
        "grid=0", "grid=1", "grid=-5", "reps=-1", "reps=2&seed=-1",
        "stream=1&reps=2", "direction=address&points=-3",
    ])
    def test_bad_fold_parameters_are_400(self, served, client, query):
        server, entry = served
        before = server.fold_cache.stats().n_entries
        status, _headers, _body = client.get(
            f"/v1/traces/{entry.digest}/fold?{query}"
        )
        assert status == 400
        assert server.fold_cache.stats().n_entries == before
        assert client.healthz() == {"ok": True}

    def test_etag_revalidation_yields_304(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            first = c.fold(entry.digest, "counters", grid=151)
            before = server.counters["not_modified"]
            second = c.fold(entry.digest, "counters", grid=151)
            assert second == first
            assert c.n_304 == 1
            assert server.counters["not_modified"] == before + 1

    def test_response_cache_serves_repeat_bodies(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            c.fold(entry.digest, "counters", grid=171)
            before = server.counters["response_cache_hits"]
            c.fold(entry.digest, "counters", grid=171, revalidate=False)
            assert server.counters["response_cache_hits"] == before + 1

    def test_spellings_of_one_fold_share_its_etag(self, served):
        """The ETag names the fold as the fold cache does: a streamed
        spelling, a seed without reps and a points bound the counters
        payload ignores all name the same body."""
        server, entry = served
        fold = f"/v1/traces/{entry.digest}/fold?direction=counters&grid=181"
        with ServiceClient("127.0.0.1", server.port) as c:
            status, headers, body = c.get(fold)
            assert status == 200
            for spelling in ("&stream=1", "&seed=3", "&points=5"):
                hits = server.counters["response_cache_hits"]
                again = c.get(fold + spelling)
                assert again == (200, headers, body)
                assert server.counters["response_cache_hits"] == hits + 1

    def test_concurrent_identical_folds_coalesce(self, served):
        server, entry = served
        before_cold = server.counters["folds_cold"]

        def fetch(_):
            with ServiceClient("127.0.0.1", server.port) as c:
                return c.fold(entry.digest, "counters", grid=123)

        with ThreadPoolExecutor(max_workers=6) as pool:
            payloads = list(pool.map(fetch, range(6)))
        digests = {p["payload_digest"] for p in payloads}
        assert len(digests) == 1
        # one fold computed; everyone else coalesced onto it or hit a cache
        assert server.counters["folds_cold"] == before_cold + 1

    def test_warm_cache_answers_without_a_fold(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            c.fold(entry.digest, "counters", grid=133)  # cold: warms FoldCache
            cold = server.counters["folds_cold"]
            # different direction, same fold parameters: the worker
            # serves it from the cached resident report
            c.fold(entry.digest, "address", grid=133)
            assert server.counters["folds_cold"] == cold
            assert server.counters["folds_warm_cache"] >= 1


def _kill_own_worker(*_args):
    """A fold job whose worker dies the way an OOM-killed one does."""
    time.sleep(2.0)  # long enough for the other requests to arrive
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeath:
    def test_dead_worker_answers_503_and_the_pool_respawns(
        self, traced, tmp_path, monkeypatch
    ):
        repo = TraceRepo(tmp_path / "repo")
        entry = repo.put(traced)
        with serving(AnalysisServer(repo, workers=1)) as server:
            pools = []

            class CountedPool(ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    pools.append(self)

            monkeypatch.setattr(server_module, "fold_payload_job", _kill_own_worker)
            monkeypatch.setattr(server_module, "ProcessPoolExecutor", CountedPool)
            fold = f"/v1/traces/{entry.digest}/fold?direction=counters"

            def fetch(path):
                with ServiceClient("127.0.0.1", server.port) as c:
                    return c.get(path)[0]

            with ServiceClient("127.0.0.1", server.port) as health:
                with ThreadPoolExecutor(max_workers=3) as clients:
                    # two coalesced requests, and one queued behind them
                    # on the same pool
                    statuses = clients.map(fetch, [fold, fold, fold + "&grid=151"])
                    time.sleep(0.3)
                    assert health.healthz() == {"ok": True}  # mid-fold
                    assert list(statuses) == [503, 503, 503]
                assert server.counters["folds_coalesced"] == 1
                assert len(pools) == 1  # one new pool per broken pool
                assert health.healthz() == {"ok": True}

                monkeypatch.undo()
                got = health.fold(entry.digest, "counters")
                want = counters_payload(fold_trace(traced))
                assert got["payload_digest"] == want["payload_digest"]
                assert health.healthz() == {"ok": True}


class TestCorruptContainer:
    def test_truncated_container_answers_500_and_spares_the_rest(
        self, served, client, traced, tmp_path, caplog
    ):
        _server, entry = served
        t1 = traced.duration_ns() / 2
        want = [
            client.window(entry.digest, 0.0, t1),
            client.regions(entry.digest),
            client.fold(entry.digest, "counters"),
        ]
        repo = TraceRepo(tmp_path / "repo")
        assert repo.put(traced).digest == entry.digest
        with Trace.load(repo.path(entry.digest)) as variant:
            variant.metadata["variant"] = 1
            bad = repo.put(variant)
        with open(bad.path, "r+b") as f:  # truncate in place
            f.truncate(bad.path.stat().st_size // 2)
        assert list(repo.fsck()) == [bad.digest]
        internal_error = {"error": "internal error", "status": 500}

        with serving(AnalysisServer(repo, workers=1)) as server:
            with ServiceClient("127.0.0.1", server.port) as c:
                with caplog.at_level(logging.ERROR, logger="repro.service"):
                    for tail in ("window?t0=0&t1=1e15", "fold"):
                        status, _h, body = c.get(f"/v1/traces/{bad.digest}/{tail}")
                        assert status == 500, tail
                        assert json.loads(body) == internal_error
                assert c.healthz() == {"ok": True}
                got = [
                    c.window(entry.digest, 0.0, t1),
                    c.regions(entry.digest),
                    c.fold(entry.digest, "counters"),
                ]
                assert [p["payload_digest"] for p in got] == [
                    p["payload_digest"] for p in want
                ]
                assert c.healthz() == {"ok": True}


class TestCorruptFoldCacheEntry:
    def test_garbage_entry_is_refolded_and_rewritten(self, traced, tmp_path):
        """A stored ``.foldreport`` overwritten with garbage while the
        server runs: a worker that never held the fold reads it from
        disk, folds again, answers the cold body and rewrites it."""
        repo = TraceRepo(tmp_path / "repo")
        entry = repo.put(traced)
        report = fold_trace(traced)
        with serving(AnalysisServer(repo, workers=1)) as server:
            # another process sharing the directory stored the fold...
            cache = FoldCache(server.cache_dir)
            path = cache.put(cache.key(entry.digest, FoldSpec()), report)
            garbage = b"\x80\x05 not a fold report" * 64
            path.write_bytes(garbage)  # ...and it went bad on disk
            with ServiceClient("127.0.0.1", server.port) as c:
                got = c.fold(entry.digest, "counters")
                assert server.counters["folds_cold"] == 1
                assert c.healthz() == {"ok": True}
        assert got == counters_payload(report)
        rewritten = path.read_bytes()
        assert rewritten != garbage
        fresh = FoldCache(path.parent).get(path.stem)
        assert counters_payload(fresh) == got

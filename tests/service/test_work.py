"""fold_payload_job: the one place the service decides hit or fold."""

import pytest

from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.report import fold_trace
from repro.folding.spec import DIRECTIONS, FoldSpec
from repro.folding.stream import StreamedFold
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient, work
from repro.service.payloads import canonical_bytes, fold_payload

from tests.extrae.test_trace_fastpath import run_trace
from tests.service.test_server import serving

POINTS = 50


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


@pytest.fixture(scope="module")
def stored(traced, tmp_path_factory):
    return TraceRepo(tmp_path_factory.mktemp("work") / "repo").put(traced)


@pytest.fixture(autouse=True)
def fresh_worker_caches():
    """Each test starts as a new worker: no FoldCache held yet."""
    work._cache.cache_clear()
    yield
    work._cache.cache_clear()


def _job(entry, cache_dir, direction, spec=FoldSpec()):
    return work.fold_payload_job(
        str(entry.path), entry.digest, direction, spec, POINTS, str(cache_dir)
    )


def _direct(trace, direction, spec=FoldSpec()):
    return canonical_bytes(fold_payload(fold_trace(trace, spec), direction, POINTS))


@pytest.mark.parametrize(
    "direction, spec",
    [
        ("counters", FoldSpec()),
        ("address", FoldSpec()),
        ("lines", FoldSpec()),
        ("counters", FoldSpec(streaming=True)),
        ("counters", FoldSpec(rep_budget=2)),
    ],
    ids=["counters", "address", "lines", "streamed", "reps"],
)
def test_body_equals_direct_fold_then_hits(
    traced, stored, tmp_path, monkeypatch, direction, spec
):
    want = _direct(traced, direction, spec)

    def no_hashing(trace):
        raise AssertionError("the worker hashed the trace")

    # the repository digest addresses the entry: no job hashes a trace
    monkeypatch.setattr(Trace, "digest", no_hashing)
    assert _job(stored, tmp_path, direction, spec) == (want, True)
    # the disk entry serves a worker that never saw the fold...
    work._cache.cache_clear()
    assert _job(stored, tmp_path, direction, spec) == (want, False)
    # ...and that worker's memo serves it again without the disk
    for entry in tmp_path.iterdir():
        entry.unlink()
    assert _job(stored, tmp_path, direction, spec) == (want, False)


def test_counters_only_entry_serves_counters_not_addresses(traced, stored, tmp_path):
    cache = FoldCache(tmp_path)
    streamed = fold_trace(traced, streaming=True)
    assert isinstance(streamed, StreamedFold)
    cache.put(cache.key(stored.digest, FoldSpec()), streamed)

    assert _job(stored, tmp_path, "counters") == (_direct(traced, "counters"), False)
    # a streamed spec shares the resident key, and gets its own payload
    streaming = FoldSpec(streaming=True)
    want = _direct(traced, "counters", streaming)
    assert _job(stored, tmp_path, "counters", streaming) == (want, False)
    # a StreamedFold carries no address view: the job folds, and the
    # resident report it stores serves the next address request
    want = _direct(traced, "address")
    assert _job(stored, tmp_path, "address") == (want, True)
    assert _job(stored, tmp_path, "address") == (want, False)


def test_second_server_over_a_warm_cache_folds_nothing(traced, tmp_path):
    repo = TraceRepo(tmp_path / "repo")
    entry = repo.put(traced)
    with serving(AnalysisServer(repo, workers=1)) as first:
        with ServiceClient("127.0.0.1", first.port) as c:
            c.fold(entry.digest, "counters")
        assert first.counters["folds_cold"] == 1

    report = fold_trace(traced)
    with serving(AnalysisServer(repo, workers=1)) as second:
        with ServiceClient("127.0.0.1", second.port) as c:
            got = {d: c.fold(entry.digest, d, points=POINTS) for d in DIRECTIONS}
        assert second.counters["folds_cold"] == 0
        assert second.counters["folds_warm_cache"] == len(DIRECTIONS)
    for direction, payload in got.items():
        want = fold_payload(report, direction, POINTS)
        assert payload["payload_digest"] == want["payload_digest"]

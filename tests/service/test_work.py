"""fold_payload_job: the one place the service decides hit or fold."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.spec import DIRECTIONS, FoldSpec
from repro.folding.stream import StreamedFold
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient, server, work
from repro.service.payloads import canonical_bytes, fold_payload, seal

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
def fresh_worker(monkeypatch):
    """Each test starts as a new worker: no FoldCache, plan or design held."""
    _forget(monkeypatch)
    yield
    work._cache.cache_clear()


def _forget(monkeypatch):
    """Drop what this process's worker holds, as a fresh worker has."""
    work._cache.cache_clear()
    monkeypatch.setattr(work, "_plan", work._Latest())
    monkeypatch.setattr(work, "_streamed", work._Latest())


def _job(entry, cache_dir, direction, spec=FoldSpec()):
    return work.fold_payload_job(
        str(entry.path), entry.digest, direction, spec, POINTS, str(cache_dir)
    )


def _direct(trace, direction, spec=FoldSpec()):
    """The body a cold fold gives: the canonical sealed payload."""
    return canonical_bytes(seal(fold_payload(fold_trace(trace, spec), direction, POINTS)))


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
    _forget(monkeypatch)
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


#: One spec and one query per fold path.  The service has no query key
#: for ``directions``; the table adds one, so the server's check runs
#: for the streamed report too.
FOLD_PATHS = {
    "resident": (FoldSpec(), {}),
    "streamed": (FoldSpec(streaming=True), {"stream": "1"}),
    "streamed report": (
        FoldSpec(streaming=True, directions=DIRECTIONS),
        {"stream": "1", "directions": ",".join(DIRECTIONS)},
    ),
    "representative": (FoldSpec(rep_budget=2), {"reps": "2"}),
}


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("path", list(FOLD_PATHS))
def test_job_refuses_exactly_where_the_server_answers_400(
    stored, tmp_path, monkeypatch, path, direction
):
    """Only the resident report has exact address and line payloads:
    the job refuses every other pair before it reads anything, with
    the check the server answers 400 by."""
    spec, query = FOLD_PATHS[path]
    monkeypatch.setitem(
        server._SPEC_QUERY, "directions", ("directions", lambda v: v.split(","))
    )
    try:
        parsed = server._fold_request({"direction": direction, **query})
    except server.HttpError as exc:
        assert exc.status == 400
        answered_400 = True
    else:
        assert parsed == (direction, spec, 0)
        answered_400 = False
    assert answered_400 == (path != "resident" and direction != "counters")

    if not answered_400:
        body, folded = _job(stored, tmp_path, direction, spec)
        assert folded and body.startswith(b"{")
        return

    def no_reading(*args, **kwargs):
        raise AssertionError("the job read the trace")

    monkeypatch.setattr(Trace, "load", staticmethod(no_reading))
    with pytest.raises(ValueError, match=f"a {path} fold has no {direction} payload"):
        _job(stored, tmp_path, direction, spec)
    assert not any(tmp_path.iterdir())


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


class TestRefit:
    """A second fit point of a trace refits the worker's kept state."""

    @staticmethod
    def _count_reads(monkeypatch) -> dict:
        """Count container opens, plan builds and streamed passes."""
        counts = {"load": 0, "plan": 0, "pass": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            Trace, "load", staticmethod(counted("load", Trace.load))
        )
        monkeypatch.setattr(
            FoldPlan, "from_trace", staticmethod(counted("plan", FoldPlan.from_trace))
        )
        monkeypatch.setattr(
            Trace, "iter_sample_chunks", counted("pass", Trace.iter_sample_chunks)
        )
        return counts

    @pytest.mark.parametrize(
        "streaming, directions",
        [(False, ("counters", "address")), (True, ("counters", "counters"))],
        ids=["resident", "streamed"],
    )
    def test_two_fit_points_read_the_trace_once(
        self, traced, stored, tmp_path, monkeypatch, streaming, directions
    ):
        specs = [
            FoldSpec(bandwidth=0.015, streaming=streaming),
            FoldSpec(grid_points=151, bandwidth=0.02, streaming=streaming),
        ]
        want = [_direct(traced, d, s) for d, s in zip(directions, specs)]
        reads = self._count_reads(monkeypatch)
        got = [_job(stored, tmp_path, d, s) for d, s in zip(directions, specs)]
        assert got == [(body, True) for body in want]
        # one container open: one plan, or one streamed fold's two passes
        assert reads == (
            {"load": 1, "plan": 0, "pass": 2}
            if streaming
            else {"load": 1, "plan": 1, "pass": 0}
        )
        # the refit stored the entry a cold worker stores, byte for byte
        refit = FoldCache(tmp_path).key(stored.digest, specs[1])
        _forget(monkeypatch)
        cold_dir = tmp_path / "cold"
        assert _job(stored, cold_dir, directions[1], specs[1]) == (want[1], True)
        assert (tmp_path / f"{refit}.foldreport").read_bytes() == (
            cold_dir / f"{refit}.foldreport"
        ).read_bytes()

    def test_representative_folds_keep_their_path(
        self, traced, stored, tmp_path, monkeypatch
    ):
        reads = self._count_reads(monkeypatch)
        for bandwidth in (0.015, 0.02):
            spec = FoldSpec(rep_budget=2, bandwidth=bandwidth)
            assert _job(stored, tmp_path, "counters", spec)[1] is True
        assert reads["load"] == 2

    @pytest.mark.parametrize("streaming", [False, True], ids=["resident", "streamed"])
    def test_kept_state_outlives_a_truncated_container(
        self, traced, tmp_path, streaming
    ):
        """Nothing the worker keeps reads through the container's map:
        truncated in place after the first fit point, the container
        serves the second from the kept state, and the worker lives."""
        entry = TraceRepo(tmp_path / "repo").put(traced)
        first, second = (
            FoldSpec(bandwidth=bandwidth, streaming=streaming)
            for bandwidth in (0.015, 0.02)
        )
        want = _direct(traced, "counters", second)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as worker:

            def job(spec):
                return worker.submit(
                    work.fold_payload_job, str(entry.path), entry.digest,
                    "counters", spec, POINTS, str(tmp_path / "cache"),
                ).result(timeout=120)

            assert job(first)[1] is True
            with open(entry.path, "r+b") as f:
                f.truncate(1000)
            assert job(second) == (want, True)
            assert job(first)[1] is False  # the same worker, still alive

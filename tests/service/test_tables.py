"""SharedTraceCache: one mmap per digest, LRU eviction closes at once."""

import pytest

from repro.service.tables import SharedTraceCache

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Three distinct on-disk v2 containers, keyed by digest."""
    tmp = tmp_path_factory.mktemp("tables")
    out = {}
    for seed in (3, 4, 5):
        trace = run_trace("vectorized", "stream", seed=seed)
        digest = trace.digest()
        path = tmp / f"{digest[:12]}.bsctrace"
        trace.save(path, version=2, compression="none")
        out[digest] = path
    return out


def _closed(trace) -> bool:
    """Whether a lazily loaded trace's reader has been closed."""
    try:
        trace.sample_table().column("address")
    except ValueError:
        return True
    return False


class TestLeases:
    def test_same_digest_shares_one_open_trace(self, containers):
        cache = SharedTraceCache(capacity=4)
        (digest, path), *_ = containers.items()
        a_trace, a_index = cache.get(digest, path)
        b_trace, b_index = cache.get(digest, path)
        assert a_trace is b_trace
        assert a_index is b_index
        assert cache.opens == 1
        assert cache.hits == 1
        assert len(cache) == 1  # stays open (warm)

    def test_lru_evicts_and_closes_the_least_recently_used(self, containers):
        cache = SharedTraceCache(capacity=2)
        (d0, p0), (d1, p1), (d2, p2) = containers.items()
        first, _index = cache.get(d0, p0)
        second, _index = cache.get(d1, p1)
        assert cache.get(d0, p0)[0] is first  # d1 is now the oldest
        cache.get(d2, p2)
        assert _closed(second)
        assert not _closed(first)
        assert cache.stats() == {"capacity": 2, "n_open": 2, "opens": 3, "hits": 1}
        reopened, _index = cache.get(d1, p1)  # evicted: a cold open again
        assert reopened is not second
        assert _closed(first)
        assert cache.opens == 4

    def test_eviction_closes_unleased_traces(self, containers):
        cache = SharedTraceCache(capacity=1)
        opened = [cache.get(digest, path)[0] for digest, path in containers.items()]
        assert len(cache) == 1
        assert [_closed(t) for t in opened] == [True, True, False]

    def test_close_shuts_everything(self, containers):
        cache = SharedTraceCache(capacity=4)
        opened = [cache.get(digest, path)[0] for digest, path in containers.items()]
        cache.close()
        assert len(cache) == 0
        assert all(_closed(t) for t in opened)

    def test_stats(self, containers):
        cache = SharedTraceCache(capacity=2)
        (digest, path), *_ = containers.items()
        cache.get(digest, path)
        assert cache.stats() == {"capacity": 2, "n_open": 1, "opens": 1, "hits": 0}
        cache.close()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SharedTraceCache(capacity=0)

"""TraceRepo: content addressing, atomic publish, concurrent access."""

import json
import multiprocessing
import os
import threading
import time
import zipfile

import pytest

from repro.extrae.trace import Trace
from repro.repo import RepoError, TraceRepo, default_repo_root
from repro.util.staging import STAGING_SUFFIX, STALE_AFTER_S

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


@pytest.fixture(scope="module")
def container(traced, tmp_path_factory):
    path = tmp_path_factory.mktemp("container") / "t.bsctrace"
    traced.save(path, version=2, compression="none")
    return path


@pytest.fixture()
def repo(tmp_path):
    return TraceRepo(tmp_path / "repo")


class TestAddressing:
    def test_put_object_roundtrips(self, repo, traced):
        entry = repo.put(traced)
        assert entry.digest == traced.digest()
        assert entry.path.exists()
        assert repo.open(entry.digest).digest() == entry.digest

    def test_sharded_layout(self, repo, traced):
        entry = repo.put(traced)
        d = entry.digest
        assert entry.path == repo.root / "objects" / d[:2] / d[2:] / "trace.bsctrace"

    def test_put_path_source(self, repo, traced, container):
        entry = repo.put(container)
        assert entry.digest == traced.digest()
        assert entry.meta["n_samples"] == traced.n_samples

    def test_put_is_idempotent(self, repo, container):
        first = repo.put(container)
        stat_before = first.path.stat()
        second = repo.put(container, extra_meta={"note": "again"})
        assert second.digest == first.digest
        stat_after = second.path.stat()
        # the container bytes were not rewritten...
        assert (stat_after.st_ino, stat_after.st_mtime_ns) == (
            stat_before.st_ino, stat_before.st_mtime_ns
        )
        # ...but the metadata was refreshed
        assert repo.entry(first.digest).meta["note"] == "again"

    def test_no_staging_leftovers(self, repo, traced):
        entry = repo.put(traced)
        stray = [
            p for p in entry.path.parent.iterdir()
            if p.suffix == STAGING_SUFFIX
        ]
        assert stray == []

    def test_resolve_prefix(self, repo, traced):
        entry = repo.put(traced)
        assert repo.resolve(entry.digest[:8]) == entry.digest
        assert repo.get(entry.digest[:12]) == entry.path

    def test_resolve_errors(self, repo, traced):
        repo.put(traced)
        with pytest.raises(RepoError, match="too short"):
            repo.resolve("ab")
        with pytest.raises(RepoError, match="no trace"):
            repo.resolve("0000beef")

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_REPO", str(tmp_path / "custom"))
        assert default_repo_root() == tmp_path / "custom"
        assert TraceRepo().root == tmp_path / "custom"


class TestIndexAndMeta:
    def test_list_and_index_agree(self, repo, traced):
        entry = repo.put(traced)
        entries = repo.list()
        assert [e.digest for e in entries] == [entry.digest]
        index = repo.index()
        assert index["n_traces"] == 1
        assert index["traces"][entry.digest]["workload"] == entry.meta["workload"]

    def test_meta_synthesized_when_meta_json_missing(self, repo, traced):
        entry = repo.put(traced)
        (entry.path.parent / "meta.json").unlink()
        got = repo.entry(entry.digest)
        # the writer "died" between publishes: sidecar fills the gap
        assert got.meta["n_samples"] == traced.n_samples
        assert got.meta["digest"] == entry.digest

    def test_reindex_rebuilds_after_index_loss(self, repo, traced):
        entry = repo.put(traced)
        (repo.root / "index.json").unlink()
        index = repo.index()
        assert entry.digest in index["traces"]

    def test_remove(self, repo, traced):
        entry = repo.put(traced)
        assert repo.remove(entry.digest[:8]) == entry.digest
        assert repo.list() == []
        assert repo.index()["n_traces"] == 0
        with pytest.raises(RepoError):
            repo.get(entry.digest)

    def test_stats(self, repo, traced):
        entry = repo.put(traced)
        stats = repo.stats()
        assert stats["n_traces"] == 1
        assert stats["total_bytes"] == entry.path.stat().st_size


def _orphan(directory, name, age_s):
    """A staging file as a writer killed mid-publish leaves it."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}{STAGING_SUFFIX}"
    path.write_bytes(b"partial")
    then = time.time() - age_s
    os.utime(path, (then, then))
    return path


class TestStagingSweep:
    def test_reindex_sweeps_stale_orphans_spares_fresh(self, repo, traced):
        entry = repo.put(traced)
        old_in_entry = _orphan(entry.path.parent, "old", STALE_AFTER_S + 60)
        old_in_root = _orphan(repo.root, "old", STALE_AFTER_S + 60)
        fresh_in_entry = _orphan(entry.path.parent, "fresh", 0)
        fresh_in_root = _orphan(repo.root, "fresh", 0)
        repo.reindex()
        assert not old_in_entry.exists()
        assert not old_in_root.exists()
        assert fresh_in_entry.exists()  # possibly a live writer, spared
        assert fresh_in_root.exists()

    def test_first_put_killed_mid_save_is_swept(self, repo, traced):
        # The killed writer left an entry directory holding only its
        # container's staging file: no listing shows it.
        lone = _orphan(repo.entry_dir("ab" * 32), "killed", STALE_AFTER_S + 60)
        assert repo.list() == []
        repo.put(traced)  # any later publish reindexes
        assert not lone.exists()


def _put_job(root, container):
    """Module-level so multiprocessing can pickle it."""
    entry = TraceRepo(root).put(container)
    return entry.digest


class TestConcurrentAccess:
    def test_threaded_put_same_digest_is_idempotent(self, repo, container):
        digests, errors = [], []

        def put():
            try:
                digests.append(repo.put(container).digest)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(set(digests)) == 1
        entries = repo.list()
        assert len(entries) == 1
        # the published container is complete and content-correct
        assert repo.open(digests[0]).digest() == digests[0]
        stray = [
            p for p in entries[0].path.parent.iterdir()
            if p.suffix == STAGING_SUFFIX
        ]
        assert stray == []

    def test_multiprocess_put_same_digest(self, repo, container):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(3) as pool:
            digests = pool.starmap(
                _put_job, [(str(repo.root), str(container))] * 3
            )
        assert len(set(digests)) == 1
        assert len(repo.list()) == 1
        assert repo.open(digests[0]).digest() == digests[0]

    def test_get_during_put_never_sees_partial_container(
        self, repo, container
    ):
        """Readers racing put/remove cycles never observe torn bytes."""
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    entries = repo.list()
                    for e in entries:
                        n = Trace.load(e.path).n_samples
                        assert n > 0
                except (RepoError, FileNotFoundError, OSError):
                    continue  # entry absent or mid-removal: fine
                except (zipfile.BadZipFile, ValueError, json.JSONDecodeError) as exc:
                    failures.append(exc)  # partial container: the bug
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        try:
            for _ in range(5):
                entry = repo.put(container)
                repo.remove(entry.digest)
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert failures == []

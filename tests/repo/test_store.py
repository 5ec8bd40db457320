"""TraceRepo: content addressing, atomic publish, concurrent access."""

import json
import multiprocessing
import os
import shutil
import threading
import time
import zipfile
from pathlib import Path

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


def _variant(container, i):
    """The stored trace under a digest of its own (its metadata differs)."""
    trace = Trace.load(container)
    trace.metadata["variant"] = i
    return trace


def _files(root):
    """``{path: (inode, mtime_ns)}`` of every file under *root*."""
    return {
        p: (p.stat().st_ino, p.stat().st_mtime_ns)
        for p in root.rglob("*")
        if p.is_file()
    }


def _outside(files, entry_dir):
    return {p: s for p, s in files.items() if entry_dir not in p.parents}


def _truncate(path):
    """Cut a stored container in half, in place."""
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size // 2)


@pytest.fixture()
def meta_reads(monkeypatch):
    """The ``meta.json`` paths opened while the test runs."""
    reads = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        if self.name == "meta.json":
            reads.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return reads


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
        second = repo.put(container)
        assert second.digest == first.digest
        stat_after = second.path.stat()
        # the container bytes were not rewritten...
        assert (stat_after.st_ino, stat_after.st_mtime_ns) == (
            stat_before.st_ino, stat_before.st_mtime_ns
        )
        # ...but the metadata was refreshed
        assert repo.entry(first.digest).meta == second.meta
        assert second.meta == {**first.meta, "stored_at": second.meta["stored_at"]}

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
        with pytest.raises(RepoError, match="hex"):
            repo.resolve("zzzz")
        with pytest.raises(RepoError, match="hex"):
            repo.resolve("a" * 65)

    def test_resolve_ignores_case(self, repo, traced):
        entry = repo.put(traced)
        assert repo.resolve(entry.digest.upper()) == entry.digest
        assert repo.resolve(entry.digest[:8].upper()) == entry.digest

    def test_traversal_digest_reaches_nothing_outside(self, repo, traced, container):
        entry = repo.put(traced)
        outside = repo.root.parent / "outside"
        outside.mkdir()
        shutil.copy(container, outside / "trace.bsctrace")
        # 64 characters through an existing shard, out of the root
        evil = entry.digest[:2] + "../../../outside" + "/." * 23
        assert len(evil) == 64
        assert repo.path(evil).resolve() == (outside / "trace.bsctrace").resolve()
        for call in (repo.resolve, repo.get, repo.entry, repo.open, repo.remove):
            with pytest.raises(RepoError, match="hex"):
                call(evil)
        assert (outside / "trace.bsctrace").exists()

    def test_default_root_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_REPO", str(tmp_path / "custom"))
        assert default_repo_root() == tmp_path / "custom"
        assert TraceRepo().root == tmp_path / "custom"


class TestIndexAndMeta:
    def test_list_and_index_agree(self, repo, traced):
        """The object directories are the index: list() shows every
        entry directory holding a container, with its meta.json."""
        entry = repo.put(traced)
        repo.entry_dir("cd" * 32).mkdir(parents=True)  # not published
        entries = repo.list()
        assert [e.digest for e in entries] == [entry.digest]
        assert entries[0].meta == entry.meta

    def test_meta_synthesized_when_meta_json_missing(self, repo, traced):
        entry = repo.put(traced)
        (entry.path.parent / "meta.json").unlink()
        got = repo.entry(entry.digest)
        # the writer "died" between publishes: the container fills the gap
        assert got.meta["n_samples"] == traced.n_samples
        assert got.meta["digest"] == entry.digest
        # with every key a published meta.json holds, duration included
        assert set(got.meta) == set(entry.meta)
        del got.meta["stored_at"], entry.meta["stored_at"]
        assert got.meta == entry.meta

    def test_remove(self, repo, traced):
        entry = repo.put(traced)
        assert repo.remove(entry.digest[:8]) == entry.digest
        assert repo.list() == []
        with pytest.raises(RepoError):
            repo.get(entry.digest)

    def test_stats(self, repo, traced):
        entry = repo.put(traced)
        stats = repo.stats()
        assert stats["n_traces"] == 1
        assert stats["total_bytes"] == entry.path.stat().st_size


class TestEntriesStandAlone:
    """A put or remove touches its own entry directory alone, and
    resolve and stats read no meta.json."""

    def test_put_reads_and_writes_only_its_own_entry(
        self, repo, container, meta_reads
    ):
        for i in range(3):
            repo.put(_variant(container, i))
        before = _files(repo.root)
        meta_reads.clear()
        entry = repo.put(_variant(container, 3))
        assert meta_reads == []
        assert _outside(_files(repo.root), entry.path.parent) == before
        assert not (repo.root / "index.json").exists()

    def test_remove_writes_only_its_own_entry(self, repo, container):
        entries = [repo.put(_variant(container, i)) for i in range(3)]
        before = _files(repo.root)
        repo.remove(entries[1].digest)
        assert _files(repo.root) == _outside(before, entries[1].path.parent)
        assert not (repo.root / "index.json").exists()

    def test_resolve_and_stats_read_no_meta(self, repo, container, meta_reads):
        entries = [repo.put(_variant(container, i)) for i in range(3)]
        meta_reads.clear()
        for entry in entries:
            assert repo.resolve(entry.digest[:8]) == entry.digest
        stats = repo.stats()
        assert meta_reads == []
        assert stats["n_traces"] == 3
        assert stats["total_bytes"] == sum(e.path.stat().st_size for e in entries)


class TestFsck:
    def test_sound_repository_passes(self, repo, container):
        for i in range(2):
            repo.put(_variant(container, i))
        assert repo.fsck() == {}

    def test_names_unreadable_and_mismatched_entries(self, repo, container):
        good, truncated, swapped = (repo.put(_variant(container, i)) for i in range(3))
        _truncate(truncated.path)
        shutil.copy(good.path, swapped.path)
        problems = repo.fsck()
        assert sorted(problems) == sorted([truncated.digest, swapped.digest])
        assert problems[truncated.digest].startswith("unreadable container")
        assert problems[swapped.digest] == f"content digest is {good.digest}"
        # it repairs and removes nothing; the listing still answers
        assert [e.digest for e in repo.list()] == sorted(
            e.digest for e in (good, truncated, swapped)
        )
        (truncated.path.parent / "meta.json").unlink()
        assert repo.entry(truncated.digest).meta == {"digest": truncated.digest}

    def test_removes_no_directory(self, repo, traced):
        repo.put(traced)
        pending = repo.entry_dir("cd" * 32)  # a put that has not staged yet
        pending.mkdir(parents=True)
        assert repo.fsck() == {}
        assert pending.is_dir()


def _orphan(directory, name, age_s):
    """A staging file as a writer killed mid-publish leaves it."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}{STAGING_SUFFIX}"
    path.write_bytes(b"partial")
    then = time.time() - age_s
    os.utime(path, (then, then))
    return path


class TestStagingSweep:
    def test_fsck_sweeps_stale_orphans_spares_fresh(self, repo, traced):
        entry = repo.put(traced)
        old_in_entry = _orphan(entry.path.parent, "old", STALE_AFTER_S + 60)
        old_in_root = _orphan(repo.root, "old", STALE_AFTER_S + 60)
        fresh_in_entry = _orphan(entry.path.parent, "fresh", 0)
        fresh_in_root = _orphan(repo.root, "fresh", 0)
        assert repo.fsck() == {}
        assert not old_in_entry.exists()
        assert not old_in_root.exists()
        assert fresh_in_entry.exists()  # possibly a live writer, spared
        assert fresh_in_root.exists()

    def test_first_put_killed_mid_save_is_swept(self, repo, traced):
        # The killed writer left an entry directory holding only its
        # container's staging file: no listing shows it.
        lone = _orphan(repo.entry_dir("ab" * 32), "killed", STALE_AFTER_S + 60)
        live = _orphan(repo.entry_dir("ab" * 32), "live", 0)
        assert repo.list() == []
        repo.put(traced)  # another entry's put leaves it alone
        assert lone.exists()
        assert repo.fsck() == {}
        assert not lone.exists()
        assert live.exists()  # possibly a live writer, spared
        assert lone.parent.is_dir()

    def test_put_sweeps_its_own_entry(self, repo, traced):
        entry_dir = repo.entry_dir(traced.digest())
        killed = _orphan(entry_dir, "killed", STALE_AFTER_S + 60)
        live = _orphan(entry_dir, "live", 0)
        repo.put(traced)
        assert not killed.exists()
        assert live.exists()


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

"""Content-addressed trace repository.

Where the batch CLI works on loose ``.bsctrace`` files, the repository
gives every trace a permanent, content-derived home so the analysis
service (:mod:`repro.service`) — and any number of concurrent CLI
invocations — can resolve, share and deduplicate traces by what they
*are*, not where they happen to sit:

* **addressing** — a trace lives under its
  :meth:`~repro.extrae.trace.Trace.digest` (hex SHA-256 of the
  consolidated content), sharded git-style to keep directories small::

      <root>/objects/ab/cdef.../trace.bsctrace   # the v2 container
      <root>/objects/ab/cdef.../meta.json        # run metadata

  The object directories are the only index: a listing scans them,
  and a digest prefix resolves against the entry names of its shard.
  A digest from outside must be 4–64 hex characters before it names
  a path.

* **atomic publish** — both files are staged in the entry directory
  and published with one ``os.replace`` each, container first.  A
  reader can never observe a partial container: until the rename the
  entry does not exist, after it the bytes are complete.  Concurrent
  ``put`` of the same digest is idempotent (the bytes are identical by
  construction — the digest says so) and last-writer-safe.  A ``put``
  or ``remove`` writes only its own entry directory.

* **fsck** — :meth:`TraceRepo.fsck` checks that every container loads
  and hashes to its entry's name.  It also sweeps the staging files
  of writers killed mid-publish from the root and every entry
  directory; a ``put`` sweeps the directory it publishes into.

Traces are stored as v2 ``compression="none"`` containers whatever the
input was, so everything the repository serves loads as zero-copy
shared memory maps (:class:`repro.extrae.storage.ColumnReader`).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.extrae.trace import Trace
from repro.util.staging import staged, sweep_staging

__all__ = ["RepoEntry", "RepoError", "TraceRepo", "default_repo_root"]

_ENV_ROOT = "REPRO_TRACE_REPO"
_OBJECTS = "objects"
_CONTAINER = "trace.bsctrace"
_META = "meta.json"

#: Schema version of the ``meta.json`` payload.
REPO_META_VERSION = 1

#: Minimum abbreviated-digest length accepted by :meth:`TraceRepo.resolve`.
MIN_PREFIX = 4

#: A digest or digest prefix, lowercased: the only strings
#: :meth:`TraceRepo.resolve` turns into a path.
_DIGEST_PREFIX = re.compile(f"[0-9a-f]{{{MIN_PREFIX},64}}")


def default_repo_root() -> Path:
    """``$REPRO_TRACE_REPO``, else ``~/.local/share/repro/traces``."""
    env = os.environ.get(_ENV_ROOT)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "repro" / "traces"


@dataclass(frozen=True)
class RepoEntry:
    """One repository entry: a digest plus its run metadata summary."""

    digest: str
    path: Path
    meta: dict = field(default_factory=dict)

    @property
    def short(self) -> str:
        return self.digest[:12]

    def summary_row(self) -> tuple:
        m = self.meta
        return (
            self.short,
            m.get("workload", "?"),
            m.get("engine", "?"),
            m.get("sampler", "pebs"),
            m.get("seed", "?"),
            m.get("n_samples", "?"),
            f"{m.get('duration_ns', 0) / 1e6:.2f}",
        )


class RepoError(KeyError):
    """A digest (or digest prefix) cannot be resolved in the repository."""


class TraceRepo:
    """Sharded, content-addressed store of trace containers.

    Parameters
    ----------
    root:
        Repository root directory (created on first ``put``).
        Default: ``$REPRO_TRACE_REPO``, else
        ``~/.local/share/repro/traces``.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root else default_repo_root()

    # -- layout --------------------------------------------------------------
    def _objects_dir(self) -> Path:
        return self.root / _OBJECTS

    def entry_dir(self, digest: str) -> Path:
        """The sharded directory of *digest* (``objects/ab/cdef...``)."""
        return self._objects_dir() / digest[:2] / digest[2:]

    def path(self, digest: str) -> Path:
        """The container path of a (full) digest."""
        return self.entry_dir(digest) / _CONTAINER

    # -- publish -------------------------------------------------------------
    def put(self, source: Trace | str | Path) -> RepoEntry:
        """Store a trace (object or container path); returns its entry.

        The container is written to a staging file inside the entry
        directory and published with one atomic ``os.replace``;
        ``meta.json`` follows the same way.  Re-putting an existing
        digest skips the container copy (the bytes are identical by
        content addressing) and refreshes the metadata — safe under
        concurrent writers, invisible to concurrent readers until
        complete.  Nothing outside the entry directory is written; in
        it, staging files a killed earlier ``put`` left are swept once
        stale.
        """
        if isinstance(source, (str, Path)):
            trace = Trace.load(source)
        else:
            trace = source
        digest = trace.digest()
        entry_dir = self.entry_dir(digest)
        entry_dir.mkdir(parents=True, exist_ok=True)
        sweep_staging(entry_dir)
        container = entry_dir / _CONTAINER
        if not container.exists():
            with staged(container) as staging:
                trace.save(staging, version=2, compression="none")
        meta = self._build_meta(trace, digest)
        with staged(entry_dir / _META) as staging:
            staging.write_text(json.dumps(meta, indent=2, sort_keys=True))
        if isinstance(source, (str, Path)):
            trace.close()
        return RepoEntry(digest=digest, path=container, meta=meta)

    @staticmethod
    def _build_meta(trace: Trace, digest: str) -> dict:
        md = trace.metadata
        return {
            "version": REPO_META_VERSION,
            "digest": digest,
            "workload": md.get("workload"),
            "engine": md.get("engine"),
            "sampler": md.get("sampler", "pebs"),
            "seed": md.get("seed"),
            "rank": md.get("rank"),
            "n_ranks": md.get("n_ranks"),
            "n_samples": trace.n_samples,
            "n_events": len(trace.events),
            "n_objects": len(trace.objects),
            "duration_ns": trace.duration_ns(),
            "stored_at": time.time(),
        }

    # -- resolve / read ------------------------------------------------------
    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix (4–64 hex chars, any case) to the full
        digest of a stored container.

        The prefix is checked before it becomes a path, and only the
        entry names of its shard are matched, so no input reaches
        outside the object directories.  Raises :class:`RepoError` when
        the prefix is malformed, unknown or ambiguous.
        """
        prefix = prefix.lower()
        if len(prefix) < MIN_PREFIX:
            raise RepoError(
                f"digest prefix {prefix!r} too short (need >= {MIN_PREFIX} chars)"
            )
        if not _DIGEST_PREFIX.fullmatch(prefix):
            raise RepoError(
                f"digest prefix {prefix!r} is not {MIN_PREFIX}-64 hex characters"
            )
        if len(prefix) == 64 and self.path(prefix).exists():
            return prefix  # the service's case: one stat, no listing
        shard = self._objects_dir() / prefix[:2]
        try:
            names = os.listdir(shard)
        except (FileNotFoundError, NotADirectoryError):
            names = []
        matches = [
            shard.name + name
            for name in names
            if name.startswith(prefix[2:]) and (shard / name / _CONTAINER).exists()
        ]
        if not matches:
            raise RepoError(f"no trace with digest prefix {prefix!r}")
        if len(matches) > 1:
            raise RepoError(
                f"digest prefix {prefix!r} is ambiguous ({len(matches)} matches)"
            )
        return matches[0]

    def get(self, digest: str) -> Path:
        """The container path of a digest (prefixes allowed)."""
        return self.path(self.resolve(digest))

    def open(self, digest: str) -> Trace:
        """Lazily load a stored trace (columns stay on disk until touched)."""
        return Trace.load(self.get(digest))

    def entry(self, digest: str) -> RepoEntry:
        full = self.resolve(digest)
        path = self.path(full)
        return RepoEntry(digest=full, path=path, meta=self._read_meta(full, path))

    def _read_meta(self, digest: str, container: Path) -> dict:
        try:
            return json.loads((container.parent / _META).read_text())
        except (OSError, ValueError):
            # put publishes the container first: until meta.json
            # follows (or if its writer died), the container describes
            # itself.  One that does not load (fsck names it) lists by
            # its digest alone.
            try:
                with Trace.load(container) as trace:
                    return self._build_meta(trace, digest)
            except Exception:  # noqa: BLE001 - one bad entry, not the listing
                return {"digest": digest}

    # -- enumerate -----------------------------------------------------------
    def list(self) -> list[RepoEntry]:
        """Every entry, by directory scan, digest-sorted.

        An entry exists iff its container file does — a concurrent
        ``put`` that has staged but not yet renamed is invisible, and
        one that renamed the container but not yet ``meta.json`` shows
        up with metadata built from the container.
        """
        entries = []
        for digest, entry_dir in self._entry_dirs():
            container = entry_dir / _CONTAINER
            if container.exists():
                entries.append(
                    RepoEntry(
                        digest=digest,
                        path=container,
                        meta=self._read_meta(digest, container),
                    )
                )
        return entries

    def _entry_dirs(self):
        """``(digest, directory)`` of every entry directory, digest-sorted,
        including directories whose container was never published."""
        try:
            shards = sorted(self._objects_dir().iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return
        for shard in shards:
            if len(shard.name) != 2:
                continue
            try:
                rests = sorted(shard.iterdir())
            except (FileNotFoundError, NotADirectoryError):
                continue  # a stray file, or emptied by a concurrent remove
            for rest in rests:
                yield shard.name + rest.name, rest

    def stats(self) -> dict:
        """Entry count and container bytes, from the object directories."""
        n_traces = total = 0
        for _digest, entry_dir in self._entry_dirs():
            try:
                total += (entry_dir / _CONTAINER).stat().st_size
            except OSError:
                continue  # unpublished, or removed mid-scan
            n_traces += 1
        return {"root": str(self.root), "n_traces": n_traces, "total_bytes": total}

    # -- maintain ------------------------------------------------------------
    def remove(self, digest: str) -> str:
        """Delete an entry (prefixes allowed); returns the full digest."""
        full = self.resolve(digest)
        entry_dir = self.entry_dir(full)
        if not entry_dir.is_dir():
            raise RepoError(f"no trace {full} in {self.root}")
        shutil.rmtree(entry_dir)
        shard = entry_dir.parent
        try:
            shard.rmdir()  # drop the shard dir when it empties
        except OSError:
            pass
        return full

    def fsck(self) -> dict[str, str]:
        """Check every stored container; sweep stale staging files.

        Returns ``{digest: problem}`` for each entry whose container
        does not load, or whose :meth:`~repro.extrae.trace.Trace.digest`
        is not the entry's name; empty means the repository is sound.
        Staging files :data:`~repro.util.staging.STALE_AFTER_S` old are
        swept from the root and every entry directory, including the
        lone one a killed first ``put`` left, which no listing shows.
        Nothing else is removed or repaired: a directory without a
        container may be a ``put`` in progress, and an entry removed
        mid-check is skipped.
        """
        sweep_staging(self.root)
        problems = {}
        for digest, entry_dir in self._entry_dirs():
            sweep_staging(entry_dir)
            try:
                with Trace.load(entry_dir / _CONTAINER) as trace:
                    stored = trace.digest()
            except FileNotFoundError:
                continue  # not published yet, or removed mid-check
            except Exception as exc:  # noqa: BLE001 - report, check the rest
                problems[digest] = f"unreadable container ({type(exc).__name__}: {exc})"
                continue
            if stored != digest:
                problems[digest] = f"content digest is {stored}"
        return problems

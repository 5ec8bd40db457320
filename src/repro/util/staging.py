"""Staged publish: write under a private name, then rename into place.

The trace repository and the fold cache publish every file this way.
The bytes go to a staging file in the destination's directory, and one
``os.replace`` publishes it, so a reader of the destination sees either
the previous complete file or the new one, never a torn one.  A writer
that dies inside that window leaves only a staging file, named with
:data:`STAGING_SUFFIX`, which no reader mistakes for an entry and
:func:`sweep_staging` removes once it is :data:`STALE_AFTER_S` old.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["STAGING_SUFFIX", "STALE_AFTER_S", "staged", "sweep_staging"]

#: Suffix of every staging file.
STAGING_SUFFIX = ".staging"

#: Age after which a staging file belongs to a writer that died: the
#: guard keeps a sweep from deleting the file of a live, slow writer.
STALE_AFTER_S = 3600.0


@contextmanager
def staged(path: Path) -> Iterator[Path]:
    """Yield a fresh staging path next to *path*, then publish it.

    On a clean exit the staging file atomically replaces *path*.  On an
    exception it is unlinked and the exception propagates, so *path*
    keeps its previous content, or stays absent.
    """
    fd, name = tempfile.mkstemp(dir=path.parent, suffix=STAGING_SUFFIX)
    os.close(fd)
    staging = Path(name)
    try:
        yield staging
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def sweep_staging(directory: Path, min_age_s: float = STALE_AFTER_S) -> int:
    """Delete the staging files in *directory* at least *min_age_s* old.

    Returns how many were deleted.  A directory that is absent, or
    removed mid-sweep, has nothing to sweep; files that vanish mid-sweep
    (another process swept or published them) are skipped.
    """
    try:
        paths = list(directory.iterdir())
    except (FileNotFoundError, NotADirectoryError):
        return 0
    removed = 0
    now = time.time()
    for path in paths:
        if path.suffix != STAGING_SUFFIX:
            continue
        try:
            if now - path.stat().st_mtime < min_age_s:
                continue
        except OSError:
            continue
        path.unlink(missing_ok=True)
        removed += 1
    return removed

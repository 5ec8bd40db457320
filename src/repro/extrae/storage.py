"""The v2 trace container: streaming column writes, lazy column reads.

The v1 container (see :mod:`repro.extrae.trace`) stores the sample
table as a ``samples.npz`` member inside a ``ZIP_DEFLATED`` zip — every
save deflates the whole columnar table (npz inside zip, compressed
twice) and every load inflates and materializes all of it, whether the
reading pass touches one column or seventeen.

The v2 container keeps the single-file zip shape but stores **one raw
binary member per column** (``columns/<name>.bin``, little-endian,
C-contiguous) next to the JSON sidecar, with compression selectable
per file:

* ``"none"`` (the default) — columns are ``ZIP_STORED``.  Saving is a
  straight ``write(memoryview)`` per column and loading can hand out
  **zero-copy memory maps** over the file, so ``Trace.load`` +
  touching one column costs one mmap, not a full inflate.
* ``"deflate"`` — columns are ``ZIP_DEFLATED`` for archival traces;
  each column inflates independently on first touch.

The JSON sidecar (``trace.json``) carries ``"schema": 2`` plus a
column manifest (name → dtype/length) so readers can validate and size
columns without touching any column member.  :class:`ColumnReader`
implements the lazy read side; :func:`write_columns` the write side.
Container selection and backward compatibility with v1 files live in
:meth:`repro.extrae.trace.Trace.load`.
"""

from __future__ import annotations

import json
import mmap
import struct
import zipfile
from pathlib import Path

import numpy as np

__all__ = [
    "ColumnReader",
    "DEFAULT_CHUNK_ROWS",
    "TRACE_COMPRESSIONS",
    "iter_chunks",
    "member_data_offset",
    "write_columns",
]

#: Default row-chunk size of :func:`iter_chunks` — 256k rows keep the
#: per-chunk working set a few tens of MB across all sample columns
#: while amortizing the per-chunk Python overhead.
DEFAULT_CHUNK_ROWS = 262_144

#: Column compression modes of the v2 container.
TRACE_COMPRESSIONS = ("none", "deflate")

#: Zip member holding the JSON sidecar (shared with the v1 container).
SIDECAR_MEMBER = "trace.json"

#: Prefix of the per-column binary members.
COLUMN_PREFIX = "columns/"

#: Date of every member the v2 writer makes (the zip epoch), so a
#: container's bytes depend on its content, not on when it was saved.
MEMBER_DATE = (1980, 1, 1, 0, 0, 0)


def _column_member(name: str) -> str:
    return f"{COLUMN_PREFIX}{name}.bin"


def member_data_offset(path: str | Path, info: zipfile.ZipInfo) -> int:
    """Byte offset of a zip member's raw data inside the file.

    Reads the member's *local* file header (its name/extra lengths may
    differ from the central directory's), so the returned offset is
    exact — the foundation of the zero-copy mmap read path for
    ``ZIP_STORED`` columns.
    """
    with open(path, "rb") as f:
        f.seek(info.header_offset)
        header = f.read(30)
    if len(header) != 30 or header[:4] != b"PK\x03\x04":
        raise zipfile.BadZipFile(
            f"{path}: bad local file header at {info.header_offset}"
        )
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    return info.header_offset + 30 + name_len + extra_len


def write_columns(
    zf: zipfile.ZipFile,
    columns: dict[str, np.ndarray],
    compression: str = "none",
) -> dict[str, dict]:
    """Stream *columns* into *zf* as raw binary members.

    Each array is written C-contiguous and little-endian with a single
    buffered write — no npz staging, no temporary copies beyond a
    byte-order/contiguity fix-up where the input needs one.  Returns
    the column manifest to embed in the sidecar.
    """
    if compression not in TRACE_COMPRESSIONS:
        raise ValueError(
            f"compression must be one of {TRACE_COMPRESSIONS}, "
            f"got {compression!r}"
        )
    compress_type = (
        zipfile.ZIP_DEFLATED if compression == "deflate" else zipfile.ZIP_STORED
    )
    manifest: dict[str, dict] = {}
    for name, arr in columns.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian host
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        info = zipfile.ZipInfo(_column_member(name), date_time=MEMBER_DATE)
        info.compress_type = compress_type
        info.file_size = arr.nbytes
        with zf.open(info, "w", force_zip64=True) as f:
            f.write(memoryview(arr).cast("B"))
        manifest[name] = {"dtype": arr.dtype.str, "n": int(arr.size)}
    return manifest


class ColumnReader:
    """Lazy column source over a v2 trace file.

    ``load(name)`` materializes one column: a zero-copy view over **one
    shared read-only memory map** of the container for ``ZIP_STORED``
    members (the OS pages in only what the pass touches) or an
    inflate-then-``frombuffer`` for ``ZIP_DEFLATED`` members.  Nothing
    is read until asked for.

    The reader owns exactly one file descriptor (opened lazily with the
    first stored-column load), regardless of how many columns are
    materialized — concurrent consumers of the same container (e.g. the
    analysis service multiplexing requests over one trace) share that
    single map instead of opening one per column.  :meth:`close`
    releases it deterministically; the reader is also a context
    manager.  Closing is refused only for the map itself while live
    column views still reference its pages (they are dropped from
    :attr:`loaded` and freed by the GC); the descriptor always closes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with zipfile.ZipFile(self.path) as zf:
            self.sidecar: dict = json.loads(zf.read(SIDECAR_MEMBER))
            self._infos = {
                info.filename: info
                for info in zf.infolist()
                if info.filename.startswith(COLUMN_PREFIX)
            }
        manifest = self.sidecar.get("columns")
        if not isinstance(manifest, dict):
            raise zipfile.BadZipFile(f"{self.path}: sidecar has no column manifest")
        self.manifest = manifest
        #: columns materialized so far (test hook and cache-reuse map)
        self.loaded: dict[str, np.ndarray] = {}
        self._mmap: mmap.mmap | None = None
        self._closed = False

    @property
    def n_samples(self) -> int:
        sizes = {int(spec["n"]) for spec in self.manifest.values()}
        if len(sizes) > 1:
            raise zipfile.BadZipFile(f"{self.path}: inconsistent column lengths")
        return sizes.pop() if sizes else 0

    def columns(self) -> tuple[str, ...]:
        return tuple(self.manifest)

    @property
    def closed(self) -> bool:
        return self._closed

    def _shared_map(self) -> mmap.mmap:
        """The one read-only map of the container (opened on demand)."""
        if self._closed:
            raise ValueError(f"{self.path}: reader is closed")
        if self._mmap is None:
            with open(self.path, "rb") as f:
                self._mmap = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        return self._mmap

    def _spec(self, name: str) -> tuple[np.dtype, int, zipfile.ZipInfo]:
        spec = self.manifest.get(name)
        if spec is None:
            raise KeyError(f"{self.path}: no column {name!r}")
        member = _column_member(name)
        info = self._infos.get(member)
        if info is None:
            raise zipfile.BadZipFile(f"{self.path}: missing member {member!r}")
        return np.dtype(spec["dtype"]), int(spec["n"]), info

    def mapped(self, name: str) -> bool:
        """Whether :meth:`load` maps *name* rather than inflating it."""
        return self._spec(name)[2].compress_type == zipfile.ZIP_STORED

    def load(self, name: str) -> np.ndarray:
        """Materialize one column (cached)."""
        cached = self.loaded.get(name)
        if cached is not None:
            return cached
        dtype, n, info = self._spec(name)
        if info.compress_type == zipfile.ZIP_STORED:
            offset = member_data_offset(self.path, info)
            arr = np.frombuffer(
                self._shared_map(), dtype=dtype, count=n, offset=offset
            )
        else:
            with zipfile.ZipFile(self.path) as zf:
                raw = zf.read(_column_member(name))
            arr = np.frombuffer(raw, dtype=dtype, count=n)
        self.loaded[name] = arr
        return arr

    def peek(self, name: str, index: int):
        """One element of a column without materializing it.

        For ``ZIP_STORED`` members this seeks and reads exactly
        ``itemsize`` bytes (``bsc-memtools-trace info`` reads the time
        span of a multi-GB container this way — O(metadata), never a
        column).  Deflated members fall back to :meth:`load` (already
        materialized readers reuse the cache either way).
        """
        cached = self.loaded.get(name)
        if cached is not None:
            return cached[index]
        dtype, n, info = self._spec(name)
        if not -n <= index < n:
            raise IndexError(f"{self.path}: index {index} out of range for {name!r}")
        if index < 0:
            index += n
        if info.compress_type != zipfile.ZIP_STORED:
            return self.load(name)[index]
        offset = member_data_offset(self.path, info) + index * dtype.itemsize
        with open(self.path, "rb") as f:
            f.seek(offset)
            raw = _read_exact(f, dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype, count=1)[0]

    def close(self) -> None:
        """Release the shared map and its file descriptor (idempotent).

        Cached column views are dropped; if no outside references keep
        a stored-column view alive the map closes immediately, else the
        pages stay readable until the last view is garbage-collected
        (``mmap`` refuses to unmap exported buffers — readers never
        hand out views that can go dark under a consumer).
        """
        self._closed = True
        self.loaded.clear()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Live views still reference the pages; the map closes
                # when the GC collects them.  The fd is already gone
                # (the map holds its own reference to the file).
                pass
            self._mmap = None

    def __enter__(self) -> "ColumnReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


def _read_exact(stream, nbytes: int) -> bytes:
    """Read exactly *nbytes* from a stream (short read = corrupt file)."""
    parts = []
    remaining = nbytes
    while remaining > 0:
        piece = stream.read(remaining)
        if not piece:
            raise zipfile.BadZipFile("column member ended early")
        parts.append(piece)
        remaining -= len(piece)
    return b"".join(parts)


def iter_chunks(
    path: str | Path,
    columns: tuple[str, ...] | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
):
    """Stream column slices out of a v2 container, *chunk_rows* at a time.

    Yields ``{name: np.ndarray}`` dicts of equal-length row slices, in
    file (time-sorted) order, covering every row exactly once.  Peak
    memory is O(chunk): ``ZIP_STORED`` columns are read as seeked byte
    ranges into fresh arrays (deliberately *not* memory-mapped — the
    chunks are short-lived copies whose footprint stays bounded and
    visible to ``tracemalloc``), ``ZIP_DEFLATED`` columns decompress
    sequentially in lockstep, one inflater per column.

    This is the disk side of the streaming fold
    (:mod:`repro.folding.stream`): a billion-sample container can be
    folded without the consolidated table ever being resident.

    Parameters
    ----------
    path:
        A schema-2 trace container (any compression).
    columns:
        Column subset to stream (default: every manifest column).
    chunk_rows:
        Rows per yielded chunk (the last chunk may be shorter).
    """
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    reader = ColumnReader(path)  # validates sidecar + manifest
    names = tuple(columns) if columns is not None else reader.columns()
    unknown = [name for name in names if name not in reader.manifest]
    if unknown:
        raise KeyError(f"{reader.path}: no columns {unknown}")
    n = reader.n_samples
    specs = []  # (name, dtype, itemsize, info)
    for name in names:
        info = reader._infos.get(_column_member(name))
        if info is None:
            raise zipfile.BadZipFile(
                f"{reader.path}: missing member {_column_member(name)!r}"
            )
        dtype = np.dtype(reader.manifest[name]["dtype"])
        specs.append((name, dtype, info))
    if n == 0 or not specs:
        return
    stored = all(info.compress_type == zipfile.ZIP_STORED for _, _, info in specs)
    if stored:
        offsets = {
            name: member_data_offset(reader.path, info)
            for name, _, info in specs
        }
        with open(reader.path, "rb") as f:
            for lo in range(0, n, chunk_rows):
                count = min(chunk_rows, n - lo)
                chunk = {}
                for name, dtype, _ in specs:
                    f.seek(offsets[name] + lo * dtype.itemsize)
                    raw = _read_exact(f, count * dtype.itemsize)
                    chunk[name] = np.frombuffer(raw, dtype=dtype, count=count)
                yield chunk
    else:
        with zipfile.ZipFile(reader.path) as zf:
            streams = {
                name: zf.open(_column_member(name)) for name, _, _ in specs
            }
            try:
                for lo in range(0, n, chunk_rows):
                    count = min(chunk_rows, n - lo)
                    chunk = {}
                    for name, dtype, _ in specs:
                        raw = _read_exact(streams[name], count * dtype.itemsize)
                        chunk[name] = np.frombuffer(raw, dtype=dtype, count=count)
                    yield chunk
            finally:
                for stream in streams.values():
                    stream.close()

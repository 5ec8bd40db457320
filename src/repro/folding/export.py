"""The gnuplot panel writer behind every folded-report export.

Every ``.dat`` file a fold product writes is one header line plus one
line per row of space-separated columns.  The number formats are the
file contract (``docs/trace-format.md``, "Gnuplot panel exports"), so
one module owns them: each exporter lists its columns with
:func:`fixed`, :func:`decimal`, :func:`hexadecimal` or :func:`text`,
and :func:`write_table` writes the rows.

:func:`write_table` works in blocks of :data:`BLOCK_ROWS` rows.  For a
block it allocates one ``uint8`` byte matrix, a row per text line, and
every column writes its bytes into its own slice with NumPy integer
arithmetic: digits by scalar divides (decimal) or shifts (hex), strings
by one gather from a padded table.  Positions a row leaves unused hold
a filler byte that UTF-8 never contains; dropping the filler leaves the
block's text, which goes to the file in one ``write``.  No Python
string is built per value, except for the few floats whose digits
integer arithmetic cannot prove (see :func:`fixed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.extrae.schema import DataSource

__all__ = [
    "BLOCK_ROWS",
    "Column",
    "decimal",
    "export_address_density_dat",
    "export_addresses_dat",
    "export_codeline_dat",
    "export_codeline_density_dat",
    "export_counters_dat",
    "export_objects_dat",
    "fixed",
    "hexadecimal",
    "text",
    "write_table",
]

#: Values per column formatted and written at once.  A block of a
#: matrix column (a density file's σ-bin counts) holds this many values,
#: so its rows number ``BLOCK_ROWS // bins``.
BLOCK_ROWS = 65_536

_SPACE, _NEWLINE, _MINUS, _DOT = b" \n-."
#: Filler of unused positions; no UTF-8 text contains this byte.
_GAP = 0xFF
_TWO52 = float(2**52)

#: A column's formatted block: its width in bytes, and the function
#: that writes the block's rows into a ``(rows, width)`` byte matrix.
Field = tuple[int, Callable[[np.ndarray], None]]


@dataclass(frozen=True)
class Column:
    """One column of a table: a value per row (or, for a 2-D array, a
    row of values, written space-separated) and its formatter."""

    values: np.ndarray
    format: Callable[[np.ndarray], Field]

    @property
    def cells(self) -> int:
        """Values per row."""
        return int(self.values.shape[1]) if self.values.ndim == 2 else 1

    def field(self, lo: int, hi: int) -> Field:
        block = self.values[lo:hi]
        if block.ndim == 1:
            return self.format(block)
        rows, cells = block.shape
        width, fill = self.format(block.reshape(-1))

        def fill_cells(out: np.ndarray) -> None:
            # A matrix row is its values, each after a space but the first.
            each = np.empty((rows * cells, width + 1), np.uint8)
            each[:, 0] = _SPACE
            each.reshape(rows, cells, width + 1)[:, :1, 0] = _GAP
            fill(each[:, 1:])
            out[...] = each.reshape(rows, -1)

        return cells * (width + 1), fill_cells


def fixed(values, decimals: int) -> Column:
    """``'%.{decimals}f' % x`` of each value, as float64.

    The digits are those of ``rint(|x| * 10**decimals)``, with the sign
    from ``signbit`` (so ``-0.0`` and small negatives print
    ``-0.000…``).  That integer equals the correctly rounded one Python
    prints unless the product's own rounding crossed a ``.5`` — only
    possible within half an ulp of a tie; two ulps are checked — or the
    product has no fraction bits left (``≥ 2**52``).  Those values, and
    nan/±inf, are formatted by Python itself.
    """
    return Column(
        np.asarray(values, dtype=np.float64), partial(_fixed, decimals=decimals)
    )


def decimal(values) -> Column:
    """``'%d'`` of each value, as int64."""
    return Column(np.asarray(values).astype(np.int64), partial(_integer, base=10))


def hexadecimal(values) -> Column:
    """``'%#x'`` of each value, as int64: a value that wraps to a
    negative int64 prints as ``-0x…``."""
    return Column(np.asarray(values).astype(np.int64), partial(_integer, base=16))


def text(table: Sequence[str], index) -> Column:
    """``table[i]`` for each *i* of *index* (NumPy indexing, so ``-1``
    is the last entry), UTF-8 encoded."""
    padded = _padded(table)

    def lookup(rows: np.ndarray) -> Field:
        def fill(out: np.ndarray) -> None:
            out[...] = np.take(padded, rows, axis=0)

        return padded.shape[1], fill

    return Column(np.asarray(index, dtype=np.int64), lookup)


def write_table(path: str | Path, header: str, columns: Sequence[Column]) -> Path:
    """Write *header* and the space-separated rows of *columns*."""
    path = Path(path)
    lengths = {len(c.values) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    step = max(1, BLOCK_ROWS // max((c.cells for c in columns), default=1))
    with path.open("wb") as f:
        f.write(header.encode() + b"\n")
        for lo in range(0, n_rows, step):
            f.write(_block(columns, lo, min(lo + step, n_rows)))
    return path


def _block(columns: Sequence[Column], lo: int, hi: int) -> bytes:
    fields = [column.field(lo, hi) for column in columns]
    # Each column after a space but the first, then the newline.
    out = np.empty((hi - lo, sum(w for w, _ in fields) + len(fields)), np.uint8)
    at = 0
    for i, (width, fill) in enumerate(fields):
        if i:
            out[:, at] = _SPACE
            at += 1
        fill(out[:, at:at + width])
        at += width
    out[:, at] = _NEWLINE
    flat = out.reshape(-1)
    return flat[flat != _GAP].tobytes()


def _padded(strings: Sequence[str]) -> np.ndarray:
    """UTF-8 *strings* as rows of a byte matrix, padded with the filler."""
    encoded = [s.encode() for s in strings]
    width = max(map(len, encoded), default=0)
    return np.frombuffer(
        b"".join(s.ljust(width, bytes([_GAP])) for s in encoded), dtype=np.uint8
    ).reshape(len(encoded), width)


def _width(largest, base: int) -> int:
    return len(format(int(largest), "x" if base == 16 else "d"))


def _digits(out: np.ndarray, values: np.ndarray, base: int, shown: int) -> None:
    """Write the digits of non-negative uint64 *values* right-aligned
    into the columns of *out*, the filler in place of leading zeros
    left of the last *shown* digits."""
    rest = values
    for j in range(out.shape[1] - 1, -1, -1):
        if base == 16:
            digit = (rest & np.uint64(15)).astype(np.uint8)
            digit += np.uint8(48) + (digit > 9) * np.uint8(39)
            higher = rest >> np.uint64(4)
        else:
            higher = rest // np.uint64(10)
            digit = (rest - higher * np.uint64(10)).astype(np.uint8) + np.uint8(48)
        if j < out.shape[1] - shown:
            digit[rest == 0] = _GAP
        out[:, j] = digit
        rest = higher


def _sign(out: np.ndarray, negative: np.ndarray) -> None:
    out[:] = _GAP
    out[negative] = _MINUS


def _integer(values: np.ndarray, base: int) -> Field:
    negative = values < 0
    # Two's-complement negation in uint64 is exact for every int64,
    # INT64_MIN included.
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    prefix = b"0x" if base == 16 else b""
    digits = _width(magnitude.max(initial=0), base)

    def fill(out: np.ndarray) -> None:
        _sign(out[:, 0], negative)
        out[:, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
        _digits(out[:, 1 + len(prefix):], magnitude, base, 1)

    return 1 + len(prefix) + digits, fill


def _fixed(values: np.ndarray, decimals: int) -> Field:
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 10.0**decimals
    slow = ~(scaled < _TWO52)  # nan, ±inf and no fraction bits left
    if slow.any():
        scaled = np.where(slow, 0.0, scaled)
    slow |= np.abs(scaled - np.floor(scaled) - 0.5) <= 2 * np.spacing(scaled)
    units = np.rint(scaled).astype(np.uint64)
    one = np.uint64(10**decimals)
    whole = units // one
    point = 1 + _width(whole.max(initial=0), 10)  # after sign and whole digits
    width = point + (1 + decimals if decimals else 0)
    by_python = (
        _padded([f"%.{decimals}f" % x for x in values[slow].tolist()])
        if slow.any() else np.empty((0, 0), np.uint8)
    )

    def fill(out: np.ndarray) -> None:
        _sign(out[:, 0], np.signbit(values))
        _digits(out[:, 1:point], whole, 10, 1)
        if decimals:
            out[:, point] = _DOT
            _digits(out[:, point + 1:width], units - whole * one, 10, decimals)
        if by_python.size:
            out[slow, :width] = _GAP
            out[:, width:] = _GAP
            out[slow, width:] = by_python

    return width + by_python.shape[1], fill


# ---------------------------------------------------------------------------
# The panels.
# ---------------------------------------------------------------------------


def _line_entries(line_table) -> list[str]:
    return [f"{function} {file} {line}" for function, file, line in line_table]


def export_counters_dat(counters, directory: str | Path) -> Path:
    """Write the performance panel (``counters.dat``) of *counters*.

    σ, MIPS, IPC and the per-instruction rates of branches and L1D,
    L2 and L3 misses.  Every fold product writes its performance panel
    here, so all paths emit byte-identical files from identical curves.
    """
    rates = ("branches", "l1d_misses", "l2_misses", "l3_misses")
    return write_table(
        Path(directory) / "counters.dat",
        "# sigma mips ipc " + " ".join(rates),
        [
            fixed(counters.sigma, 6),
            fixed(counters.mips(), 1),
            fixed(counters.ipc(), 4),
            *(fixed(counters.per_instruction(name), 6) for name in rates),
        ],
    )


def export_codeline_dat(lines, directory: str | Path) -> Path:
    """Write the folded source-code scatter (``codeline.dat``): σ,
    line id and the line's function, file and line number."""
    return write_table(
        Path(directory) / "codeline.dat",
        "# sigma line_id function file line",
        [
            fixed(lines.sigma, 6),
            decimal(lines.line_id),
            text(_line_entries(lines.line_table), lines.line_id),
        ],
    )


def export_addresses_dat(addresses, registry, directory: str | Path) -> Path:
    """Write the folded address scatter (``addresses.dat``) — the
    resident scatter or a streamed reservoir: σ, address, op, data
    source, latency and the object of *registry* it resolved to
    (``-`` when unmatched)."""
    sources, source_index = np.unique(addresses.source, return_inverse=True)
    return write_table(
        Path(directory) / "addresses.dat",
        "# sigma address op source latency object",
        [
            fixed(addresses.sigma, 6),
            hexadecimal(addresses.address),
            decimal(addresses.op),
            text([DataSource(int(s)).pretty for s in sources], source_index),
            fixed(addresses.latency, 1),
            text([rec.name for rec in registry.records] + ["-"],
                 addresses.object_index),
        ],
    )


def export_objects_dat(registry, bands, directory: str | Path) -> Path:
    """Write the address annotations (``objects.dat``): the registry's
    records, then the labelled *bands*.  One row per object, so the rows
    are plain f-strings."""
    rows = [
        f"{rec.name} {rec.kind} {rec.start:#x} {rec.end:#x} {rec.bytes_user}\n"
        for rec in registry.records
    ] + [f"{band.label} band {band.lo:#x} {band.hi:#x} 0\n" for band in bands]
    path = Path(directory) / "objects.dat"
    path.write_bytes("".join(["# name kind start end bytes_user\n", *rows]).encode())
    return path


def export_address_density_dat(sketch, directory: str | Path) -> Path:
    """Write a streamed density sketch (``address_density.dat``): per
    address band its edges, then its count in every σ bin."""
    edges = [f"{int(e):#x}" for e in sketch.band_edges()]
    bands = np.arange(sketch.bands)
    return write_table(
        Path(directory) / "address_density.dat",
        "# band_lo band_hi " + " ".join(f"s{j}" for j in range(sketch.sigma_bins)),
        [text(edges, bands), text(edges, bands + 1), decimal(sketch.counts)],
    )


def export_codeline_density_dat(lines, directory: str | Path) -> Path:
    """Write streamed line counts (``codeline_density.dat``): per line
    its id, function, file and line number, then its count in every σ
    bin."""
    ids = np.arange(len(lines.line_table))
    return write_table(
        Path(directory) / "codeline_density.dat",
        "# line_id function file line "
        + " ".join(f"s{j}" for j in range(lines.sigma_bins)),
        [
            decimal(ids),
            text(_line_entries(lines.line_table), ids),
            decimal(lines.line_counts[: ids.size]),
        ],
    )

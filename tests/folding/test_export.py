"""Byte identity of every gnuplot export against the per-row reference.

:mod:`repro.folding.export` formats blocks of rows with NumPy integer
arithmetic; :func:`export_rowwise` (shared with
``benchmarks/perf/bench_fold.py``) writes the same files with one
f-string per row.  The two must agree byte for byte on every fold
product, and on values picked to break a formatter: rounding ties,
signed zeros, non-finite values, magnitudes past 2**52, unmatched
objects, addresses past 2**63 and non-ASCII names.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.bench_fold import export_rowwise
from repro.extrae.memalloc import ObjectRecord
from repro.folding import export
from repro.folding.address import AddressBand, FoldedAddresses
from repro.folding.lines import FoldedLines
from repro.folding.report import fold_trace
from repro.folding.extrapolate import ExtrapolatedFold
from repro.folding.stream import StreamedFold, stream_fold_trace
from repro.folding.stream_views import StreamedReport
from repro.objects.registry import DataObjectRegistry

DIRECTIONS = ("counters", "address", "lines")

#: Floats where a formatter can go wrong, at 1, 4 or 6 decimals.
ADVERSARIAL = np.array([
    2.25, 0.25, 0.0000005, 0.0000025, 0.0000015, 0.5, 1.5, 2.5, -2.5,
    0.05, 0.35, 0.00045, 0.9999995, 9.99999951, 99.95, 123.4567,
    0.0, -0.0, -1e-9, -0.00000049, 5e-324, -5e-324,
    np.nan, -np.nan, np.inf, -np.inf,
    2.0**52, 2.0**52 - 0.5, 2.0**53 + 2, 4.5e15 + 0.5, 1e300, -1e300,
])


def assert_exports_match(report, tmp_path: Path, bands=()) -> list[str]:
    written = report.export_gnuplot(tmp_path / "block")
    if bands:
        # What a figure's export adds: its bands after the objects.
        export.export_objects_dat(report.registry, bands, tmp_path / "block")
    reference = export_rowwise(report, tmp_path / "rows", bands)
    names = sorted(p.name for p in written)
    assert names == sorted(p.name for p in reference)
    for path in written:
        expected = (tmp_path / "rows" / path.name).read_bytes()
        assert path.read_bytes() == expected, path.name
    return names


def adversarial_report(report):
    """*report* with synthetic address and line panels."""
    n = ADVERSARIAL.size
    registry = DataObjectRegistry([
        ObjectRecord("matrix_größe", 0x1000, 0x2000, "dynamic", 4096),
        ObjectRecord("vector", 0x3000, 0x4000, "static", 4096),
    ])
    addresses = np.resize(np.array(
        [0, 1, 15, 16, 255, 0x1000, 0xDEADBEEF, 2**48, 2**63 - 1, 2**63,
         2**63 + 5, 2**64 - 1], dtype=np.uint64), n)
    return replace(
        report,
        registry=registry,
        addresses=FoldedAddresses(
            sigma=ADVERSARIAL,
            address=addresses,
            op=np.resize(np.array([1, 2, 0, -7, 10**12]), n),
            source=np.resize(np.arange(1, 9), n),
            latency=ADVERSARIAL[::-1].copy(),
            object_index=np.resize(np.array([-1, 0, 1]), n),
            registry=registry,
        ),
        lines=FoldedLines(
            sigma=ADVERSARIAL[::-1].copy(),
            line_id=np.resize(np.array([0, 1, -1]), n),
            line_table=[("rechne_größe", "größe.cpp", 12), ("main", "main.c", 7)],
            region_id=np.zeros(n, np.int64),
            region_table=["main"],
        ),
    )


def empty_report(report):
    """*report* with no sample in its address and line panels."""
    a, li = report.addresses, report.lines
    return replace(
        report,
        addresses=replace(
            a, sigma=a.sigma[:0], address=a.address[:0], op=a.op[:0],
            source=a.source[:0], latency=a.latency[:0],
            object_index=a.object_index[:0],
        ),
        lines=replace(
            li, sigma=li.sigma[:0], line_id=li.line_id[:0], region_id=li.region_id[:0]
        ),
    )


@pytest.fixture(scope="module")
def streamed(hpcg_trace):
    report = stream_fold_trace(hpcg_trace, chunk_rows=4096, directions=DIRECTIONS)
    assert isinstance(report, StreamedReport)
    return report


class TestFoldProducts:
    def test_resident_report(self, hpcg_report, tmp_path):
        names = assert_exports_match(hpcg_report, tmp_path)
        assert names == ["addresses.dat", "codeline.dat", "counters.dat", "objects.dat"]

    def test_streamed_report(self, streamed, tmp_path):
        names = assert_exports_match(streamed, tmp_path)
        assert names == [
            "address_density.dat", "addresses.dat", "codeline_density.dat",
            "counters.dat", "objects.dat",
        ]

    def test_streamed_counters_only(self, hpcg_trace, tmp_path):
        fold = stream_fold_trace(hpcg_trace)
        assert isinstance(fold, StreamedFold)
        assert assert_exports_match(fold, tmp_path) == ["counters.dat"]

    def test_extrapolated(self, hpcg_trace, tmp_path):
        fold = fold_trace(hpcg_trace, rep_budget=2)
        assert isinstance(fold, ExtrapolatedFold)
        assert assert_exports_match(fold, tmp_path) == ["counters.dat"]

    def test_zero_rows(self, hpcg_report, tmp_path):
        assert_exports_match(empty_report(hpcg_report), tmp_path)
        assert (tmp_path / "block" / "addresses.dat").read_bytes() == (
            b"# sigma address op source latency object\n"
        )

    def test_streamed_without_lines(self, streamed, tmp_path):
        names = assert_exports_match(replace(streamed, lines=None), tmp_path)
        assert names == [
            "address_density.dat", "addresses.dat", "counters.dat", "objects.dat",
        ]

    def test_many_blocks(self, hpcg_report, streamed, tmp_path, monkeypatch):
        """Block boundaries, also inside a density matrix, change no byte."""
        monkeypatch.setattr(export, "BLOCK_ROWS", 7)
        assert_exports_match(hpcg_report, tmp_path / "resident")
        assert_exports_match(streamed, tmp_path / "streamed")


class TestAdversarialValues:
    def test_panels(self, hpcg_report, tmp_path):
        assert_exports_match(
            adversarial_report(hpcg_report), tmp_path,
            bands=[AddressBand("ghost_λ", 0x1000, 0x1800)],
        )
        # Addresses past 2**63 print as their int64 value, as before.
        rows = (tmp_path / "block" / "addresses.dat").read_text("utf-8").splitlines()
        assert [row.split()[1] for row in rows[10:13]] == [
            "-0x8000000000000000", "-0x7ffffffffffffffb", "-0x1",
        ]

    def test_rounding_ties_and_signs(self, tmp_path):
        for decimals in (0, 1, 4, 6):
            path = export.write_table(
                tmp_path / "t.dat", "# x", [export.fixed(ADVERSARIAL, decimals)]
            )
            expected = [f"%.{decimals}f" % x for x in ADVERSARIAL.tolist()]
            assert path.read_text("utf-8").splitlines()[1:] == expected
        assert export_values([2.25, 0.0000005, 0.0000025], 1) == ["2.2", "0.0", "0.0"]
        assert export_values([0.0000005, 0.0000025, -0.0], 6) == [
            "0.000000", "0.000003", "-0.000000",
        ]


def export_values(values, decimals):
    with tempfile.TemporaryDirectory() as tmp:
        path = export.write_table(
            Path(tmp) / "t.dat", "#", [export.fixed(values, decimals)]
        )
        return path.read_text("utf-8").splitlines()[1:]


def export_ints(values, column):
    with tempfile.TemporaryDirectory() as tmp:
        path = export.write_table(Path(tmp) / "t.dat", "#", [column(values)])
        return path.read_text("utf-8").splitlines()[1:]


near_ties = st.builds(
    lambda k, d, sign: sign * (2 * k + 1) / (2 * 10**d),
    st.integers(0, 10**9), st.integers(0, 8), st.sampled_from([1.0, -1.0]),
)


class TestFormatsAgainstPython:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64) | near_ties, max_size=40),
           st.sampled_from([0, 1, 4, 6]))
    def test_fixed(self, values, decimals):
        assert export_values(values, decimals) == [f"%.{decimals}f" % x for x in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    def test_decimal_and_hex(self, values):
        assert export_ints(values, export.decimal) == ["%d" % v for v in values]
        assert export_ints(values, export.hexadecimal) == ["%#x" % v for v in values]

    def test_matrix_column(self, tmp_path):
        counts = np.array([[0, 12, 345], [6789, 0, 1]])
        path = export.write_table(
            tmp_path / "m.dat", "# id c",
            [export.decimal([4, 5]), export.decimal(counts)],
        )
        assert path.read_text() == "# id c\n4 0 12 345\n5 6789 0 1\n"

    def test_text_lookup(self, tmp_path):
        path = export.write_table(
            tmp_path / "s.dat", "# s",
            [export.text(["a", "größe", "-"], [0, 1, -1, 1])],
        )
        assert path.read_text("utf-8") == "# s\na\ngröße\n-\ngröße\n"

    def test_columns_must_agree_in_length(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            export.write_table(
                tmp_path / "x.dat", "#",
                [export.decimal([1, 2]), export.decimal([1])],
            )

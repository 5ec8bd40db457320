"""Tests for the structural differ and the golden-trace fixtures."""

from pathlib import Path

import pytest

from repro.extrae.trace import Trace
from repro.memsim.engines import ENGINE_NAMES
from repro.validate import (
    check_goldens,
    diff_traces,
    golden_trace,
    inject_perturbation,
    validate_trace,
    write_goldens,
)
from repro.validate.golden import GOLDEN_SAMPLERS, golden_key, golden_path, main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def reference():
    return golden_trace("vectorized")


class TestDiffer:
    def test_identical_traces(self, reference):
        again = golden_trace("vectorized")
        diff = diff_traces(reference, again)
        assert diff.identical
        assert diff.summary() == "traces identical"

    def test_single_address_perturbation_localized(self, reference):
        row = 17
        bad = inject_perturbation(reference, "address", row, 64)
        diff = diff_traces(reference, bad)
        assert not diff.identical
        first = diff.first()
        assert first.section == "samples"
        assert first.column == "address"
        assert first.row == row
        assert len(diff.divergences) == 1

    def test_single_latency_perturbation_localized(self, reference):
        row = 5
        bad = inject_perturbation(reference, "latency", row, 3.5)
        diff = diff_traces(reference, bad)
        first = diff.first()
        assert (first.section, first.column, first.row) == (
            "samples", "latency", row,
        )
        assert first.a != first.b

    def test_tolerance_absorbs_small_drift(self, reference):
        # Delta large enough to survive the float32 latency column.
        bad = inject_perturbation(reference, "latency", 5, 1e-3)
        assert not diff_traces(reference, bad).identical
        assert diff_traces(reference, bad, rtol=1e-2).identical

    def test_sample_count_mismatch(self, reference):
        table = reference.sample_table()
        truncated = Trace.from_parts(
            metadata=reference.metadata,
            events=reference.events,
            objects=reference.objects,
            labels=reference.labels,
            callstacks=reference.callstacks,
            table=table.select(table.time_ns < float(table.time_ns[-1])),
        )
        diff = diff_traces(reference, truncated)
        first = diff.first()
        assert (first.section, first.column) == ("samples", "n")

    def test_metadata_divergence(self, reference):
        other = golden_trace("precise")
        diff = diff_traces(reference, other)
        assert any(
            d.section == "metadata" and d.column == "engine"
            for d in diff.divergences
        )

    def test_ignore_metadata(self, reference):
        other = golden_trace("precise")
        diff = diff_traces(reference, other, ignore_metadata=("engine",))
        # precise and vectorized are bit-identical apart from the
        # engine name — the registry's core guarantee.
        assert diff.identical, diff.summary()

    def test_summary_reports_column_and_row(self, reference):
        bad = inject_perturbation(reference, "address", 3, 8)
        text = diff_traces(reference, bad).summary()
        assert "samples.address row 3" in text


class TestGoldenFixtures:
    @pytest.mark.parametrize("sampler", GOLDEN_SAMPLERS)
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_committed_fixture_exists(self, engine, sampler):
        assert golden_path(GOLDEN_DIR, engine, sampler).exists()

    @pytest.mark.parametrize("sampler", GOLDEN_SAMPLERS)
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_no_drift_against_committed(self, engine, sampler):
        """The golden regression gate: regenerate and diff."""
        key = golden_key(engine, sampler)
        diffs = check_goldens(GOLDEN_DIR, (engine,), (sampler,))
        assert diffs[key].identical, (
            f"golden drift for {key!r}:\n{diffs[key].summary()}\n"
            "If this change is intentional, regenerate with "
            "`python -m repro.validate.golden tests/golden`."
        )

    @pytest.mark.parametrize("sampler", GOLDEN_SAMPLERS)
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_committed_fixture_validates(self, engine, sampler):
        trace = Trace.load(golden_path(GOLDEN_DIR, engine, sampler))
        report = validate_trace(trace)
        assert report.ok, report.summary()
        assert trace.metadata.get("sampler", "pebs") == sampler

    def test_missing_fixture_reported(self, tmp_path):
        diffs = check_goldens(tmp_path, ("analytic",), ("pebs",))
        first = diffs["analytic"].first()
        assert (first.section, first.column) == ("file", "missing")

    def test_write_goldens_round_trip(self, tmp_path):
        paths = write_goldens(tmp_path, ("analytic",), ("pebs", "spe"))
        assert all(p.exists() for p in paths)
        diffs = check_goldens(tmp_path, ("analytic",), ("pebs", "spe"))
        assert diffs["analytic"].identical
        assert diffs["analytic+spe"].identical


class TestGoldenCheckCli:
    """``python -m repro.validate.golden --check``: exit 0 and ``ok``
    per fixture without drift, exit 1 and ``DRIFT`` with the diverging
    cell otherwise."""

    ARGS = ["--engines", "analytic", "--samplers", "pebs"]

    def test_committed_fixture_checks_ok(self, capsys):
        assert main(["--check", str(GOLDEN_DIR), *self.ARGS]) == 0
        assert capsys.readouterr().out == "analytic: ok\n"

    def test_perturbed_fixture_reports_drift(self, tmp_path, capsys):
        committed = Trace.load(golden_path(GOLDEN_DIR, "analytic"))
        inject_perturbation(committed, "address", 3, 8).save(
            golden_path(tmp_path, "analytic")
        )
        assert main(["--check", str(tmp_path), *self.ARGS]) == 1
        out = capsys.readouterr().out
        assert "analytic: DRIFT" in out
        assert "samples.address row 3" in out

"""FoldSpec: one checked value behind every fold entry.

Three contracts:

* the spec rejects out-of-range parameters and impossible path
  combinations on construction, with the error texts the wiring tests
  match on;
* every fold entry addresses the FoldCache through the spec, under
  keys byte-identical to the hand-written keys of FOLD_CACHE_VERSION 2
  — pinned here as literal digests, so an existing cache stays warm;
* a fold entry's product depends on (trace, spec) alone: its other
  keywords only run the fold, and a cached read equals the uncached
  fold.
"""

import inspect
from dataclasses import fields, replace

import pytest

from repro.folding.cache import FOLD_CACHE_VERSION, FoldCache
from repro.folding.report import FoldedReport, fold_trace
from repro.folding import spec as fs
from repro.folding.spec import FoldSpec
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.folding.stream_views import StreamedReport

from tests.folding.test_cache import stream_trace
from tests.folding.test_plan import assert_reports_identical

#: Stand-in trace digest, so the pins do not depend on the simulator.
DIGEST = "0123456789abcdef" * 4
THREE = ("counters", "address", "lines")


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


class TestChecks:
    def test_defaults(self):
        spec = FoldSpec()
        assert (spec.grid_points, spec.bandwidth, spec.prune_tolerance) == (
            201, 0.015, 0.5
        )
        assert not spec.streaming and spec.rep_budget is None

    @pytest.mark.parametrize("fields, match", [
        (dict(bandwidth=float("nan")), "bandwidth"),
        (dict(bandwidth=float("inf")), "bandwidth"),
        (dict(bandwidth=0.0), "bandwidth"),
        (dict(bandwidth=-1.0), "bandwidth"),
        (dict(grid_points=1), "grid_points"),
        (dict(grid_points=-5), "grid_points"),
        (dict(rep_budget=0), "budget"),
        (dict(rep_budget=2, rep_seed=-1), "rep_seed"),
        (dict(directions=THREE), "streaming"),
        (dict(streaming=True, directions=("bogus",)), "bogus"),
        (dict(rep_budget=2, streaming=True), "streaming"),
        (dict(rep_budget=2, align_regions=("a",)), "resident fold"),
        (dict(streaming=True, align_regions=("a",)), "resident fold"),
    ])
    def test_rejects(self, fields, match):
        with pytest.raises(ValueError, match=match):
            FoldSpec(**fields)

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="bandwidth"):
            replace(FoldSpec(), bandwidth=float("nan"))

    def test_normalizes(self):
        spec = FoldSpec(align_regions=["b", "a"])
        assert spec.align_regions == ("b", "a")
        assert FoldSpec(streaming=True, directions=("counters",)).directions is None
        assert FoldSpec(streaming=True, directions="lines").directions == (
            "counters", "lines"
        )

    def test_path_names_the_fold_and_what_it_serves(self, trace):
        paths = {
            fs.RESIDENT: FoldSpec(align_regions=("triad",)),
            fs.STREAMED: FoldSpec(streaming=True, directions=("counters",)),
            fs.STREAMED_REPORT: FoldSpec(streaming=True, directions="lines"),
            fs.REPRESENTATIVE: FoldSpec(rep_budget=2),
        }
        for path, spec in paths.items():
            assert spec.path == path
            assert [d for d in fs.DIRECTIONS if fs.serves(path, d)] == (
                list(fs.DIRECTIONS) if path == fs.RESIDENT else ["counters"]
            )
            # each product names the path that folds it
            assert fold_trace(trace, spec).fold_path == path
        # only the resident report stands in for another fold
        assert [
            (a, b) for a in paths for b in paths if a != b and fs.serves(a, b)
        ] == [(fs.RESIDENT, fs.STREAMED)]

    def test_frozen_and_hashable(self):
        spec = FoldSpec(grid_points=101)
        with pytest.raises(AttributeError):
            spec.grid_points = 5
        assert {spec: 1}[FoldSpec(grid_points=101)] == 1


class _KeyRecorder(FoldCache):
    """Records the keys a fold entry derives, then stops the fold."""

    class Taken(Exception):
        pass

    def __init__(self, tmp_path):
        super().__init__(directory=tmp_path)
        self.keys = []

    def key(self, trace_digest, spec):
        key = super().key(DIGEST, spec)
        self.keys.append(key)
        return key

    def get(self, key):
        raise self.Taken


#: Keys the hand-written cache.key blocks of FOLD_CACHE_VERSION 2
#: derived for DIGEST; every entry below must still address these.
RESIDENT = "eb63ab709041d8797c663b91c378b0936f5a216075685691dfa22ba6e4e53836"
PINNED = [
    (lambda t, c: fold_trace(t, cache=c), RESIDENT),
    (lambda t, c: fold_trace(t, grid_points=101, cache=c),
     "e19ad81a63b7546d980ac82d2d275a7e18d2027f268ccd602ddcc7a1d4e29e69"),
    (lambda t, c: fold_trace(t, bandwidth=0.03, cache=c),
     "13a962e0009ca36d726a417d2e5816780e939f384f9e588e48da815f6d767e9e"),
    (lambda t, c: fold_trace(t, align_regions=("triad",), cache=c),
     "31804361a14b3ea4eb57b13ac53ebf0cca105bb4237d745892e83db8fb1ea54c"),
    (lambda t, c: fold_trace(t, rep_budget=3, rep_seed=7, cache=c),
     "f459b497c9ebc5e27f66110fec958f27a38d88afaedc3483f38048e5e219be6d"),
    (lambda t, c: stream_fold_trace(t, cache=c), RESIDENT),
    (lambda t, c: fold_trace(t, streaming=True, cache=c), RESIDENT),
    (lambda t, c: stream_fold_trace(t, directions=THREE, cache=c),
     "ae39ca4c1864e7e7de420925a534d9bd8b6995de2d8690c444feacfdbc2ff284"),
    (lambda t, c: fold_trace(t, streaming=True, directions=THREE, cache=c),
     "ae39ca4c1864e7e7de420925a534d9bd8b6995de2d8690c444feacfdbc2ff284"),
]


PINNED_IDS = [
    "resident", "grid", "bandwidth", "align", "reps_seed",
    "streamed_counters", "fold_trace_streamed_counters",
    "streamed_three", "fold_trace_streamed_three",
]


class TestCacheKeys:
    def test_cache_version_unchanged(self):
        assert FOLD_CACHE_VERSION == 2

    @pytest.mark.parametrize("entry, pinned", PINNED, ids=PINNED_IDS)
    def test_entry_keys_are_pinned(self, trace, tmp_path, entry, pinned):
        recorder = _KeyRecorder(tmp_path)
        with pytest.raises(_KeyRecorder.Taken):
            entry(trace, recorder)
        assert recorder.keys == [pinned]

    @pytest.mark.parametrize("entry", [e for e, _ in PINNED], ids=PINNED_IDS)
    def test_cached_read_equals_uncached_fold(self, trace, tmp_path, entry):
        uncached = entry(trace, None)
        entry(trace, FoldCache(tmp_path))  # stores
        hit = entry(trace, FoldCache(tmp_path))  # empty memo: a disk read
        assert type(hit) is type(uncached)
        if isinstance(hit, StreamedReport):
            # every streamed direction, the performance one included
            assert hit.digest() == uncached.digest()
        else:
            assert fold_digest(hit) == fold_digest(uncached)
        if isinstance(hit, FoldedReport):
            assert_reports_identical(hit, uncached)

    def test_streamed_key_records_the_summary_settings(self, trace):
        spec = FoldSpec(streaming=True, directions=THREE)
        _, params = spec.cache_key()
        report = stream_fold_trace(trace, spec)
        assert (
            params["reservoir_capacity"],
            params["reservoir_seed"],
            params["reservoir_weighting"],
            params["line_sigma_bins"],
        ) == (
            report.addresses.capacity,
            report.addresses.seed,
            "uniform",
            report.lines.sigma_bins,
        )


class TestFoldEntryArguments:
    """A fold entry's product depends on (trace, FoldSpec) alone."""

    @pytest.mark.parametrize("entry", [fold_trace, stream_fold_trace])
    def test_keywords_outside_the_spec_only_run_the_fold(self, entry):
        params = inspect.signature(entry).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        spec_fields = {f.name for f in fields(FoldSpec)}
        assert keywords - spec_fields == {
            "cache", "chunk_rows", "report_every", "on_snapshot"
        }

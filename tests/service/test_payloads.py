"""Payload encoding: a sealed body is encoded once, bytes unchanged."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.extrae.memalloc import ObjectRecord
from repro.folding.report import fold_trace
from repro.service.payloads import (
    _objects,
    canonical_bytes,
    fold_body,
    fold_payload,
    payload_digest,
    seal,
    sealed_bytes,
)

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"version": 1},
        {"counters_digest": "c"},
        {"payload_digest": "stale", "a": [1.5, -0.0], "z": {"b": 2, "a": 1}},
        {"objects": [{"z": 1, "a": "λ"}], "payload_digest": "x", "version": 1},
    ],
    ids=["empty", "after-only", "before-only", "restamped", "nested"],
)
def test_sealed_bytes_equal_the_sealed_payload(payload):
    want = canonical_bytes(seal(copy.deepcopy(payload)))
    assert sealed_bytes(payload) == want


@pytest.mark.parametrize(
    "fields, directions",
    [
        ({}, ("counters", "address", "lines")),
        ({"streaming": True}, ("counters",)),
        ({"rep_budget": 2}, ("counters",)),
    ],
    ids=["resident", "streamed", "reps"],
)
@pytest.mark.parametrize("points", [0, 40])
def test_fold_body_is_the_sealed_fold_payload(traced, fields, directions, points):
    fold = fold_trace(traced, **fields)
    for direction in directions:
        body = fold_body(fold, direction, points)
        payload = fold_payload(fold, direction, points)
        assert body == canonical_bytes(payload), direction
        assert payload["payload_digest"] == payload_digest(payload)


def _objects_by_mask(a, records):
    """The address body's object table as it was first written: one
    mask and two masked reductions over every sample, per object."""
    rows = []
    for i, rec in enumerate(records):
        mask = a.object_index == i
        n = int(mask.sum())
        rows.append(
            {
                "name": rec.name,
                "kind": rec.kind,
                "start": int(rec.start),
                "end": int(rec.end),
                "bytes_user": int(rec.bytes_user),
                "n_samples": n,
                "mean_latency": float(a.latency[mask].mean()) if n else 0.0,
                "n_stores": int((a.op[mask] == 1).sum()) if n else 0,
            }
        )
    return rows


def _records(n):
    return [
        ObjectRecord(f"obj{i}", 4096 * (i + 1), 4096 * (i + 2), "dynamic", 4096)
        for i in range(n)
    ]


class TestObjectTable:
    """The vectorized object table equals the per-object mask loop."""

    def test_equals_the_mask_loop_on_a_fold(self, traced):
        report = fold_trace(traced)
        records = report.registry.records
        got = _objects(report.addresses, records)
        assert canonical_bytes(got) == canonical_bytes(
            _objects_by_mask(report.addresses, records)
        )
        assert sum(row["n_samples"] for row in got) > 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_objects(self, dtype):
        rng = np.random.default_rng(3)
        n = 5000
        # object 0: loads and stores, many samples (pairwise blocks);
        # object 1: no samples; object 2: stores only; object 3: three
        # samples; -1: unmatched samples, interleaved with the rest.
        index = rng.choice([-1, 0, 0, 0, 2], size=n)
        index[[17, 400, 4999]] = 3
        op = np.where(index == 2, 1, rng.integers(0, 2, size=n)).astype(np.int8)
        latency = (rng.gamma(2.0, 40.0, size=n) + 4.0).astype(dtype)
        a = SimpleNamespace(object_index=index, op=op, latency=latency)
        records = _records(4)
        got = _objects(a, records)
        assert canonical_bytes(got) == canonical_bytes(_objects_by_mask(a, records))
        by_name = {row["name"]: row for row in got}
        assert by_name["obj1"]["n_samples"] == 0
        assert by_name["obj1"]["mean_latency"] == 0.0
        assert by_name["obj2"]["n_stores"] == by_name["obj2"]["n_samples"] > 0
        assert by_name["obj3"]["n_samples"] == 3

    def test_no_samples(self):
        a = SimpleNamespace(
            object_index=np.empty(0, np.int64),
            op=np.empty(0, np.int8),
            latency=np.empty(0, np.float32),
        )
        records = _records(2)
        assert _objects(a, records) == _objects_by_mask(a, records)

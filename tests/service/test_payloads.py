"""Payload encoding: a sealed body is encoded once, bytes unchanged."""

import copy

import pytest

from repro.folding.report import fold_trace
from repro.service.payloads import (
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

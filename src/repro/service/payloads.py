"""JSON payload builders for the analysis service.

Every response body the service caches or serves is built here, from
the same folded products the batch CLI exports — so a served payload
can be digest-checked against a direct
:func:`~repro.folding.report.fold_trace` of the same container
(the ``service`` benchmark scenario does exactly that).

Payloads are **canonical**: dict keys sorted, floats serialized by
``repr`` through ``json.dumps`` with no whitespace variance, arrays as
plain lists.  :func:`payload_digest` hashes that canonical form, and
the digest rides inside the payload under ``"payload_digest"`` so
clients can verify what they received.  :func:`sealed_bytes` (and
:func:`fold_body` for fold payloads) writes the sealed body while
encoding the payload once: the digest is spliced into its sorted place
in the encoding it was hashed from.  The payload layout is
versioned by :data:`PAYLOAD_VERSION`, which is part of every ETag —
bump it when a field changes shape and cached 304 validators die with
it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "PAYLOAD_VERSION",
    "address_payload",
    "canonical_bytes",
    "counters_payload",
    "fold_body",
    "fold_payload",
    "lines_payload",
    "payload_digest",
    "seal",
    "sealed_bytes",
]

#: Version of the payload layout, baked into ETags and response-cache
#: keys.  Bump on any shape change.
PAYLOAD_VERSION = 1

#: Per-instruction rate curves exported next to MIPS/IPC (the same set
#: the batch exporter writes to ``counters.dat``).
RATE_COUNTERS = ("branches", "l1d_misses", "l2_misses", "l3_misses")


def _floats(arr) -> list[float]:
    return np.asarray(arr, dtype=np.float64).tolist()


def _ints(arr) -> list[int]:
    return np.asarray(arr, dtype=np.int64).tolist()


def canonical_bytes(payload: dict) -> bytes:
    """The canonical JSON encoding of a payload (stable across runs)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_digest(payload: dict) -> str:
    """Hex SHA-256 of the canonical form, ``payload_digest`` excluded."""
    scrubbed = {k: v for k, v in payload.items() if k != "payload_digest"}
    return hashlib.sha256(canonical_bytes(scrubbed)).hexdigest()


def seal(payload: dict) -> dict:
    """Stamp the content digest into the payload and return it."""
    payload["payload_digest"] = payload_digest(payload)
    return payload


_DIGEST_KEY = "payload_digest"


def sealed_bytes(payload: dict) -> bytes:
    """``canonical_bytes(seal(payload))``, encoding *payload* once.

    Keys are sorted, so ``"payload_digest"`` has one place among the
    top-level keys.  The members before and after it are encoded once,
    hashed together as the canonical form without the digest, and the
    digest member is spliced in between them.  Members are sliced as
    views, so the body is copied once more, into the result.
    """
    before = memoryview(canonical_bytes(
        {k: v for k, v in payload.items() if k < _DIGEST_KEY}
    ))[1:-1]
    after = memoryview(canonical_bytes(
        {k: v for k, v in payload.items() if k > _DIGEST_KEY}
    ))[1:-1]
    h = hashlib.sha256(b"{")
    h.update(before)
    h.update(b"," if before and after else b"")
    h.update(after)
    h.update(b"}")
    stamp = f'"{_DIGEST_KEY}":"{h.hexdigest()}"'.encode()
    return b"".join([
        b"{", before, b"," if before else b"", stamp,
        b"," if after else b"", after, b"}",
    ])


def counters_payload(fold) -> dict:
    """The performance direction of a fold, as JSON-able curves.

    Accepts anything carrying ``counters``/``instances`` plus the
    folded-sample count ``n_folded`` — the resident
    :class:`~repro.folding.report.FoldedReport`, the
    :class:`~repro.folding.stream.StreamedFold` and the
    :class:`~repro.folding.extrapolate.ExtrapolatedFold` all do (their
    curves are bit-identical across paths by construction, so the
    payload digest is a property of the *content*, not of which fold
    path produced it).
    """
    return seal(_counters(fold))


def address_payload(report, max_points: int = 0) -> dict:
    """The memory direction: per-object accounting + optional scatter.

    The accounting tables are exact and bounded by the object count;
    the raw (σ, address) scatter is only included up to *max_points*
    rows (0 = tables only) so a multi-million-sample fold serves a
    bounded body.
    """
    return seal(_address(report, max_points))


def lines_payload(report, max_points: int = 0) -> dict:
    """The source-code direction: line table + per-line sample counts."""
    return seal(_lines(report, max_points))


def fold_payload(fold, direction: str, max_points: int = 0) -> dict:
    """The *direction* payload of *fold* (``counters``/``address``/``lines``).

    *max_points* bounds the scatter/track rows of the address and lines
    payloads; the counters payload ignores it.
    """
    return seal(_fields(fold, direction, max_points))


def fold_body(fold, direction: str, max_points: int = 0) -> bytes:
    """``canonical_bytes(fold_payload(...))``, encoding the payload once."""
    return sealed_bytes(_fields(fold, direction, max_points))


# -- unsealed payload fields -------------------------------------------------


def _fields(fold, direction: str, max_points: int) -> dict:
    if direction == "counters":
        return _counters(fold)
    if direction == "address":
        return _address(fold, max_points)
    if direction == "lines":
        return _lines(fold, max_points)
    raise ValueError(f"unknown fold direction {direction!r}")


def _counters(fold) -> dict:
    counters = fold.counters
    return {
        "version": PAYLOAD_VERSION,
        "direction": "counters",
        "n_instances": int(fold.instances.n),
        "n_folded": int(fold.n_folded),
        "sigma": _floats(counters.sigma),
        "mips": _floats(counters.mips()),
        "ipc": _floats(counters.ipc()),
        "rates": {
            name: _floats(counters.per_instruction(name))
            for name in RATE_COUNTERS
        },
        "counters_digest": counters.digest(),
    }


def _objects(a, records) -> list[dict]:
    """One row per object: its sample and store counts and the mean
    latency of its samples.

    Key ``k = object_index + 1`` puts unmatched samples (-1) at 0.  The
    counts are ``bincount``s.  A stable sort by key lays each object's
    latencies out contiguously in sample order, so the mean of its
    slice is ``latency[object_index == i].mean()`` bit for bit (same
    elements, same order, same pairwise sum), without masking every
    sample once per object.  A key of at most 16 bits sorts by radix.
    """
    n_keys = len(records) + 1
    key = np.asarray(a.object_index, dtype=np.int64) + 1
    if n_keys <= np.iinfo(np.uint16).max:
        key = key.astype(np.uint16)
    sizes = np.bincount(key, minlength=n_keys)
    stores = np.bincount(key[np.asarray(a.op) == 1], minlength=n_keys)
    latency = np.asarray(a.latency)[np.argsort(key, kind="stable")]
    ends = np.cumsum(sizes).tolist()
    objects = []
    for i, rec in enumerate(records):
        n = int(sizes[i + 1])
        objects.append(
            {
                "name": rec.name,
                "kind": rec.kind,
                "start": int(rec.start),
                "end": int(rec.end),
                "bytes_user": int(rec.bytes_user),
                "n_samples": n,
                "mean_latency": (
                    float(latency[ends[i] : ends[i + 1]].mean()) if n else 0.0
                ),
                "n_stores": int(stores[i + 1]),
            }
        )
    return objects


def _address(report, max_points: int) -> dict:
    a = report.addresses
    objects = _objects(a, report.registry.records)
    payload = {
        "version": PAYLOAD_VERSION,
        "direction": "address",
        "n_points": int(a.n),
        "matched_fraction": a.matched_fraction(),
        "objects": objects,
    }
    if max_points and a.n:
        keep = slice(0, min(int(max_points), a.n))
        payload["scatter"] = {
            "sigma": _floats(a.sigma[keep]),
            "address": [int(v) for v in a.address[keep]],
            "op": _ints(a.op[keep]),
            "latency": _floats(a.latency[keep]),
        }
    return payload


def _lines(report, max_points: int) -> dict:
    li = report.lines
    ids, counts = (
        np.unique(np.asarray(li.line_id), return_counts=True)
        if li.n
        else (np.empty(0, np.int64), np.empty(0, np.int64))
    )
    lines = [
        {
            "function": li.line_table[int(i)][0],
            "file": li.line_table[int(i)][1],
            "line": int(li.line_table[int(i)][2]),
            "n_samples": int(c),
        }
        for i, c in zip(ids, counts)
    ]
    payload = {
        "version": PAYLOAD_VERSION,
        "direction": "lines",
        "n_points": int(li.n),
        "lines": lines,
        "regions": list(li.region_table),
    }
    if max_points and li.n:
        keep = slice(0, min(int(max_points), li.n))
        payload["track"] = {
            "sigma": _floats(li.sigma[keep]),
            "line_id": _ints(li.line_id[keep]),
        }
    return payload

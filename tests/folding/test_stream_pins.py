"""Pinned digests of the streamed address and line summaries.

The streamed report's reservoir, accounting, density sketch and line
matrices are pure functions of (trace, capacity, seed): these pins hold
their digests as literals, so a change to how the accumulators are
computed must leave every product bit for bit where it was.  The
reservoirs here subsample (capacity below the 1,027 kept samples of the
STREAM trace), so the pins cover the selection, not just a full copy.
"""

import numpy as np
import pytest

from repro.folding.report import fold_trace
from repro.folding.stream import stream_fold_trace
from repro.folding.stream_views import AddressReservoir
from tests.folding.test_stream_views import (
    DIRECTIONS,
    fed_addresses,
    stream_trace,
)

#: ``StreamedAddresses.digest()`` per (capacity, seed).
ADDRESS_PINS = {
    (64, 0): "bbcb07ba62ab659829d3264651c5c2d82e1b19dd4819de733dd5449233d855b2",
    (64, 7): "8200b427731dadaad1c8886251086950c2ef284b0e3f048953ad505c73072abf",
    (512, 0): "c6e6f8776c76007a2d6c2220c79ebeceafaff0b26be879849be9f04cc4667303",
    (512, 7): "7061552046d053bb1973548af69df59dd47aacef44ae4e06fda6596b0c72ccd2",
}
LINES_PIN = "e42b78ae5d69fd25814d7b36dffafcc49edfe69f9bfafdcc8909d6270fd484b2"
KEPT = 1027


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


@pytest.fixture(scope="module")
def resident(trace):
    folded = fold_trace(trace)
    assert folded.addresses.n == KEPT
    return folded


@pytest.mark.parametrize("chunk_rows", [13, 997, KEPT])
@pytest.mark.parametrize("capacity,seed", sorted(ADDRESS_PINS))
def test_address_digest_pinned(resident, capacity, seed, chunk_rows):
    fed = fed_addresses(resident, chunk_rows, capacity=capacity, seed=seed)
    assert fed.n == capacity
    assert fed.n_folded == KEPT
    assert fed.digest() == ADDRESS_PINS[capacity, seed]


@pytest.mark.parametrize("chunk_rows", [13, 997])
def test_lines_digest_pinned(trace, chunk_rows):
    report = stream_fold_trace(trace, chunk_rows=chunk_rows, directions=DIRECTIONS)
    assert report.lines.digest() == LINES_PIN


@pytest.mark.parametrize("capacity", [1, 64, KEPT + 1])
def test_tied_keys_settled_by_index(resident, monkeypatch, capacity):
    """Keys floored to integers tie in most rows; the reservoir still
    keeps the whole-stream top ``capacity`` by (key descending, index
    ascending), whatever the chunking and the order the chunks come in."""
    exact = AddressReservoir._keys_for
    monkeypatch.setattr(
        AddressReservoir, "_keys_for", lambda self, index: np.floor(exact(self, index))
    )
    r = resident.addresses
    index = np.arange(KEPT, dtype=np.int64)
    keys = AddressReservoir(capacity)._keys_for(index)
    assert np.unique(keys).size < KEPT // 10
    expected = np.sort(np.lexsort((index, -keys))[:capacity])
    columns = {
        "sigma": r.sigma,
        "address": r.address,
        "op": r.op,
        "source": r.source,
        "latency": r.latency,
        "object_index": r.object_index,
    }
    for chunk_rows in (1, 13, 997, KEPT):
        starts = range(0, KEPT, chunk_rows)
        for order in (starts, reversed(starts)):
            reservoir = AddressReservoir(capacity)
            for lo in order:
                part = slice(lo, lo + chunk_rows)
                reservoir.add(lo, **{k: v[part] for k, v in columns.items()})
            kept, cols = reservoir.result()
            np.testing.assert_array_equal(kept, expected)
            np.testing.assert_array_equal(cols["sigma"], r.sigma[expected])

"""Concurrent analysis service over the trace repository.

Modules
-------
:mod:`repro.service.server`
    The asyncio HTTP server (:class:`~repro.service.server.AnalysisServer`).
:mod:`repro.service.client`
    Blocking client with ETag revalidation.
:mod:`repro.service.tables`
    LRU of shared-mmap open traces.
:mod:`repro.service.work`
    Picklable cold-fold job for the worker pool.
:mod:`repro.service.payloads`
    Canonical, digest-stamped JSON payload builders.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.payloads import PAYLOAD_VERSION, payload_digest
from repro.service.server import AnalysisServer
from repro.service.tables import SharedTraceCache

__all__ = [
    "PAYLOAD_VERSION",
    "AnalysisServer",
    "ServiceClient",
    "ServiceError",
    "SharedTraceCache",
    "payload_digest",
]

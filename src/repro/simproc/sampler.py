"""The sampler abstraction: one contract, many sampling backends.

The paper's pipeline is built on PEBS semantics (per-event-kind
counters, a hardware load-latency threshold).  Other processors sample
differently — ARM's Statistical Profiling Extension picks every Nth
*operation* from a single stream, records loads *and* stores natively,
and applies latency filtering to the recorded packets in software.  So
downstream layers (trace, validation, folding, rank aggregation) must
not hard-code one semantics; they consume samples through this
interface and are tested against both backends.

The contract
------------
A :class:`Sampler` is a pure, stateful offset generator over the
operation stream:

* :meth:`Sampler.take` answers "which of the next *n* operations of
  kind X are sampled?" and carries its countdown across batches, so
  sample spacing is correct however the workload is chopped up;
* :meth:`Sampler.latency_filter` is the backend's latency gate —
  hardware ``ldlat`` for PEBS, a software packet post-filter for SPE;
* :meth:`Sampler.classify` lets a backend rewrite sources/latencies of
  recorded samples (SPE's remote-access/NUMA data-source codes); the
  machine only calls it when :attr:`Sampler.post_classifies` is set,
  keeping the default PEBS path byte-for-byte unchanged;
* :meth:`Sampler.metadata` contributes backend identification to the
  finished trace (consumed by the backend-aware validator).

Concrete backends: :class:`repro.simproc.pebs.PebsSampler` and
:class:`repro.simproc.spe.SpeSampler`.
"""

from __future__ import annotations

import numpy as np

from repro.extrae.schema import MemOp

__all__ = ["DEFAULT_SAMPLER", "SAMPLER_NAMES", "Sampler"]

#: Registered sampling backends, in CLI/choice order.
SAMPLER_NAMES = ("pebs", "spe")

#: The backend implied when a trace carries no ``sampler`` metadata —
#: traces written before the sampler abstraction existed are PEBS.
DEFAULT_SAMPLER = "pebs"


class Sampler:
    """Base class of every sampling backend.

    Subclasses must implement :meth:`take`; the filtering and
    classification hooks default to pass-through so a minimal backend
    is just an offset generator.
    """

    #: Registry name of the backend (matches :data:`SAMPLER_NAMES`).
    name: str = "base"

    #: When true, the machine materializes sample addresses *before*
    #: filtering and routes sources/latencies through :meth:`classify`.
    #: Backends that don't rewrite samples leave this false — the
    #: machine then takes the original (PEBS-identical) fast path.
    post_classifies: bool = False

    def take(self, op: MemOp, n_ops: int) -> np.ndarray:
        """Offsets (0-based, sorted) of sampled operations among the
        next *n_ops* operations of kind *op*.

        Advances the countdown state; call exactly once per run of
        operations, in execution order.
        """
        raise NotImplementedError

    def latency_filter(self, op: MemOp, latencies: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over recorded sample latencies.

        The default keeps everything; backends implement their latency
        gate here (hardware threshold or software post-filter).
        """
        return np.ones(np.asarray(latencies).shape, dtype=bool)

    def classify(
        self,
        op: MemOp,
        addresses: np.ndarray,
        sources: np.ndarray,
        latencies: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backend-specific rewrite of recorded sample payloads.

        Called by the machine only when :attr:`post_classifies` is
        true, with the sampled operations' addresses, engine-assigned
        sources and latencies; returns possibly rewritten
        ``(sources, latencies)`` arrays of the same length.
        """
        return sources, latencies

    def expected_rate(self, op: MemOp) -> float:
        """Expected samples per operation (0 if the kind is unsampled)."""
        raise NotImplementedError

    def metadata(self) -> dict:
        """Backend identification merged into the trace metadata.

        The default backend returns an empty dict so pre-existing PEBS
        traces keep their exact metadata (and content digest); other
        backends must at least report ``{"sampler": name}``.
        """
        return {}

"""The tracer: instrumentation API over the simulated machine.

Workloads talk to the tracer exclusively:

* :meth:`Tracer.region` brackets instrumented code regions (function
  enter/exit) and maintains the call-stack that annotates samples;
* :meth:`Tracer.iteration` marks the start of a new instance of the
  periodic region — the boundaries the Folding mechanism folds over;
* :meth:`Tracer.execute` runs a kernel batch on the machine and files
  the resulting PEBS samples into the trace under the current stack;
* :meth:`Tracer.wrap_allocations` is the §III manual grouping
  instrumentation ("wrapping the first and last addresses of each group
  of allocations");
* :meth:`Tracer.finalize` scans the binary for static objects and
  seals the trace.

The tracer owns an :class:`~repro.extrae.memalloc.AllocationInterceptor`
hooked into the workload's allocator, so plain ``allocator.malloc(...)``
calls made by the workload are captured without further ceremony.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from repro.extrae.events import EventKind, TraceEvent
from repro.extrae.memalloc import AllocationInterceptor
from repro.extrae.schema import MemOp
from repro.extrae.staticobj import scan_static_objects
from repro.extrae.trace import Trace
from repro.simproc.isa import KernelBatch
from repro.simproc.machine import BatchExecution, Machine
from repro.simproc.multiplex import MultiplexSchedule
from repro.simproc.pebs import PebsConfig, PebsSampler
from repro.simproc.sampler import SAMPLER_NAMES, Sampler
from repro.simproc.spe import SpeConfig, SpeSampler
from repro.vmem.allocator import Allocator
from repro.vmem.binimage import BinaryImage
from repro.vmem.callstack import CallStack, Frame

__all__ = ["Tracer", "TracerConfig"]


@dataclass(frozen=True)
class TracerConfig:
    """Monitoring configuration.

    Parameters
    ----------
    alloc_threshold_bytes:
        Minimum allocation size tracked as an individual object.
    sampler:
        Sampling backend: ``"pebs"`` (the paper's Intel facility,
        default) or ``"spe"`` (the ARM SPE-like packet stream,
        :mod:`repro.simproc.spe`).  The rate/accuracy knobs below
        apply comparably to both.
    load_period / store_period:
        Sampling periods (operations per sample).  PEBS programs one
        counter per event kind; SPE's single blind stream uses
        ``load_period`` as its interval and ``store_period`` is
        ignored.
    randomization:
        Period randomization factor (PEBS: uniform float gap jitter;
        SPE: uniform integer interval perturbation).
    latency_threshold_cycles:
        Minimum recorded latency (0 = record all).  PEBS applies it
        in hardware to loads only (the load-latency ``ldlat``
        threshold); SPE applies it in software to every packet,
        stores included.
    sample_stores:
        Whether stores are sampled at all (PEBS: a store event group
        is programmed; SPE: store packets survive the packet filter).
    multiplex:
        Rotate load/store groups in time (the paper's single-run mode);
        with ``False`` and ``sample_stores`` both groups are presumed
        co-schedulable and always active.  SPE never multiplexes —
        loads and stores share one hardware stream.
    mpx_quantum_ns:
        Multiplexing rotation quantum.
    spe_remote_fraction:
        SPE backend only: fraction of cache lines homed on the remote
        socket (drives the remote-access data-source codes).
    self_check:
        Run the trace validator (:mod:`repro.validate.invariants`) at
        :meth:`Tracer.finalize` and raise on any error-severity
        invariant violation.  Opt-in: the pass re-reads the whole
        sample table, which is measurable on very large traces.
    """

    alloc_threshold_bytes: int = 1024
    sampler: str = "pebs"
    load_period: int = 10_000
    store_period: int = 10_000
    randomization: float = 0.10
    latency_threshold_cycles: float = 0.0
    sample_stores: bool = True
    multiplex: bool = True
    mpx_quantum_ns: float = 200_000.0
    spe_remote_fraction: float = 0.08
    self_check: bool = False

    def __post_init__(self) -> None:
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"sampler must be one of {', '.join(SAMPLER_NAMES)}, "
                f"got {self.sampler!r}"
            )

    def build_sampler(self, rng) -> Sampler:
        """The configured sampling backend."""
        if self.sampler == "spe":
            return self.build_spe(rng)
        return self.build_pebs(rng)

    def build_pebs(self, rng) -> PebsSampler:
        """PEBS sampler implied by this configuration."""
        configs = {
            MemOp.LOAD: PebsConfig(
                self.load_period, self.randomization, self.latency_threshold_cycles
            )
        }
        if self.sample_stores:
            configs[MemOp.STORE] = PebsConfig(self.store_period, self.randomization)
        return PebsSampler(configs, rng)

    def build_spe(self, rng) -> SpeSampler:
        """SPE-like sampler implied by this configuration."""
        return SpeSampler(
            SpeConfig(
                period=self.load_period,
                randomization=self.randomization,
                min_latency_cycles=self.latency_threshold_cycles,
                sample_stores=self.sample_stores,
                remote_fraction=self.spe_remote_fraction,
            ),
            rng,
        )

    def build_multiplex(self) -> MultiplexSchedule:
        """Multiplex schedule implied by this configuration."""
        ops = {MemOp.LOAD} | ({MemOp.STORE} if self.sample_stores else set())
        if self.sampler == "spe":
            # SPE's single blind packet stream captures every kind at
            # once; there are no event groups to rotate.
            return MultiplexSchedule.single(ops)
        if self.sample_stores and self.multiplex:
            return MultiplexSchedule.loads_and_stores(self.mpx_quantum_ns)
        return MultiplexSchedule.single(ops)


class Tracer:
    """Instrumentation front-end binding machine, allocator and trace."""

    def __init__(
        self,
        machine: Machine,
        allocator: Allocator,
        image: BinaryImage | None = None,
        config: TracerConfig | None = None,
        root: Frame | None = None,
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.image = image
        self.config = config or TracerConfig()
        self.trace = Trace()
        self._stack = CallStack((root or Frame("main", "main.cpp", 0),))
        # The clock reads the machine, not the tracer: a bound method of
        # the tracer would make every tracer a reference cycle that keeps
        # its finished trace alive until the cyclic GC runs.  A partial
        # (unlike a lambda) stays picklable.
        self.interceptor = AllocationInterceptor(
            allocator,
            threshold_bytes=self.config.alloc_threshold_bytes,
            clock=partial(getattr, machine, "time_ns"),
        )
        self._finalized = False

    # -- call-stack & regions ------------------------------------------------
    @property
    def current_stack(self) -> CallStack:
        return self._stack

    @contextmanager
    def region(self, name: str, frame: Frame | None = None):
        """Instrumented region: emits enter/exit events, pushes *frame*."""
        self._check_open()
        frame = frame or Frame(name, f"{name}.cpp", 0)
        self.trace.add_event(
            TraceEvent(
                self.machine.time_ns,
                EventKind.REGION_ENTER,
                name,
                {"file": frame.file, "line": frame.line},
            )
        )
        self._stack = self._stack.push(frame)
        try:
            yield self
        finally:
            self._stack = self._stack.pop()
            self.trace.add_event(
                TraceEvent(self.machine.time_ns, EventKind.REGION_EXIT, name)
            )

    def iteration(self, name: str = "iteration") -> None:
        """Mark the start of a new instance of the folded region."""
        self._check_open()
        self.trace.add_event(
            TraceEvent(self.machine.time_ns, EventKind.ITERATION, name)
        )

    def marker(self, name: str, **payload) -> None:
        """Free-form phase marker."""
        self._check_open()
        self.trace.add_event(
            TraceEvent(self.machine.time_ns, EventKind.MARKER, name, payload)
        )

    # -- execution --------------------------------------------------------
    def execute(self, batch: KernelBatch) -> BatchExecution:
        """Run *batch* on the machine; file its samples under the
        current call-stack (extended by the batch's source frame)."""
        self._check_open()
        execution = self.machine.execute(batch)
        stack = self._stack
        if batch.source is not None:
            stack = stack.push(batch.source)
        for block in execution.samples:
            self.trace.add_samples(block, stack)
        return execution

    # -- allocation grouping ------------------------------------------------
    @contextmanager
    def wrap_allocations(self, name: str):
        """Group every allocation made inside the block into one object.

        The paper's manual instrumentation: the group object spans the
        first to the last allocated address and is named like an
        allocation site (e.g. ``124_GenerateProblem_ref.cpp``).
        """
        self._check_open()
        self.trace.add_event(
            TraceEvent(self.machine.time_ns, EventKind.GROUP_BEGIN, name)
        )
        self.interceptor.begin_group(name)
        try:
            yield self
        finally:
            record = self.interceptor.end_group()
            payload = {}
            if record is not None:
                payload = {
                    "start": record.start,
                    "end": record.end,
                    "bytes_user": record.bytes_user,
                    "n_allocations": record.n_allocations,
                }
            self.trace.add_event(
                TraceEvent(self.machine.time_ns, EventKind.GROUP_END, name, payload)
            )

    # -- finalization -----------------------------------------------------
    def finalize(self) -> Trace:
        """Seal the trace: static scan, object records, metadata."""
        self._check_open()
        if self.interceptor.group_open:
            raise RuntimeError("cannot finalize with an open allocation group")
        for record in self.interceptor.records:
            self.trace.add_object(record)
        if self.image is not None:
            for record in scan_static_objects(self.image):
                self.trace.add_object(record)
        stats = self.interceptor.stats
        # The allocator holds the interceptor's bound observer and the
        # interceptor holds the allocator: left attached, that cycle
        # keeps the finished session (machine, engine, allocator) alive
        # until the cyclic GC runs.
        self.interceptor.detach()
        self.trace.metadata.update(
            {
                "alloc_threshold_bytes": self.config.alloc_threshold_bytes,
                "load_period": self.config.load_period,
                "store_period": self.config.store_period,
                "multiplex": self.config.multiplex,
                "samples_emitted": self.machine.samples_emitted,
                "samples_dropped_mpx": self.machine.samples_dropped_mpx,
                "samples_dropped_latency": self.machine.samples_dropped_latency,
                "allocs_tracked": stats.tracked,
                "allocs_untracked": stats.untracked,
                "allocs_grouped": stats.grouped,
                "duration_ns": self.machine.time_ns,
                "mpx_quantum_ns": self.config.mpx_quantum_ns,
                "total_loads": self.machine.counters.loads,
                "total_stores": self.machine.counters.stores,
                "total_instructions": self.machine.counters.instructions,
            }
        )
        if self.machine.sampler is not None:
            # Backend identification (empty for the default PEBS
            # backend, keeping pre-existing traces digest-identical;
            # absence of a "sampler" key means PEBS).
            self.trace.metadata.update(self.machine.sampler.metadata())
        self._finalized = True
        if self.config.self_check:
            # Imported here: repro.validate sits above extrae in the
            # layering and must stay importable without a tracer.
            from repro.memsim.hierarchy import HierarchyConfig
            from repro.validate.invariants import validate_trace

            hierarchy = getattr(self.machine.engine, "config", None)
            if not isinstance(hierarchy, HierarchyConfig):
                hierarchy = None
            validate_trace(self.trace, hierarchy).raise_on_error()
        return self.trace

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("tracer already finalized")

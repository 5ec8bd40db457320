"""The monitoring tool (≈ Extrae) of the reproduction.

Mirrors the two §II extensions of the paper on the monitoring side:

* **PEBS memory sampling** — the tracer drives a
  :class:`~repro.simproc.machine.Machine` whose PEBS sampler captures
  the referenced address, the access cost and the serving level of the
  memory hierarchy for a subset of memory operations; each sample is
  annotated with the current instrumented call-stack and cumulative
  hardware counters.
* **Data-object capture** — dynamic allocations are intercepted
  (``malloc``/``realloc``/``new``/the run-allocation fast path) and
  identified by their allocation call-stack; static objects come from
  scanning the binary image.  Allocations below a size threshold are
  *not* individually tracked — reproducing the paper's preliminary
  observation — unless wrapped into a named group with
  :meth:`~repro.extrae.tracer.Tracer.wrap_allocations`, the
  instrumentation-based manual grouping of §III.

Load and store sampling can be multiplexed in time
(:class:`~repro.simproc.multiplex.MultiplexSchedule`) so one run — one
ASLR layout — captures both.
"""

import importlib

#: Re-exported name -> defining module, imported on first access (PEP
#: 562): a reader that imports :mod:`repro.extrae.trace` loads neither
#: the tracer nor the simulator it drives.
_EXPORTS = {
    "AllocationInterceptor": "repro.extrae.memalloc",
    "EventKind": "repro.extrae.events",
    "ObjectRecord": "repro.extrae.memalloc",
    "OverheadModel": "repro.extrae.overhead",
    "Trace": "repro.extrae.trace",
    "TraceEvent": "repro.extrae.events",
    "Tracer": "repro.extrae.tracer",
    "TracerConfig": "repro.extrae.tracer",
    "estimate_overhead": "repro.extrae.overhead",
    "export_paraver": "repro.extrae.paraver",
    "scan_static_objects": "repro.extrae.staticobj",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

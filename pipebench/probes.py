"""Spans around the toolkit's public entry points, installed from outside.

The traced run wraps the layer boundaries listed in :data:`PROBES` —
methods and functions of ``repro`` that a user's pipeline calls —
with span recorders.  Nothing under ``src/`` changes: the wrappers are
installed by assignment when a step process starts with tracing on,
and only in that process.

A span is ``(id, parent, name, start_ns, end_ns, attrs)``.  Spans are
kept in memory by :class:`SpanRecorder` and handed back to the
orchestrator when the step ends.  :func:`layer_totals` turns them into
per-name total and self times, where a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

__all__ = ["PROBES", "SpanRecorder", "install", "layer_totals"]


class SpanRecorder:
    """In-memory span list with a parent stack (one thread per step)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()


def _result_attrs(name: str, result) -> dict:
    """Counts a span records about its call (work done, as a count)."""
    if name == "memsim.run_pattern":
        return {"accesses": int(result.count)}
    if name == "simproc.take":
        return {"drawn": int(len(result))}
    return {}


def _wrap_call(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        span["attrs"] = _result_attrs(name, result)
        return result

    return wrapper


def _wrap_chunks(recorder: SpanRecorder, name: str, fn):
    """Time each chunk a generator yields, not the consumer's work."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            span = recorder.open(name)
            try:
                chunk = next(it)
            except StopIteration:
                recorder.close(span)
                recorder.spans.pop()  # the exhausted probe read nothing
                return
            except BaseException:
                recorder.close(span)
                raise
            recorder.close(span)
            yield chunk

    return wrapper


#: (span name, module, attribute path, kind).  ``kind`` is ``call`` for
#: plain functions and methods, ``classmethod`` for class methods and
#: ``chunks`` for generators whose every ``next`` is one read.
PROBES = (
    ("workloads.trace", "repro.workloads.base", "Workload.trace", "call"),
    ("memsim.run_pattern", "repro.memsim.analytic", "AnalyticEngine.run_pattern", "call"),
    ("memsim.run_pattern", "repro.memsim.vectorized", "VectorizedEngine.run_pattern", "call"),
    ("simproc.execute", "repro.simproc.machine", "Machine.execute", "call"),
    ("simproc.take", "repro.simproc.pebs", "PebsSampler.take", "call"),
    ("simproc.take", "repro.simproc.spe", "SpeSampler.take", "call"),
    ("extrae.record", "repro.extrae.tracer", "Tracer.execute", "call"),
    ("extrae.finalize", "repro.extrae.tracer", "Tracer.finalize", "call"),
    ("extrae.save", "repro.extrae.trace", "Trace.save", "call"),
    ("extrae.load", "repro.extrae.trace", "Trace.load", "classmethod"),
    ("extrae.chunk_read", "repro.extrae.storage", "iter_chunks", "chunks"),
    ("objects.resolve", "repro.objects.registry", "DataObjectRegistry.resolve_bulk", "call"),
    ("folding.plan", "repro.folding.plan", "FoldPlan.from_trace", "classmethod"),
    ("folding.fit", "repro.folding.plan", "FoldPlan.fold", "call"),
    ("folding.export", "repro.folding.report", "FoldedReport.export_gnuplot", "call"),
    ("folding.export", "repro.folding.stream_views", "StreamedReport.export_gnuplot", "call"),
    ("folding.prologue", "repro.folding.stream", "build_prologue", "call"),
    ("folding.stream", "repro.folding.stream", "stream_fold_trace", "call"),
    ("analysis.figure1", "repro.analysis.figures", "build_figure1", "call"),
    ("analysis.render", "repro.analysis.figures", "Figure1.render", "call"),
)


def install(recorder: SpanRecorder) -> None:
    """Replace every probed entry point with a span-recording wrapper.

    Callers must reach module-level functions through their module
    (``figures.build_figure1``), since a name imported before
    installation keeps the unwrapped function.
    """
    for name, module_name, path, kind in PROBES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if kind == "classmethod":
            fn = owner.__dict__[attr].__func__
            setattr(owner, attr, classmethod(_wrap_call(recorder, name, fn)))
        elif kind == "chunks":
            setattr(owner, attr, _wrap_chunks(recorder, name, getattr(owner, attr)))
        else:
            setattr(owner, attr, _wrap_call(recorder, name, getattr(owner, attr)))


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, summed attrs."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = (
                child_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
            )
    totals: dict[str, dict] = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        entry = totals.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - child_ns.get(span["id"], 0)) / 1e9
        for key, value in span["attrs"].items():
            entry[key] = entry.get(key, 0) + value
    return totals

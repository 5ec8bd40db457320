"""One pipeline step in a process of its own, as a CLI invocation runs.

The orchestrator (``run.py``) starts ``python3 pipebench/step.py`` per
step and writes a JSON spec to its stdin::

    {"src": "<checkout>/src", "trace": false,
     "jobs": [{"op": "acquire", ...}, ...]}

The process imports the CLI module — the start-up every
``bsc-memtools-*`` invocation pays — then runs the jobs in order and
prints one JSON line: when it became ready, its peak RSS, each job's
timed result with the ``perf_counter`` times it started and ended and,
with ``"trace": true``, the spans of every job.  On Linux
``perf_counter`` reads ``CLOCK_MONOTONIC``, one clock for every
process, so the orchestrator can match these times with its own.
Running each step alone keeps its peak RSS free of pages another step
left behind.

Jobs:

* ``acquire`` — ``run_workload`` then ``Trace.save`` (v2, uncompressed),
  what ``bsc-memtools-run -o`` does;
* ``report`` — container path to written report: ``figure1`` (resident
  fold, Figure-1 analysis, render and export), ``streamed``
  (``stream_fold_trace`` over three directions and export, what
  ``bsc-memtools-fold --stream`` does) or ``folded`` (resident fold
  and export, what ``bsc-memtools-fold`` does);
* ``reference`` — untimed: direct ``fold_trace`` payload digests for
  the service's answers to be checked against, and the resident fold
  digest a streamed report must equal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _acquire(job: dict) -> dict:
    from repro.extrae.tracer import TracerConfig
    from repro.pipeline import SessionConfig, run_workload
    from repro.workloads import HpcgConfig, HpcgWorkload
    from repro.workloads.stream import StreamConfig, StreamWorkload

    spec = job["workload"]
    if spec["kind"] == "hpcg":
        config = dict(spec["config"])
        if config.pop("paper", False):
            workload = HpcgWorkload(HpcgConfig.paper(**config))
        else:
            workload = HpcgWorkload(HpcgConfig(**config))
    else:
        workload = StreamWorkload(
            StreamConfig(n=spec["n"], iterations=spec["iterations"])
        )
    session = SessionConfig(
        seed=job["seed"], engine=job["engine"], tracer=TracerConfig(**job["tracer"])
    )
    t0 = time.perf_counter()
    trace = run_workload(workload, session)
    path = trace.save(job["path"], version=2, compression="none")
    t1 = time.perf_counter()
    return {
        "seconds": t1 - t0,
        "window": [t0, t1],
        "digest": trace.digest(),
        "n_samples": int(trace.n_samples),
        "duration_ns": float(trace.duration_ns()),
        "bytes": os.path.getsize(path),
    }


def _report(job: dict) -> dict:
    from repro.analysis import figures
    from repro.extrae.trace import Trace
    from repro.folding import report as resident
    from repro.folding import stream

    kind, out = job["kind"], Path(job["out"])
    extra = {}
    t0 = time.perf_counter()
    if kind == "streamed":
        rep = stream.stream_fold_trace(
            job["path"], directions=("counters", "address", "lines")
        )
        written = rep.export_gnuplot(out)
    else:
        rep = resident.fold_trace(Trace.load(job["path"]))
        if kind == "figure1":
            figure = figures.build_figure1(rep)
            figure.render()
            written = figure.export(out)
            extra["phases"] = list(figure.phases.major_sequence())
        else:
            written = rep.export_gnuplot(out)
    t1 = time.perf_counter()
    performance = rep.performance if kind == "streamed" else rep
    return {
        "seconds": t1 - t0,
        "window": [t0, t1],
        "output_digest": _digest_files(written),
        "fold_digest": stream.fold_digest(performance),
        "samples_folded": int(rep.n_folded if kind == "streamed" else rep.samples.n),
        **extra,
    }


def _reference(job: dict) -> dict:
    from repro.extrae.trace import Trace
    from repro.folding.report import fold_trace
    from repro.folding.stream import fold_digest
    from repro.service.payloads import address_payload, counters_payload, lines_payload

    builders = {"counters": counters_payload, "address": address_payload,
                "lines": lines_payload}
    payloads = {}
    result = {}
    with Trace.load(job["path"]) as trace:
        for grid, bandwidth in sorted({(k["grid"], k["bandwidth"]) for k in job["keys"]}):
            report = fold_trace(trace, grid_points=grid, bandwidth=bandwidth)
            if (grid, bandwidth) == (201, 0.015):
                result["fold_digest"] = fold_digest(report)
            for key in job["keys"]:
                if (key["grid"], key["bandwidth"]) != (grid, bandwidth):
                    continue
                build = builders[key["direction"]]
                payload = (build(report) if key["direction"] == "counters"
                           else build(report, max_points=key["points"]))
                payloads[key["id"]] = payload["payload_digest"]
            del report
    result["payloads"] = payloads
    return result


JOBS = {"acquire": _acquire, "report": _report, "reference": _reference}


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak RSS (``VmHWM``) of a process image in MB (10^6 bytes).

    ``ru_maxrss`` would also count the parent's pages a child was
    forked with before its exec.
    """
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    import repro.cli  # noqa: F401  (the set-up every CLI invocation pays)

    ready_at = time.perf_counter()
    recorder = None
    if spec.get("trace"):
        import probes

        recorder = probes.SpanRecorder()
        probes.install(recorder)
    out = {"ok": True, "ready_at": ready_at, "jobs": []}
    try:
        for job in spec["jobs"]:
            first = len(recorder.spans) if recorder else 0
            result = JOBS[job["op"]](job)
            if recorder is not None:
                result["spans"] = recorder.spans[first:]
            out["jobs"].append(result)
        out["peak_mb"] = vmhwm_mb()
    except Exception:  # noqa: BLE001 - reported to the orchestrator as a failed step
        out = {"ok": False, "error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

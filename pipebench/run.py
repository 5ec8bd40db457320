#!/usr/bin/env python3
"""End-to-end benchmark of the trace -> report -> serve pipeline.

Run from the root of a checkout::

    python3 pipebench/run.py --workload fig1-paper --seed 0 --seconds 32 --trace 0

Each round acquires the workload's traces and turns the containers
into reports (each step in a process of its own, as the CLI runs it),
then serves folded reports from a fresh ``bsc-memtools-serve`` process
to two keep-alive clients.  Rounds continue for about ``--seconds``,
so every timing is a median over samples spread through the run.
Outputs are checked as they come; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every timing is scaled to a reference host speed by probes of the
host's speed taken while it runs (``speed.py``); the times as measured
are kept in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same seed and steps with every other round's step processes traced
(spans around each layer's entry points, see ``probes.py``) and prints
the per-layer metrics, including the tracing overhead.  A full record
(metrics, machine shape, spans) goes to
``.bench_out/<workload>-seed<seed>-trace<flag>.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
STEP_TIMEOUT_S = 120

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"), ("trace_s", "s"), ("report_s", "s"),
    ("trace_peak_mb", "MB"), ("report_peak_mb", "MB"),
    ("req_p50_ms", "ms"), ("req_tail_ms", "ms"), ("req_per_s", "1/s"),
    ("cold_fold_ms", "ms"), ("server_peak_mb", "MB"),
)

#: (name, unit, span name, span field) of per-layer metrics read off
#: the acquisition spans, then off the report spans.
ACQUIRE_LAYERS = (
    ("workloads.self_s", "s", "workloads.trace", "self_s"),
    ("memsim.run_pattern_s", "s", "memsim.run_pattern", "total_s"),
    ("memsim.accesses", "count", "memsim.run_pattern", "accesses"),
    ("simproc.execute_self_s", "s", "simproc.execute", "self_s"),
    ("simproc.take_s", "s", "simproc.take", "total_s"),
    ("extrae.record_s", "s", "extrae.record", "self_s"),
    ("extrae.finalize_s", "s", "extrae.finalize", "total_s"),
    ("extrae.save_s", "s", "extrae.save", "total_s"),
)
REPORT_LAYERS = (
    ("extrae.load_s", "s", "extrae.load", "total_s"),
    ("extrae.chunk_read_s", "s", "extrae.chunk_read", "total_s"),
    ("extrae.chunks", "count", "extrae.chunk_read", "calls"),
    ("objects.resolve_s", "s", "objects.resolve", "total_s"),
    ("folding.plan_s", "s", "folding.plan", "self_s"),
    ("folding.fit_s", "s", "folding.fit", "self_s"),
    ("folding.export_s", "s", "folding.export", "total_s"),
    ("folding.prologue_s", "s", "folding.prologue", "self_s"),
    ("folding.stream_pass_s", "s", "folding.stream", "self_s"),
)
#: /v1/stats counters reported per serve round (median over rounds)
SERVICE_COUNTERS = (
    "requests", "folds_cold", "folds_warm_cache", "folds_coalesced",
    "response_cache_hits", "not_modified", "errors",
)


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency and percentile of the highest percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Bench:
    """One run of one workload; tallies checks and collects samples."""

    def __init__(self, wl, seed: int, seconds: float, traced: bool, work: Path):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups = defaultdict(list)  # "step" | "server" -> launch-to-ready, scaled
        self.setups_wall = defaultdict(list)  # the same, as measured
        self.steps = defaultdict(list)  # (op, traced) -> job results
        self.peaks = defaultdict(list)  # op -> peak MB of untraced steps
        self.put_windows: list[tuple[float, float]] = []  # perf_counter span of each put
        self.puts_per_round: list[int] = []
        self.requests = []
        self.busy_s = 0.0  # scaled
        self.busy_wall_s = 0.0
        self.rounds: list[dict] = []
        self.first: dict[str, tuple] = {}  # fixed-seed job -> its first results
        self.reported: dict[str, str] = {}  # trace digest -> report fold digest
        self.verified: dict[bytes, str] = {}  # served fold body SHA-256 -> payload digest
        self.containers: dict[str, Path] = {}
        self.n_rounds = 0
        self.speed = Speedometer()

    # -- bookkeeping ----------------------------------------------------------
    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def ok_requests(self) -> list:
        """Requests answered 200 or 304 without a client-side error."""
        return [r for r in self.requests if r.error is None and r.status in (200, 304)]

    def step(self, jobs: list[dict], traced: bool = False) -> list[dict] | None:
        """Run *jobs* in one fresh step process; None when it failed."""
        spec = {"src": str(SRC), "trace": traced, "jobs": jobs}
        self.attempted += len(jobs)
        launched = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "step.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.speed.follow = proc.pid
        try:
            stdout, stderr = proc.communicate(json.dumps(spec), timeout=STEP_TIMEOUT_S)
            lines = stdout.strip().splitlines()
            out = json.loads(lines[-1]) if lines else {"ok": False}
            detail = out.get("error") or stderr[-2000:]
        except (subprocess.TimeoutExpired, ValueError) as exc:
            out, detail = {"ok": False}, f"no result: {exc}"
        finally:
            self.speed.follow = None
            if proc.poll() is None:  # timed out or interrupted
                proc.kill()
                proc.communicate()
        if not out.get("ok"):
            self.failed += len(jobs)
            self.problems.append(f"{jobs[0]['op']} step failed: {detail}")
            return None
        ready = out["ready_at"]
        self.setups["step"].append((ready - launched) * self.speed.factor(launched, ready))
        self.setups_wall["step"].append(ready - launched)
        for job, result in zip(jobs, out["jobs"]):
            if "window" in result:
                result["scaled_s"] = result["seconds"] * self.speed.factor(*result["window"])
            self.steps[job["op"], traced].append(result)
        if not traced:
            self.peaks[jobs[0]["op"]].append(out["peak_mb"])
        return out["jobs"]

    # -- the run --------------------------------------------------------------
    def run(self) -> None:
        """Start rounds until the run would end past --seconds by more
        than half a mean round."""
        start = time.monotonic()
        rounds = 0
        with self.speed:
            while rounds < (2 if self.traced else 1) or (
                (time.monotonic() - start) * (1 + 0.5 / rounds) <= self.seconds
            ):
                self.round(rounds, traced=self.traced and rounds % 2 == 1)
                rounds += 1
            self.n_rounds = rounds
            self.verify_references()

    def round(self, index: int, traced: bool) -> None:
        """Acquire, report and serve once; check against earlier rounds.

        Jobs with a fixed seed (the pool, and the main trace of a
        workload without one) rewrite the same container every round
        and must reproduce it exactly; with a pool, the main trace gets
        a new seed per round and is published under load.
        """
        wl = self.wl
        jobs = [(f"pool{i}", spec, self.seed * 1000 + 100 + i, True)
                for i, spec in enumerate(wl.pool)]
        if not wl.pool:
            jobs.append(("main", wl.acquire, self.seed, True))
        else:
            jobs.append((f"new{index}", wl.acquire, self.seed * 1000 + 500 + index, False))
        paths = [self.work / f"{name}.bsctrace" for name, *_ in jobs]
        acq = self.step([{"op": "acquire", "seed": seed, "path": str(path), **spec}
                         for (_, spec, seed, _), path in zip(jobs, paths)], traced)
        if acq is None:
            return
        out = self.work / "report"
        rep = self.step([{"op": "report", "kind": wl.report, "path": str(path),
                          "out": str(out / name)}
                         for (name, *_), path in zip(jobs, paths)], traced)
        shutil.rmtree(out, ignore_errors=True)
        traces, new = {}, None
        for j, ((name, _, _, fixed), path) in enumerate(zip(jobs, paths)):
            a, r = acq[j], rep[j] if rep else None
            if r is not None:
                self.reported[a["digest"]] = r["fold_digest"]
                if wl.report == "figure1":
                    self.check(r["phases"] == list("ABCDE"),
                               f"round {index}: phases {r['phases']} != A B C D E")
            if fixed and name in self.first:
                was_a, was_r = self.first[name]
                self.check(a["digest"] == was_a["digest"],
                           f"round {index}: {name} trace digest differs from round 0")
                if r is not None and was_r is not None:
                    for field in ("fold_digest", "output_digest"):
                        self.check(r[field] == was_r[field],
                                   f"round {index}: {name} report {field} differs")
            elif fixed:
                self.first[name] = (a, r)
            self.containers[a["digest"]] = path
            if fixed:
                traces[a["digest"]] = (path, a["duration_ns"])
            else:
                new = (a["digest"], path)
        self.serve_round(index, traces, new)

    def serve_round(self, index: int, traces: dict, new) -> None:
        from repro.repo import TraceRepo
        from repro.service import ServiceError
        from serve import ServerProcess, build_round, drive_phase, open_clients

        root = self.work / f"repo{index}"
        repo = TraceRepo(root)
        puts = 0

        def publish(path: Path) -> None:
            nonlocal puts
            t0 = time.perf_counter()
            repo.put(path)
            self.put_windows.append((t0, time.perf_counter()))
            puts += 1

        for path, _duration in traces.values():
            publish(path)
        server = ServerProcess(SRC, root, self.work / "server.log")
        try:
            server.start(self.speed)
        except RuntimeError as exc:
            self.check(False, f"round {index}: {exc}")
            shutil.rmtree(root, ignore_errors=True)
            return
        try:
            clients = open_clients(server.port, self.verified)
            rng = random.Random(f"{self.seed}-{index}")
            durations = {d: duration for d, (_path, duration) in traces.items()}
            phases = build_round(rng, self.wl, durations, new[0] if new else None)
            requests, phase_s = [], []
            for publish_digest, together, ops_a, ops_b in phases:
                if publish_digest is not None:
                    publish(new[1])
                t0 = time.perf_counter()
                drive_phase(clients, ops_a, ops_b, together)
                t1 = time.perf_counter()
                phase_s.append((t0, t1))
                requests += ops_a + ops_b
            try:
                stats = clients[0].stats()
            except (ServiceError, OSError, http.client.HTTPException) as exc:
                self.check(False, f"round {index}: /v1/stats failed: {exc}")
            else:
                self.rounds.append({"stats": stats, "peak_mb": server.peak_mb()})
            for client in clients:
                client.close()
            factor = self.speed.factor
            self.setups["server"].append(
                server.setup_s * factor(server.launched, server.launched + server.setup_s))
            self.setups_wall["server"].append(server.setup_s)
            # Server, fold worker and clients share every CPU while they
            # run requests, and the probes take each CPU in turn.
            for t0, t1 in phase_s:
                self.busy_s += (t1 - t0) * factor(t0, t1)
                self.busy_wall_s += t1 - t0
            for req in requests:
                req.scaled_s = req.latency_s * factor(req.started, req.started + req.latency_s)
            self.requests += requests
        finally:
            problems = server.stop()
            self.check(not problems, f"round {index}: {'; '.join(problems)}")
            shutil.rmtree(root, ignore_errors=True)
        self.puts_per_round.append(puts)

    def verify_references(self) -> None:
        """Check every served payload and report against direct folds."""
        ok = self.ok_requests()
        answered = set(ok)
        for req in self.requests:
            self.check(req in answered, f"request {req.kind} {req.digest[:12]} "
                                        f"{req.params}: status {req.status} {req.error}")
        folds = [req for req in ok if req.is_fold]
        keys = defaultdict(dict)
        for req in folds:
            keys[req.digest].setdefault(req.key, None)
        jobs = []
        ids = {}
        for digest, digest_keys in keys.items():
            if digest not in self.containers:
                continue
            job_keys = []
            for key in digest_keys:
                ids[key] = f"k{len(ids)}"
                job_keys.append({"id": ids[key], "direction": key[1],
                                 "grid": key[2], "bandwidth": key[3],
                                 "points": key[4]})
            jobs.append({"op": "reference", "path": str(self.containers[digest]),
                         "digest": digest, "keys": job_keys})
        results = self.step(jobs) if jobs else []
        if results is None:
            return
        expected, resident = {}, {}
        for job, result in zip(jobs, results):
            resident[job["digest"]] = result.get("fold_digest")
            for key in keys[job["digest"]]:
                expected[key] = result["payloads"][ids[key]]
        for req in folds:
            self.check(req.payload_digest == expected.get(req.key),
                       f"served payload {req.key} differs from direct fold_trace")
        for digest, fold_digest in self.reported.items():
            if digest in resident:
                self.check(fold_digest == resident[digest],
                           f"report of {digest[:12]}: fold digest differs from "
                           "the resident fold of the same container")

    # -- metrics --------------------------------------------------------------
    def timings(self, scaled: bool = True) -> tuple[dict, float]:
        """Timing metrics at the reference host speed (or as measured),
        and the percentile ``req_tail_ms`` stands for."""
        step_key, req_key = ("scaled_s", "scaled_s") if scaled else ("seconds", "latency_s")
        setups = self.setups if scaled else self.setups_wall
        busy_s = self.busy_s if scaled else self.busy_wall_s
        ok = self.ok_requests()
        latencies = [getattr(r, req_key) for r in ok]
        tail, pct = _tail(latencies) if latencies else (0.0, 0.0)
        return {
            "setup_s": _median(setups["step"]) + _median(setups["server"]),
            "trace_s": _median([r[step_key] for r in self.steps["acquire", False]]),
            "report_s": _median([r[step_key] for r in self.steps["report", False]]),
            "req_p50_ms": _median(latencies) * 1e3,
            "req_tail_ms": tail * 1e3,
            "req_per_s": len(ok) / busy_s if busy_s else 0.0,
            "cold_fold_ms": _median([getattr(r, req_key) for r in ok
                                     if r.cls == "cold"]) * 1e3,
        }, pct

    def end_to_end(self) -> tuple[dict, dict]:
        acq = self.steps["acquire", False]
        rep = self.steps["report", False]
        ok = self.ok_requests()
        values, pct = self.timings()
        values.update({
            "trace_peak_mb": _median(self.peaks["acquire"]),
            "report_peak_mb": _median(self.peaks["report"]),
            "server_peak_mb": _median([r["peak_mb"] for r in self.rounds]),
        })
        classes = {}
        for cls in ("cold", "fold_cache", "warm_fold", "revalidate", "query"):
            lat = sorted(r.scaled_s * 1e3 for r in ok if r.cls == cls)
            if lat:
                classes[cls] = {"n": len(lat), "p50_ms": lat[len(lat) // 2],
                                "p90_ms": lat[int(0.9 * (len(lat) - 1))],
                                "max_ms": lat[-1]}
        notes = {"req_tail_percentile": round(pct, 2), "requests": len(ok),
                 "rounds": self.n_rounds,
                 "request_classes": classes,
                 "trace_digests": sorted({r["digest"] for (op, _), rs in self.steps.items()
                                          if op == "acquire" for r in rs}),
                 "as_measured": self.timings(scaled=False)[0],
                 "probes": self.speed.summary(),
                 "samples": {"trace_s": [r["scaled_s"] for r in acq],
                             "report_s": [r["scaled_s"] for r in rep],
                             "trace_wall_s": [r["seconds"] for r in acq],
                             "report_wall_s": [r["seconds"] for r in rep],
                             "setup_s": self.setups}}
        return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, notes

    def per_layer(self) -> dict:
        from probes import layer_totals

        metrics = {}

        def put(name, unit, value):
            metrics[name] = {"value": float(value), "unit": unit}

        # Span times are scaled by the speed factor of their job, as the
        # job's own time is.
        traced = {op: [(r, layer_totals(r["spans"]), r["scaled_s"] / r["seconds"])
                       for r in self.steps[op, True]]
                  for op in ("acquire", "report")}
        for op, table in (("acquire", ACQUIRE_LAYERS), ("report", REPORT_LAYERS)):
            for name, unit, span, field in table:
                put(name, unit, _median([t.get(span, {}).get(field, 0) * (k if unit == "s" else 1)
                                         for _, t, k in traced[op]]))
        acq = traced["acquire"]
        accesses = [t.get("memsim.run_pattern", {}).get("accesses", 0) for _, t, _ in acq]
        run_s = [t.get("memsim.run_pattern", {}).get("total_s", 0) * k for _, t, k in acq]
        drawn = [t.get("simproc.take", {}).get("drawn", 0) for _, t, _ in acq]
        kept = [r["n_samples"] for r, _, _ in acq]
        put("memsim.accesses_per_s", "1/s",
            _median([a / s for a, s in zip(accesses, run_s) if s]))
        put("simproc.samples_kept", "count", _median(kept))
        put("simproc.kept_ratio", "ratio", _median([k / d for k, d in zip(kept, drawn) if d]))
        put("extrae.save_mb", "MB", _median([r["bytes"] / 1e6 for r, _, _ in acq]))
        rep = traced["report"]
        put("folding.samples_folded", "count",
            _median([r["samples_folded"] for r, _, _ in rep]))
        put("analysis.figure1_s", "s", _median([
            k * sum(t.get(n, {}).get("total_s", 0) for n in ("analysis.figure1", "analysis.render"))
            for _, t, k in rep]))
        put("repo.put_s", "s", _median([(t1 - t0) * self.speed.factor(t0, t1)
                                        for t0, t1 in self.put_windows]))
        put("repo.puts", "count", _median(self.puts_per_round))

        ok = self.ok_requests()
        for cls, name in (("query", "service.query_p50_ms"),
                          ("revalidate", "service.revalidate_p50_ms"),
                          ("warm_fold", "service.warm_fold_p50_ms"),
                          ("fold_cache", "service.fold_cache_p50_ms")):
            put(name, "ms", _median([r.scaled_s for r in ok if r.cls == cls]) * 1e3)
        stats = [r["stats"] for r in self.rounds]
        for counter in SERVICE_COUNTERS:
            put(f"service.{counter}", "count",
                _median([s["counters"][counter] for s in stats]))
        put("service.tables_opens", "count", _median([s["tables"]["opens"] for s in stats]))
        put("service.tables_hits", "count", _median([s["tables"]["hits"] for s in stats]))
        put("service.response_hit_ratio", "ratio", _median([
            s["counters"]["response_cache_hits"] / s["counters"]["fold_requests"]
            for s in stats if s["counters"]["fold_requests"]]))
        put("folding.cache_entries", "count",
            _median([s["fold_cache"]["n_entries"] for s in stats]))
        put("folding.cache_mb", "MB",
            _median([s["fold_cache"]["total_bytes"] / 1e6 for s in stats]))

        def step_s(traced):
            return sum(_median([r["scaled_s"] for r in self.steps[op, traced]])
                       for op in ("acquire", "report"))

        base = step_s(False)
        put("bench.tracing_overhead_pct", "%",
            100.0 * (step_s(True) - base) / base if base else 0.0)
        return metrics


def machine_shape() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no toolkit sources at {SRC}/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like Ctrl-C, so server and step processes are stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    wl = workloads.workload(args.workload, args.size)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    bench = Bench(wl, args.seed, args.seconds, bool(args.trace), work)
    try:
        bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, notes = bench.end_to_end()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine_shape(),
              "end_to_end": e2e, **notes, "problems": bench.problems}
    metrics = e2e
    if args.trace:
        metrics = record["per_layer"] = bench.per_layer()
        record["spans"] = {op: [r["spans"] for r in rs]
                           for (op, traced), rs in bench.steps.items() if traced}
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{wl.name}: {notes['rounds']} rounds, "
          f"{notes['requests']} requests; req_tail_ms is "
          f"p{notes['req_tail_percentile']}; record in .bench_out/{name}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

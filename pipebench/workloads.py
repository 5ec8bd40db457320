"""The benchmark's workloads: what each acquires, reports and serves.

Every workload runs the same three user steps — acquire a trace,
turn the saved container into a report, serve folded reports to two
clients — so every end-to-end metric exists on every workload.  The
workloads differ in their inputs, which moves the work between layers:

* ``fig1-paper`` — the paper's HPCG run through the closed-form
  engine and the resident Figure-1 report;
* ``dense-stream`` — dense SPE sampling of STREAM through the
  per-access cache engine and the streamed report;
* ``service-mixed`` — many small traces behind the service, with
  publishes during the load.

Specs are plain JSON-able dicts because they travel to step processes.
``size="tiny"`` shrinks every input for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WORKLOADS", "Workload", "workload"]

#: Fit points (grid points, bandwidth) a serve round folds at; the
#: first is the fold CLI's default.
FIT_POINTS = ((201, 0.015), (201, 0.02))


@dataclass(frozen=True)
class Workload:
    """One workload; see the module docstring for the three of them."""

    name: str
    #: workload + session spec of one acquisition (``seed`` filled in)
    acquire: dict
    #: ``figure1`` | ``streamed`` | ``folded``: what the report step does
    report: str
    #: traces acquired with fixed seeds in every round (in the same step
    #: processes) and in the repository when a serve round starts.  With
    #: a pool, each round's main trace gets a new seed and is published
    #: during the load; without one, every round acquires the same seed,
    #: so its trace and report must repeat exactly.
    pool: tuple[dict, ...] = ()
    #: fit points each trace is folded at in a serve round
    fit_points: tuple[tuple[int, float], ...] = FIT_POINTS

    @property
    def stream(self) -> bool:
        """The serve round asks for streamed folds, as the report does."""
        return self.report == "streamed"

    @property
    def directions(self) -> tuple[str, ...]:
        """Fold directions the serve round requests; the service
        streams only the counters direction."""
        return ("counters",) if self.stream else ("counters", "address", "lines")


def _hpcg(config: dict, engine: str, tracer: dict) -> dict:
    return {"workload": {"kind": "hpcg", "config": config},
            "engine": engine, "tracer": tracer}


def _stream(n: int, iterations: int, engine: str, tracer: dict) -> dict:
    return {"workload": {"kind": "stream", "n": n, "iterations": iterations},
            "engine": engine, "tracer": tracer}


_PEBS_PAPER = {"sampler": "pebs", "load_period": 20_000, "store_period": 20_000}
_SPE_DENSE = {"sampler": "spe", "load_period": 10, "store_period": 10,
              "multiplex": False}
_SMALL_HPCG = {"nx": 16, "ny": 16, "nz": 16, "nlevels": 2, "n_iterations": 4,
               "blocks_per_kernel": 4}
_SMALL_PEBS = {"sampler": "pebs", "load_period": 500, "store_period": 500,
               "randomization": 0.05}


def _fig1_paper(size: str) -> Workload:
    if size == "tiny":
        acquire = _hpcg(_SMALL_HPCG, "analytic", _SMALL_PEBS)
    else:
        acquire = _hpcg({"paper": True, "n_iterations": 10}, "analytic",
                        _PEBS_PAPER)
    return Workload("fig1-paper", acquire, "figure1")


def _dense_stream(size: str) -> Workload:
    n = 20_000 if size == "tiny" else 500_000
    return Workload("dense-stream", _stream(n, 6, "vectorized", _SPE_DENSE), "streamed")


def _service_mixed(size: str) -> Workload:
    if size == "tiny":
        pool = _stream(20_000, 8, "analytic",
                       {"sampler": "pebs", "load_period": 200, "store_period": 200})
        n_pool = 2
    else:
        pool = _stream(200_000, 8, "analytic",
                       {"sampler": "pebs", "load_period": 100, "store_period": 100})
        n_pool = 9
    return Workload(
        "service-mixed", pool, "folded",
        pool=(pool,) * n_pool, fit_points=FIT_POINTS[:1],
    )


WORKLOADS = {
    "fig1-paper": _fig1_paper,
    "dense-stream": _dense_stream,
    "service-mixed": _service_mixed,
}


def workload(name: str, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in ("full", "tiny"):
        raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
    return WORKLOADS[name](size)

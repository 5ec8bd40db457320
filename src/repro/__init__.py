"""Reproduction of "Integrating Memory Perspective into the BSC
Performance Tools" (Servat, Labarta, Hoppe, Giménez, Peña — ICPP 2017).

The package rebuilds the paper's complete measurement-and-analysis
chain on a simulated substrate:

* :mod:`repro.extrae` — the monitoring tool: instrumentation, PEBS
  memory sampling (address, access cost, data source), allocation
  interception, static-object scan, load/store multiplexing;
* :mod:`repro.folding` — the Folding mechanism extended with the memory
  perspective: folded counter curves, folded address scatter, folded
  source-line track;
* :mod:`repro.objects` — data-object identification and address
  resolution, including the paper's manual allocation grouping;
* :mod:`repro.analysis` — the §III analyses: phase segmentation, sweep
  detection, bandwidth approximation, Figure-1 assembly;
* substrates — :mod:`repro.simproc` (CPU + PEBS), :mod:`repro.memsim`
  (cache hierarchy), :mod:`repro.vmem` (address space + allocator),
  :mod:`repro.workloads` (HPCG and friends), :mod:`repro.parallel`
  (rank sets);
* :mod:`repro.pipeline` — the one-call user API;
* :mod:`repro.paper` — the paper's published targets, which the
  calibration was fitted to and Figure 1 is checked against.

Quickstart::

    from repro.pipeline import SessionConfig, run_workload, analyze_hpcg
    from repro.workloads import HpcgConfig, HpcgWorkload

    trace = run_workload(HpcgWorkload(HpcgConfig.paper(n_iterations=10)))
    report, figure1 = analyze_hpcg(trace)
    print(figure1.render())
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> defining module, imported on first access (PEP
#: 562), so that importing a reading-side module (``repro.cli``,
#: ``repro.service``, ``repro.folding``) never loads the simulator
#: behind :mod:`repro.pipeline`.
_EXPORTS = {
    "Session": "repro.pipeline",
    "SessionConfig": "repro.pipeline",
    "analyze_hpcg": "repro.pipeline",
    "run_workload": "repro.pipeline",
}

__all__ = [
    "Session",
    "SessionConfig",
    "__version__",
    "analyze_hpcg",
    "run_workload",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

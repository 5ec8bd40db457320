"""Analyses over folded reports: the paper's §III evaluation toolkit.

* :mod:`repro.analysis.phases` — segment a folded CG iteration into the
  paper's phases A (a1/a2), B, C, D (d1/d2), E from the instrumentation
  events and sample labels;
* :mod:`repro.analysis.sweeps` — detect address sweeps (direction,
  extent) in the folded address view;
* :mod:`repro.analysis.bandwidth` — the paper's effective-bandwidth
  approximation (structure bytes / phase duration);
* :mod:`repro.analysis.metrics` — MIPS/IPC/miss-rate summaries;
* :mod:`repro.analysis.figures` — assemble everything into the
  Figure-1 data product the benchmarks print and compare against the
  published numbers;
* :mod:`repro.analysis.streams` — the conclusion's "most dominant data
  streams and their temporal evolution along computing regions";
* :mod:`repro.analysis.hybrid` — the closing suggestion turned into a
  tool: hybrid-memory placement advice from read/write asymmetry;
* :mod:`repro.analysis.reuse` — sampled reuse-distance profiles (the
  introduction's locality use case);
* :mod:`repro.analysis.ranks` — per-rank imbalance metrics over a
  rank-set run (what ``bsc-memtools-run --ranks`` prints).
"""

from repro.analysis.bandwidth import phase_bandwidth_MBps
from repro.analysis.compare import FoldedComparison, compare_reports
from repro.analysis.figures import Figure1, build_figure1
from repro.analysis.latency import (
    LatencyBreakdown,
    latency_breakdown,
    top_cost_samples,
)
from repro.analysis.hybrid import (
    HybridMemoryModel,
    PlacementPlan,
    advise_placement,
)
from repro.analysis.metrics import RunMetrics, run_metrics
from repro.analysis.phases import IterationPhases, Phase, segment_iteration
from repro.analysis.ranks import Imbalance
from repro.analysis.regions import RegionReport, region_progress
from repro.analysis.roofline import MachineRoof, RooflineReport, roofline
from repro.analysis.reuse import ReuseProfile, sampled_reuse_profile
from repro.analysis.streams import DataStream, StreamReport, identify_streams
from repro.analysis.sweeps import Sweep, detect_sweeps

__all__ = [
    "DataStream",
    "Imbalance",
    "FoldedComparison",
    "LatencyBreakdown",
    "Figure1",
    "HybridMemoryModel",
    "IterationPhases",
    "Phase",
    "MachineRoof",
    "RegionReport",
    "RooflineReport",
    "PlacementPlan",
    "ReuseProfile",
    "RunMetrics",
    "StreamReport",
    "Sweep",
    "advise_placement",
    "build_figure1",
    "compare_reports",
    "latency_breakdown",
    "top_cost_samples",
    "detect_sweeps",
    "identify_streams",
    "phase_bandwidth_MBps",
    "region_progress",
    "roofline",
    "run_metrics",
    "sampled_reuse_profile",
    "segment_iteration",
]

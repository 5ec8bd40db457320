"""The Folding mechanism.

Folding (Servat et al., ICPP 2011, extended by this paper) projects the
sparse samples collected across *many instances* of a repetitive region
onto a single normalized time axis, recovering detailed intra-region
evolution from coarse-grained sampling:

* :mod:`repro.folding.detect` — delimit the instances (iteration
  markers or region occurrences), pruning outlier instances;
* :mod:`repro.folding.fold` — project each sample to its instance-
  relative normalized time σ ∈ [0, 1] and normalized cumulative
  counter fractions;
* :mod:`repro.folding.model` — fit smooth *monotone* cumulative curves
  per hardware counter (Gaussian kernel regression + PAVA) and
  differentiate them into instantaneous rates: MIPS, counter-per-
  instruction, IPC;
* :mod:`repro.folding.address` — the folded address-space view (this
  paper's extension): sampled addresses vs σ with op, data source,
  latency and resolved data object;
* :mod:`repro.folding.lines` — the folded source-code view: the code
  line executing at each σ;
* :mod:`repro.folding.report` — the combined three-direction report
  (source code × memory × performance), with gnuplot-style exports;
* :mod:`repro.folding.export` — the one text writer behind every
  gnuplot panel export, byte-stable by contract;
* :mod:`repro.folding.spec` — :class:`FoldSpec`, the one value every
  fold entry builds: fold parameters, their checks and the cache
  address;
* :mod:`repro.folding.plan` — :class:`FoldPlan`, the reusable
  trace-dependent half of a fold (a bandwidth or grid scan fits many
  parameter points against one plan);
* :mod:`repro.folding.cache` — the opt-in content-addressed on-disk
  report cache keyed by (trace digest, fold parameters);
* :mod:`repro.folding.stream` — bounded-memory chunkwise folding: the
  exact two-pass :func:`stream_fold_trace` (counter curves
  bit-identical to the resident fold), able to carry the streamed
  address/line directions;
* :mod:`repro.folding.stream_views` — the bounded per-direction
  summaries behind the streamed :class:`StreamedReport`: exact
  additive address accounting, deterministic reservoir + density
  sketch over the scatter, and (line × σ-bin) count matrices;
* :mod:`repro.folding.signatures` / :mod:`repro.folding.reps` /
  :mod:`repro.folding.extrapolate` — representative-instance sampling:
  per-instance access-pattern signatures, seeded medoid clustering
  (:func:`select_representatives`), and the weight-extrapolated fold
  with a measured fidelity bound (:func:`measure_fidelity`).
"""

from repro.folding.address import FoldedAddresses, fold_addresses
from repro.folding.align import TimeWarp, build_warp
from repro.folding.ascii_plot import render_figure
from repro.folding.cache import FoldCache
from repro.folding.detect import FoldInstances, instances_from_iterations, instances_from_regions
from repro.folding.extrapolate import (
    ExtrapolatedFold,
    FidelityBound,
    extrapolated_fold,
    measure_fidelity,
)
from repro.folding.fold import FoldedSamples, fold_samples
from repro.folding.lines import FoldedLines, fold_lines
from repro.folding.model import (
    FoldedCounters,
    FoldedCurve,
    fit_counter_curves,
    fold_counters,
)
from repro.folding.plan import FoldPlan
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.reps import Representatives, select_representatives
from repro.folding.signatures import InstanceSignatures, instance_signatures
from repro.folding.spec import FoldSpec
from repro.folding.stream import (
    StreamedFold,
    StreamingFold,
    fold_digest,
    stream_fold_trace,
)
from repro.folding.stream_views import (
    StreamedAddresses,
    StreamedLines,
    StreamedReport,
    measure_address_fidelity,
)

__all__ = [
    "ExtrapolatedFold",
    "FidelityBound",
    "FoldCache",
    "FoldInstances",
    "FoldPlan",
    "FoldSpec",
    "InstanceSignatures",
    "Representatives",
    "StreamedAddresses",
    "StreamedFold",
    "StreamedLines",
    "StreamedReport",
    "StreamingFold",
    "TimeWarp",
    "FoldedAddresses",
    "FoldedCounters",
    "FoldedCurve",
    "FoldedLines",
    "FoldedReport",
    "FoldedSamples",
    "extrapolated_fold",
    "fit_counter_curves",
    "fold_addresses",
    "fold_counters",
    "fold_digest",
    "fold_lines",
    "fold_samples",
    "fold_trace",
    "instance_signatures",
    "measure_address_fidelity",
    "measure_fidelity",
    "build_warp",
    "render_figure",
    "instances_from_iterations",
    "instances_from_regions",
    "select_representatives",
    "stream_fold_trace",
]

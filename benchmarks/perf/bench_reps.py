"""``reps`` scenario: representative-instance sampling.

Generates an HPCG-class trace (many repeated iterations of the same
phase structure), then folds the performance direction two ways:

* **exact** — :func:`repro.folding.extrapolate.exact_performance_fold`:
  every instance's samples go through the kernel-regression design;
* **representative** — ``fold_trace(trace, rep_budget=BUDGET)``:
  cluster the per-instance signatures, fold only the ``BUDGET`` medoid
  instances, and extrapolate by cluster weight.

Both produce the same counters-only surface, so the time ratio is the
honest fold-path speedup (the representative side includes signature
extraction, k-means and medoid selection); gated at ``MIN_SPEEDUP``.
Fidelity is measured, not assumed: the per-counter max pointwise
distance between the extrapolated and exact cumulative curves, gated at
``MAX_ERROR``.  A ``budget = n_instances`` fold must be digest-identical
to the exact fold (always checked).
"""

from __future__ import annotations

from repro.extrae.tracer import TracerConfig
from repro.folding.extrapolate import exact_performance_fold, measure_fidelity
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest
from repro.pipeline import SessionConfig, run_workload
from repro.workloads import HpcgConfig, HpcgWorkload

# The acceptance scale: enough repeated iterations that per-sample fold
# cost dominates and a small representative budget can amortize it.
NX = 16
NLEVELS = 2
ITERATIONS = 50
PERIOD = 100
BUDGET = 8
PAIRS = 8
MIN_SPEEDUP = 3
MAX_ERROR = 0.02


def make_trace():
    return run_workload(
        HpcgWorkload(HpcgConfig(nx=NX, ny=NX, nz=NX, nlevels=NLEVELS,
                                n_iterations=ITERATIONS)),
        SessionConfig(
            seed=11,
            tracer=TracerConfig(load_period=PERIOD, store_period=PERIOD,
                                randomization=0.05),
        ),
    )


def measure(bench) -> dict:
    trace = make_trace()
    exact, rep = bench.time_ratio(
        "representative", lambda: exact_performance_fold(trace),
        lambda: fold_trace(trace, rep_budget=BUDGET), pairs=PAIRS,
        floor=MIN_SPEEDUP,
    )
    _, fidelity = measure_fidelity(trace, BUDGET)
    bench.bound("max_curve_error", fidelity.max_curve_error,
                ceiling=MAX_ERROR)
    exhaustive = fold_trace(trace, rep_budget=exact.instances.n)
    bench.check("exhaustive_digest_identical",
                exhaustive.digest() == fold_digest(exact))
    return {
        "workload": f"HPCG nx={NX} nlevels={NLEVELS} {ITERATIONS} "
                    f"iterations, sampling period {PERIOD} -> "
                    f"{trace.n_samples} memory samples",
        "n_samples": trace.n_samples,
        "n_instances": exact.instances.n,
        "budget": BUDGET,
        "n_folded": {"exact": exact.n_folded, "representative": rep.n_folded},
        "n_clusters": rep.representatives.n_clusters,
        "max_totals_error": round(fidelity.max_total_error, 5),
        "curve_error": {
            k: round(v, 5) for k, v in fidelity.curve_error.items()
        },
    }

"""``engine`` scenario: memory-engine throughput.

A 1M-access unit-stride sweep, the regime the batch engine is built
for, through each fidelity mode of
:func:`repro.memsim.engines.make_engine`, each run on a fresh engine.
Gate: the vectorized engine beats the precise one by at least
``MIN_SPEEDUP`` (a loose tripwire for shared runners; it measures
about 10x).  ``accesses_per_s`` divides the sweep by each engine's
median seconds.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.engines import make_engine
from repro.memsim.hierarchy import HierarchyConfig
from repro.memsim.patterns import SequentialPattern

N_ACCESSES = 1_000_000
PAIRS = 8
MIN_SPEEDUP = 4


def _sweep(name: str):
    pattern = SequentialPattern(0, N_ACCESSES, 8)

    def run():
        engine = make_engine(name, HierarchyConfig(), rng=np.random.default_rng(0))
        engine.run_pattern(pattern)

    return run


def measure(bench) -> dict:
    bench.time_ratio("vectorized_vs_precise", _sweep("precise"),
                     _sweep("vectorized"), pairs=PAIRS, floor=MIN_SPEEDUP)
    bench.time_ratio("analytic_vs_vectorized", _sweep("vectorized"),
                     _sweep("analytic"), pairs=PAIRS)
    seconds = {
        "precise": bench.time["vectorized_vs_precise"]["baseline_median_s"],
        "vectorized": bench.time["vectorized_vs_precise"]["candidate_median_s"],
        "analytic": bench.time["analytic_vs_vectorized"]["candidate_median_s"],
    }
    return {
        "workload": f"unit-stride sweep, {N_ACCESSES} accesses, "
                    "default Haswell-like hierarchy",
        "accesses_per_s": {
            name: round(N_ACCESSES / s) for name, s in seconds.items()
        },
    }

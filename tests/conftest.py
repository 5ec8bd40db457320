"""Shared fixtures: prebuilt sessions and folded HPCG reports.

Expensive artifacts (traced + folded HPCG runs) are session-scoped so
the analysis/folding test modules share one simulation.
"""

from pathlib import Path

import pytest

from repro.analysis.figures import build_figure1
from repro.extrae.tracer import TracerConfig
from repro.folding.report import fold_trace
from repro.pipeline import Session, SessionConfig
from repro.simproc.sampler import SAMPLER_NAMES
from repro.workloads import HpcgConfig, HpcgWorkload

#: Sampling backends the cross-backend differential matrix runs over.
SAMPLER_BACKENDS = tuple(SAMPLER_NAMES)

#: Committed v1 containers (v1 is read-only), per sampling backend, and
#: the golden traces they hold: each written once by the v1 writer from
#: its twin, and kept out of ``tests/golden/``, which the golden harness
#: regenerates.
V1_CONTAINERS = {
    sampler: Path(__file__).parent / "fixtures" / f"stream_analytic{suffix}_v1.bsctrace"
    for sampler, suffix in (("pebs", ""), ("spe", "_spe"))
}
V1_TWINS = {
    sampler: Path(__file__).parent / "golden" / f"stream_analytic{suffix}.bsctrace"
    for sampler, suffix in (("pebs", ""), ("spe", "_spe"))
}
V1_CONTAINER, V1_TWIN = V1_CONTAINERS["pebs"], V1_TWINS["pebs"]


@pytest.fixture(params=SAMPLER_BACKENDS)
def sampler_backend(request):
    """Parametrizes a test over every sampling backend (PEBS and SPE).

    The engine×workload digest/equivalence suites take this fixture so
    each downstream layer (validation, TraceIndex, folding, streaming
    fold, rank spill/aggregation) is exercised against both sampling
    semantics instead of silently hard-coding PEBS assumptions.
    """
    return request.param


def sampler_session_config(
    sampler, engine="analytic", seed=5, period=128, **tracer_kwargs
):
    """Session configuration for the cross-backend matrix suites."""
    return SessionConfig(
        seed=seed,
        engine=engine,
        tracer=TracerConfig(
            sampler=sampler,
            load_period=period,
            store_period=period,
            **tracer_kwargs,
        ),
    )


def small_hpcg_config(n_iterations=4, **kwargs):
    """A fast HPCG configuration with the full phase structure.

    Passing ``nx`` alone makes a cube (ny/nz follow unless overridden).
    """
    defaults = dict(
        nx=16, ny=16, nz=16, nlevels=2, n_iterations=n_iterations,
        blocks_per_kernel=4, rank=1, npz=3,
    )
    if "nx" in kwargs:
        defaults["ny"] = defaults["nz"] = kwargs["nx"]
    defaults.update(kwargs)
    return HpcgConfig(**defaults)


def hpcg_session_config(seed=0, load_period=500, store_period=500):
    return SessionConfig(
        seed=seed,
        engine="analytic",
        tracer=TracerConfig(
            load_period=load_period,
            store_period=store_period,
            randomization=0.05,
        ),
    )


@pytest.fixture(scope="session")
def hpcg_trace():
    """A finalized small HPCG trace (analytic engine)."""
    session = Session(hpcg_session_config())
    return session.run(HpcgWorkload(small_hpcg_config()))


@pytest.fixture(scope="session")
def hpcg_report(hpcg_trace):
    """The folded three-direction report of the shared trace."""
    return fold_trace(hpcg_trace)


@pytest.fixture(scope="session")
def hpcg_figure(hpcg_report):
    """The full Figure-1 analysis of the shared trace."""
    return build_figure1(hpcg_report)

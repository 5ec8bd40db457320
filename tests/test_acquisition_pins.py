"""Pinned acquisitions of the sample-assembly settings the default pins miss.

``PEBS_PINNED_DIGESTS`` (``tests/test_sampler_matrix.py``) pin the
default path: PEBS, loads and stores multiplexed, no latency threshold,
a quiet machine.  ``Machine.execute`` assembles samples differently
when the latency filter drops some, when one group is always active,
when only loads are sampled, when noise stalls move the clock between
batches, and when SPE rewrites sources from the sample addresses.  Each
of those settings is pinned here on the small HPCG (loads, stores,
gathers and strided sweeps), and the dense-stream shape on a small
STREAM, with the machine's sample counters and the
``SampleBlock`` lengths of a few batches, so a change to the assembly
shows which batch and which block moved, not only that the digest did.

A moved pin is a regression, not a baseline to re-pin, unless the
change declares a digest break.
"""

import numpy as np
import pytest

from repro.extrae.tracer import TracerConfig
from repro.memsim.datasource import DataSource
from repro.pipeline import Session, SessionConfig, run_workload
from repro.simproc.noise import NoiseModel
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload

#: setting -> (engine, workload, TracerConfig fields, NoiseModel or None)
SETTINGS = {
    "pebs-latency-threshold": (
        "analytic", "hpcg", {"latency_threshold_cycles": 30.0}, None,
    ),
    "pebs-no-multiplex": ("analytic", "hpcg", {"multiplex": False}, None),
    "pebs-loads-only": ("analytic", "hpcg", {"sample_stores": False}, None),
    "pebs-noise": (
        "analytic", "hpcg", {},
        NoiseModel(rate_per_second=20_000, mean_duration_ns=20_000),
    ),
    "spe": ("analytic", "hpcg", {"sampler": "spe"}, None),
    "spe-min-latency": (
        "analytic", "hpcg",
        {"sampler": "spe", "latency_threshold_cycles": 30.0}, None,
    ),
    # The dense-stream shape: the per-access engine under SPE, one
    # always-active stream, a sample every ten operations.
    "spe-vectorized-stream": (
        "vectorized", "stream",
        {"sampler": "spe", "load_period": 10, "store_period": 10,
         "multiplex": False},
        None,
    ),
}

#: setting -> (trace digest,
#:             (samples_emitted, samples_dropped_mpx, samples_dropped_latency),
#:             {batch index: ((op, SampleBlock.n), ...)})
PINS = {
    "pebs-latency-threshold": (
        "df9f1eacfe6a70941176bb49018a14e269b095f72ffde9b73d28f1a1c6ead3aa",
        (194, 545, 5516),
        {0: (), 3: ((0, 12),), 10: ((0, 4),), 57: ()},
    ),
    "pebs-no-multiplex": (
        "579893e07ff121babb7cacade4004f22f629f16210ecfdcad904d516231f900b",
        (6255, 0, 0),
        {
            0: ((1, 303), (1, 47), (1, 4), (1, 6), (1, 4), (1, 3), (1, 6),
                (1, 4), (1, 4), (1, 4), (1, 4)),
            3: ((0, 151), (0, 53), (1, 2)),
            10: ((0, 152), (0, 55), (0, 1), (1, 2)),
            57: ((0, 4), (0, 4), (1, 4)),
        },
    ),
    "pebs-loads-only": (
        "d24128c15ac2fa1d7b829e06397517acf700668e6049f9c92efef32622305b98",
        (5710, 0, 0),
        {0: (), 3: ((0, 152), (0, 53)), 10: ((0, 152), (0, 53), (0, 2)),
         57: ((0, 4), (0, 4))},
    ),
    "pebs-noise": (
        "fa7476330e145d8128196e73a71ff7b12193715c8d578ad10e24901f7725fae9",
        (4981, 1274, 0),
        {0: (), 3: ((0, 151), (0, 53)), 10: ((0, 152), (0, 55), (0, 1)),
         57: ((1, 4),)},
    ),
    "spe": (
        "6306151ed3523277825b54f61690b7cfa25c904bc4e6c3dfccbaf3693fb31082",
        (6252, 0, 0),
        {
            0: ((1, 303), (1, 48), (1, 4), (1, 5), (1, 4), (1, 4), (1, 5),
                (1, 5), (1, 4), (1, 4), (1, 4)),
            3: ((0, 154), (0, 54), (1, 2)),
            10: ((0, 152), (0, 54), (0, 2), (1, 2)),
            57: ((0, 4), (0, 4), (1, 4)),
        },
    ),
    "spe-min-latency": (
        "5243f7941ff97253c2cb67a27ddff26b834744f39be1d00a9af0250c37d308e7",
        (200, 0, 6052),
        {0: ((1, 1), (1, 1), (1, 1)), 3: ((0, 14),), 10: ((0, 9), (0, 1)),
         57: ((0, 1),)},
    ),
    "spe-vectorized-stream": (
        "fcb4babfc9d5af589fc3f50c3194a4203fa9a18d65aa5f9ff111737474fb220b",
        (2393, 0, 0),
        {0: ((0, 49), (0, 49), (1, 50)), 5: ((0, 50), (0, 49), (1, 50)),
         15: ((0, 49), (0, 50), (1, 51))},
    ),
}


def _workload(name):
    if name == "hpcg":
        return HpcgWorkload(
            HpcgConfig(
                nx=8, ny=8, nz=8, nlevels=2, n_iterations=2, blocks_per_kernel=2
            )
        )
    return StreamWorkload(StreamConfig(n=4000, iterations=2))


def acquire(setting):
    """Trace one setting; returns the trace, the machine and the
    ``(op, n)`` of every sample block, one tuple per executed batch."""
    engine, workload, tracer, noise = SETTINGS[setting]
    fields = {"load_period": 128, "store_period": 128, **tracer}
    session = Session(
        SessionConfig(
            seed=5, engine=engine, tracer=TracerConfig(**fields), noise=noise
        )
    )
    blocks = []
    execute = session.machine.execute

    def recording(batch):
        execution = execute(batch)
        blocks.append(tuple((int(b.op), b.n) for b in execution.samples))
        return execution

    session.machine.execute = recording
    trace = session.run(_workload(workload))
    return trace, session.machine, blocks


@pytest.mark.parametrize("setting", sorted(PINS))
def test_acquisition_pinned(setting):
    digest, counts, batch_blocks = PINS[setting]
    trace, machine, blocks = acquire(setting)
    assert (
        machine.samples_emitted,
        machine.samples_dropped_mpx,
        machine.samples_dropped_latency,
    ) == counts
    assert trace.n_samples == machine.samples_emitted
    assert {i: blocks[i] for i in batch_blocks} == batch_blocks
    assert trace.digest() == digest


def test_spe_pin_reaches_the_remote_rewrite():
    """The SPE pin runs the post-classification path: some sources were
    rewritten to a remote code from the sample addresses."""
    trace, _, _ = acquire("spe")
    sources = trace.sample_table().source
    assert np.count_nonzero(sources == int(DataSource.REMOTE_CACHE)) > 0


#: The paper's HPCG run as pipebench's fig1-paper workload acquires it.
FIG1_PAPER_DIGEST = "f46a064ea01f14c07637ca8416dd25ac0d5227ab9d8e79f8e244a9c14f95f492"
FIG1_PAPER_SAMPLES = 208_349


@pytest.mark.slow
def test_fig1_paper_acquisition_pinned():
    trace = run_workload(
        HpcgWorkload(HpcgConfig.paper(n_iterations=10)),
        SessionConfig(
            seed=7,
            engine="analytic",
            tracer=TracerConfig(load_period=20_000, store_period=20_000),
        ),
    )
    assert trace.n_samples == FIG1_PAPER_SAMPLES
    assert trace.digest() == FIG1_PAPER_DIGEST

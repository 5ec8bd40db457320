"""Shared fixtures for tracer tests: a small fully-wired session."""

import numpy as np
import pytest

from repro.memsim.cache import CacheConfig
from repro.memsim.datasource import LatencyModel
from repro.memsim.hierarchy import HierarchyConfig, PreciseEngine
from repro.simproc.calibration import MachineCalibration
from repro.simproc.machine import Machine
from repro.extrae.tracer import Tracer, TracerConfig
from repro.vmem.allocator import Allocator
from repro.vmem.binimage import BinaryImage
from repro.vmem.layout import AddressSpace


def small_hierarchy():
    return HierarchyConfig(
        levels=(
            CacheConfig("L1D", 1024, 64, 2),
            CacheConfig("L2", 4096, 64, 4),
            CacheConfig("L3", 16 * 1024, 64, 4),
        ),
        latency=LatencyModel(jitter=0.0),
        enable_prefetch=False,
        tlb=None,
    )


def build_session(
    seed=0,
    config: TracerConfig | None = None,
    frequency_hz=1e9,
):
    """A complete machine + allocator + image + tracer wiring."""
    rng = np.random.default_rng(seed)
    config = config or TracerConfig(
        load_period=100, store_period=100, randomization=0.0, multiplex=False
    )
    space = AddressSpace(rng)
    allocator = Allocator(space)
    image = BinaryImage(space)
    machine = Machine(
        engine=PreciseEngine(small_hierarchy()),
        calibration=MachineCalibration(frequency_hz=frequency_hz),
        sampler=config.build_pebs(rng),
        multiplex=config.build_multiplex(),
    )
    return Tracer(machine, allocator, image, config)


@pytest.fixture
def tracer():
    return build_session()

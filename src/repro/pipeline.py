"""High-level API: wire a full session and run workloads in one call.

A *session* is the complete substrate stack — address space (with
ASLR), allocator, binary image, memory engine, machine with PEBS and
multiplexing, tracer — built from a single seed.  This is the entry
point downstream users (and the examples, benchmarks and CLI) go
through:

>>> from repro.pipeline import SessionConfig, run_workload
>>> from repro.workloads import HpcgConfig, HpcgWorkload
>>> trace = run_workload(HpcgWorkload(HpcgConfig(nx=16, ny=16, nz=16,
...     nlevels=2, n_iterations=3)), SessionConfig(seed=1))
>>> trace.n_samples > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.figures import Figure1, build_figure1
from repro.extrae.trace import Trace
from repro.extrae.tracer import Tracer, TracerConfig
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.spec import RESIDENT, FoldSpec
from repro.memsim.engines import ENGINE_NAMES, make_engine
from repro.memsim.hierarchy import HierarchyConfig
from repro.simproc.calibration import MachineCalibration
from repro.simproc.machine import Machine
from repro.simproc.noise import NoiseModel
from repro.util.rng import RngStreams
from repro.vmem.allocator import Allocator
from repro.vmem.binimage import BinaryImage
from repro.vmem.layout import AddressSpace, AddressSpaceConfig
from repro.workloads.base import Workload

__all__ = [
    "Session",
    "SessionConfig",
    "analyze_hpcg",
    "publish_trace",
    "run_workload",
]


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to build a reproducible session.

    Parameters
    ----------
    seed:
        Root seed: drives ASLR, PEBS randomization and latency jitter
        through named substreams (two sessions with the same seed are
        bit-identical).
    engine:
        ``"analytic"`` (closed-form, use for paper-scale problems),
        ``"precise"`` (per-access cache simulation, use for small
        problems and validation) or ``"vectorized"`` (batch replay of
        the precise hierarchy — identical results, an order of
        magnitude faster).
    """

    seed: int = 0
    engine: str = "analytic"
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    calibration: MachineCalibration = field(default_factory=MachineCalibration)
    tracer: TracerConfig = field(default_factory=TracerConfig)
    address_space: AddressSpaceConfig = field(default_factory=AddressSpaceConfig)
    #: optional OS-noise injection (None = quiet machine)
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {', '.join(ENGINE_NAMES)}, "
                f"got {self.engine!r}"
            )

    def with_seed(self, seed: int) -> "SessionConfig":
        return replace(self, seed=seed)


class Session:
    """A fully wired substrate stack."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        self.streams = RngStreams(self.config.seed)
        self.space = AddressSpace(self.streams.get("aslr"), self.config.address_space)
        self.allocator = Allocator(self.space)
        self.image = BinaryImage(self.space)
        engine = make_engine(
            self.config.engine, self.config.hierarchy, rng=self.streams.get("memsim")
        )
        # The default backend keeps its historical stream name ("pebs")
        # so existing seeds reproduce bit-identical traces; any other
        # backend draws from its own named substream.
        backend = self.config.tracer.sampler
        sampler_rng = self.streams.get(
            "pebs" if backend == "pebs" else f"sampler.{backend}"
        )
        self.machine = Machine(
            engine=engine,
            calibration=self.config.calibration,
            sampler=self.config.tracer.build_sampler(sampler_rng),
            multiplex=self.config.tracer.build_multiplex(),
            noise=self.config.noise,
            noise_rng=self.streams.get("noise"),
        )
        self.tracer = Tracer(self.machine, self.allocator, self.image, self.config.tracer)
        self.tracer.trace.metadata.update(
            {"seed": self.config.seed, "engine": self.config.engine}
        )

    def run(self, workload: Workload) -> Trace:
        """Trace *workload* (setup, run, finalize)."""
        return workload.trace(self.tracer)


def run_workload(
    workload: Workload,
    config: SessionConfig | None = None,
    *,
    validate: bool = False,
    sampler: str | None = None,
) -> Trace:
    """One-shot: build a session and trace *workload*.

    With ``validate=True`` the finished trace is passed through the
    invariant checkers (:mod:`repro.validate.invariants`) against the
    session's hierarchy configuration and a
    :class:`~repro.validate.invariants.ValidationError` is raised on
    any violation — equivalent to setting ``TracerConfig.self_check``
    but decided at the call site.

    *sampler* overrides the sampling backend of the session's tracer
    configuration (``"pebs"`` or ``"spe"``) without spelling out a
    full :class:`~repro.extrae.tracer.TracerConfig`.
    """
    config = config or SessionConfig()
    if sampler is not None and sampler != config.tracer.sampler:
        config = replace(config, tracer=replace(config.tracer, sampler=sampler))
    session = Session(config)
    trace = session.run(workload)
    if validate:
        from repro.validate.invariants import validate_trace

        validate_trace(trace, session.config.hierarchy).raise_on_error()
    return trace


def publish_trace(trace, repo_root=None):
    """Store a finished trace in the content-addressed repository.

    The pipeline-level face of :meth:`repro.repo.TraceRepo.put`:
    *trace* (a :class:`~repro.extrae.trace.Trace` or a container path)
    is stored under its content digest in the repository at
    *repo_root* (default: ``$REPRO_TRACE_REPO``, else
    ``~/.local/share/repro/traces``) and becomes servable by
    ``bsc-memtools-serve``.  Returns the :class:`~repro.repo.RepoEntry`.
    """
    from repro.repo import TraceRepo

    return TraceRepo(repo_root).put(trace)


def analyze_hpcg(
    trace: Trace,
    spec: FoldSpec | None = None,
    *,
    cache=None,
    **fields,
) -> tuple[FoldedReport, Figure1]:
    """Fold an HPCG trace and run the full §III analysis.

    The fold follows *spec* (default ``FoldSpec()``), with keyword
    *fields* overriding single spec fields, as in
    :func:`~repro.folding.report.fold_trace`.  The analysis reads the
    resident report, so the spec may neither stream nor extrapolate.
    Pass a :class:`repro.folding.cache.FoldCache` as *cache* to serve
    repeated analyses of the same trace from disk.
    """
    spec = replace(spec or FoldSpec(), **fields)
    if spec.path != RESIDENT:
        raise ValueError(f"the Figure-1 analysis needs a resident fold, not {spec.path}")
    report = fold_trace(trace, spec, cache=cache)
    return report, build_figure1(report)

"""Golden-trace fixtures: deterministic reference traces per engine.

A *golden* is a small committed trace produced by a fixed workload +
session configuration (STREAM triad, seed :data:`GOLDEN_SEED`, dense
sampling) for each memory-engine fidelity mode.  CI regenerates the
same trace and diffs it against the committed file with
:func:`repro.validate.diff.diff_traces`; any unintended behavior change
anywhere in the stack (allocator, ASLR, PEBS, engines, latency model,
serialization) then fails loudly with the exact diverging column/row
instead of silently shifting Figure 1.

Regenerate *intentionally* after a deliberate behavior change with::

    python -m repro.validate.golden tests/golden

and check without writing (what the tier-1 tests run) with::

    python -m repro.validate.golden --check tests/golden
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.extrae.trace import SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.memsim.engines import ENGINE_NAMES
from repro.validate.diff import TraceDiff, diff_traces

__all__ = [
    "GOLDEN_SAMPLERS",
    "GOLDEN_SEED",
    "check_goldens",
    "golden_key",
    "golden_path",
    "golden_trace",
    "inject_perturbation",
    "write_goldens",
]

#: Root seed of every golden session; never change casually — all
#: committed fixtures derive from it.
GOLDEN_SEED = 7

#: Sampling backends with committed per-engine fixtures.
GOLDEN_SAMPLERS = ("pebs", "spe")

#: Relative tolerance for float columns when checking goldens.  Zero
#: drift is expected on one platform; the tiny allowance absorbs
#: cross-platform libm differences in the latency-jitter path.
GOLDEN_RTOL = 1e-9


def _golden_config(engine: str, sampler: str = "pebs"):
    from repro.pipeline import SessionConfig

    return SessionConfig(
        seed=GOLDEN_SEED,
        engine=engine,
        tracer=TracerConfig(
            sampler=sampler,
            load_period=64,
            store_period=64,
            randomization=0.10,
        ),
    )


def _golden_workload():
    from repro.workloads.stream import StreamConfig, StreamWorkload

    return StreamWorkload(StreamConfig(n=2048, iterations=3, blocks=2))


def golden_trace(engine: str, sampler: str = "pebs") -> Trace:
    """Freshly generate the golden trace for *engine* × *sampler*."""
    from repro.pipeline import run_workload

    return run_workload(_golden_workload(), _golden_config(engine, sampler))


def golden_path(
    directory: str | Path, engine: str, sampler: str = "pebs"
) -> Path:
    """Fixture file for one engine × sampler combination.

    The default PEBS backend keeps its historical unsuffixed filename
    (``stream_<engine>.bsctrace``); other backends are suffixed.
    """
    suffix = "" if sampler == "pebs" else f"_{sampler}"
    return Path(directory) / f"stream_{engine}{suffix}.bsctrace"


def golden_key(engine: str, sampler: str = "pebs") -> str:
    """Result-dict key for one combination (engine alone for PEBS)."""
    return engine if sampler == "pebs" else f"{engine}+{sampler}"


def write_goldens(
    directory: str | Path,
    engines: tuple[str, ...] = ENGINE_NAMES,
    samplers: tuple[str, ...] = GOLDEN_SAMPLERS,
) -> list[Path]:
    """(Re)generate and write the golden fixture per engine × sampler."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [
        golden_trace(engine, sampler).save(
            golden_path(directory, engine, sampler)
        )
        for engine in engines
        for sampler in samplers
    ]


def check_goldens(
    directory: str | Path,
    engines: tuple[str, ...] = ENGINE_NAMES,
    samplers: tuple[str, ...] = GOLDEN_SAMPLERS,
    *,
    rtol: float = GOLDEN_RTOL,
    atol: float = 0.0,
) -> dict[str, TraceDiff]:
    """Regenerate each combination's trace and diff against the file.

    Returns ``{golden_key(engine, sampler): TraceDiff}``; a missing
    fixture file is reported as a diff with a single ``file.missing``
    divergence.
    """
    from repro.validate.diff import Divergence

    results: dict[str, TraceDiff] = {}
    for engine in engines:
        for sampler in samplers:
            key = golden_key(engine, sampler)
            path = golden_path(directory, engine, sampler)
            if not path.exists():
                results[key] = TraceDiff(
                    [Divergence("file", "missing", -1, str(path), None)]
                )
                continue
            results[key] = diff_traces(
                Trace.load(path),
                golden_trace(engine, sampler),
                rtol=rtol,
                atol=atol,
            )
    return results


def inject_perturbation(
    trace: Trace, column: str, row: int, delta: float = 1.0
) -> Trace:
    """Copy *trace* with one sample cell nudged by *delta*.

    Used to prove the golden differ localizes a single-sample change
    (address or latency) to the exact column and row; also handy for
    exercising the validator's corruption checks.
    """
    cols = trace.sample_table().columns()
    if not 0 <= row < len(trace.sample_table()):
        raise IndexError(f"row {row} outside table of {trace.n_samples} samples")
    col = cols[column].copy()
    col[row] += np.asarray(delta).astype(col.dtype)
    cols[column] = col
    return Trace.from_parts(
        metadata=dict(trace.metadata),
        events=list(trace.events),
        objects=list(trace.objects),
        labels=trace.labels,
        callstacks=trace.callstacks,
        table=SampleTable(cols),
    )


def main(argv: list[str] | None = None) -> int:
    """Regenerate (default) or check the golden fixture directory."""
    p = argparse.ArgumentParser(
        prog="python -m repro.validate.golden",
        description="Regenerate or check the committed golden traces.",
    )
    p.add_argument("directory", nargs="?", default="tests/golden")
    p.add_argument(
        "--check",
        action="store_true",
        help="diff freshly generated traces against the committed files "
        "instead of overwriting them (exit 1 on drift)",
    )
    p.add_argument("--engines", nargs="*", default=list(ENGINE_NAMES),
                   choices=list(ENGINE_NAMES))
    p.add_argument("--samplers", nargs="*", default=list(GOLDEN_SAMPLERS),
                   choices=list(GOLDEN_SAMPLERS))
    args = p.parse_args(argv)

    if args.check:
        drift = False
        for key, diff in check_goldens(
            args.directory, tuple(args.engines), tuple(args.samplers)
        ).items():
            status = "ok" if diff.identical else "DRIFT"
            print(f"{key}: {status}")
            if not diff.identical:
                drift = True
                print(diff.summary())
        return 1 if drift else 0
    for path in write_goldens(
        args.directory, tuple(args.engines), tuple(args.samplers)
    ):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Import boundaries: what an entry module may load at import time.

Each case imports one entry module in a fresh interpreter and lists
the modules it must leave out of ``sys.modules``.  The CLI is the
start-up every ``bsc-memtools-*`` command pays, so it loads no process
pool machinery and no NumPy; only ``bsc-memtools-run --ranks`` and the
service start pools, and they import it when they run.

The reading side — the server and its fold worker, folding, the
repository, the trace container and the Figure-1 analysis — imports no
simulator: traces are read through the sample schema
(:mod:`repro.extrae.schema`), which both sides share.  The runtime test
checks that the reading commands and the service's fold jobs keep to
that after dispatch, too, and that a fold, and the Figure-1 report
built from it, load no ``numpy.ma``, which NumPy imports lazily from
``np.median`` and from a plain ``np.unique`` (13-17 ms that would land
in every process's first fold).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "stream_analytic.bsctrace"

#: the simulator and the one-call API that drives it
SIMULATOR = ("repro.simproc", "repro.memsim", "repro.workloads", "repro.pipeline")

#: (entry module, forbidden module-name prefixes)
BOUNDARIES = [
    (
        "repro.cli",
        ("multiprocessing", "concurrent.futures.process", "numpy", *SIMULATOR),
    ),
    ("repro.service.server", SIMULATOR),
    ("repro.folding", SIMULATOR),
    ("repro.repo", SIMULATOR),
    ("repro.extrae.trace", SIMULATOR),
    ("repro.analysis.figures", SIMULATOR),
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def _run_python(*args: str) -> str:
    """stdout of a fresh interpreter run with ``src`` on its path."""
    return subprocess.run(
        [sys.executable, *args], env=_env(), check=True,
        capture_output=True, text=True,
    ).stdout


def loaded_modules(entry: str) -> list[str]:
    """``sys.modules`` after importing *entry* in a fresh interpreter."""
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module({entry!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return json.loads(_run_python("-c", code))


def _leaked(loaded, forbidden) -> list[str]:
    return [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in forbidden)
    ]


@pytest.mark.parametrize(
    "entry, forbidden", BOUNDARIES, ids=[entry for entry, _ in BOUNDARIES]
)
def test_entry_leaves_out_forbidden_modules(entry, forbidden):
    loaded = loaded_modules(entry)
    assert entry in loaded
    assert _leaked(loaded, forbidden) == []


#: (old import path, schema or paper import path) of each moved name
MOVED = [
    ("repro.simproc.machine", "repro.extrae.schema", "SAMPLE_COUNTERS"),
    ("repro.simproc.machine", "repro.extrae.schema", "SampleBlock"),
    ("repro.simproc", "repro.extrae.schema", "SampleBlock"),
    ("repro.memsim.patterns", "repro.extrae.schema", "MemOp"),
    ("repro.memsim.datasource", "repro.extrae.schema", "DataSource"),
    ("repro.memsim", "repro.extrae.schema", "MemOp"),
    ("repro.memsim", "repro.extrae.schema", "DataSource"),
    ("repro.simproc.calibration", "repro.paper", "PAPER_TARGETS"),
    ("repro.simproc", "repro.paper", "PAPER_TARGETS"),
    ("repro.workloads.hpcg.problem", "repro.paper", "MATRIX_GROUP_NAME"),
    ("repro.workloads.hpcg.problem", "repro.paper", "MAP_GROUP_NAME"),
]


def test_public_names_resolve_and_moved_names_are_one_object():
    """Every ``__all__`` name of the lazy packages resolves, and each
    moved name is the same object at its old and its new home."""
    import importlib

    for package in ("repro", "repro.extrae"):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, (package, name)
            assert name in dir(module)
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018
    for old, new, name in MOVED:
        assert getattr(importlib.import_module(old), name) is getattr(
            importlib.import_module(new), name
        ), (old, new, name)


_RUNTIME_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    FORBIDDEN = {forbidden!r}


    def leaked():
        return sorted(
            name for name in sys.modules
            if any(name == p or name.startswith(p + ".") for p in FORBIDDEN)
        )


    def fold_then_leaked(job):
        from repro.service.work import fold_payload_job

        fold_payload_job(*job)
        return leaked()


    if __name__ == "__main__":
        golden, tmp = sys.argv[1], sys.argv[2]
        root = tmp + "/repo"
        from repro.cli import main_fold, main_repo, main_trace

        with contextlib.redirect_stdout(io.StringIO()):
            assert main_fold([golden, "-o", tmp + "/folded"]) == 0
            after_fold = leaked()
            assert main_trace(["info", golden]) == 0
            assert main_repo(["--root", root, "put", golden]) == 0
            assert main_repo(["--root", root, "list"]) == 0
        after_commands = leaked()

        import repro.service.server  # noqa: F401
        from repro.folding.spec import FoldSpec
        from repro.repo import TraceRepo
        from repro.service.work import fold_payload_job

        (entry,) = TraceRepo(root).list()
        resident = FoldSpec()
        # A streamed report serves the counters payload only; its fold
        # still runs all three streamed directions.
        streamed = FoldSpec(
            streaming=True, directions=("counters", "address", "lines")
        )
        jobs = [
            (str(entry.path), entry.digest, direction, spec, 50, tmp + cache)
            for spec, cache, directions in (
                (resident, "/cache-resident", ("counters", "address", "lines")),
                (streamed, "/cache-streamed", ("counters",)),
            )
            for direction in directions
        ]
        before_jobs = set(sys.modules)
        folded = [fold_payload_job(*job)[1] for job in jobs]
        added = sorted(
            name for name in set(sys.modules) - before_jobs
            if name.split(".")[0] == "repro"
        )
        ctx = get_context("forkserver")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            worker = pool.submit(
                fold_then_leaked,
                (str(entry.path), entry.digest, "address", resident, 50,
                 tmp + "/cache-forkserver"),
            ).result()
        print(json.dumps({{
            "after_fold": after_fold,
            "after_commands": after_commands,
            "after_jobs": leaked(),
            "added_by_jobs": added,
            "folded": folded,
            "worker": worker,
        }}))
    """
)


def test_reading_commands_and_fold_jobs_load_no_simulator(tmp_path):
    """After dispatch, too: ``fold``, ``trace info``, ``repo list`` and
    the service's fold jobs (resident and streamed, in-process and in
    a ``forkserver`` worker) load no simulator module and no
    ``numpy.ma``, and the jobs import no ``repro`` module the server
    had not imported before forking its pool, so a worker's first cold
    fold compiles nothing."""
    probe = tmp_path / "probe.py"
    probe.write_text(_RUNTIME_PROBE.format(forbidden=(*SIMULATOR, "numpy.ma")))
    out = json.loads(_run_python(str(probe), str(GOLDEN), str(tmp_path)))
    assert out["after_fold"] == []
    assert out["after_commands"] == []
    assert out["after_jobs"] == []
    assert out["added_by_jobs"] == []
    assert out["folded"] == [True, False, False, True]
    assert out["worker"] == []


_FIGURE1_PROBE = textwrap.dedent(
    """
    import json, sys

    from repro.analysis.figures import build_figure1
    from repro.extrae.trace import Trace
    from repro.folding.report import fold_trace

    path, out = sys.argv[1], sys.argv[2]
    figure = build_figure1(fold_trace(Trace.load(path)))
    figure.render()
    written = figure.export(out)
    print(json.dumps({
        "loaded": sorted(sys.modules),
        "phases": list(figure.phases.major_sequence()),
        "written": len(written),
    }))
    """
)


def test_figure1_report_loads_no_numpy_ma(hpcg_trace, tmp_path):
    """The Figure-1 report step — fold a saved HPCG container, build,
    render and export Figure 1 — loads no simulator module and no
    ``numpy.ma`` (the phase split's per-label median and unique ids
    included)."""
    container = hpcg_trace.save(tmp_path / "hpcg.bsctrace")
    probe = tmp_path / "figure1.py"
    probe.write_text(_FIGURE1_PROBE)
    out = json.loads(_run_python(str(probe), str(container), str(tmp_path / "fig")))
    assert out["phases"] == ["A", "B", "C", "D", "E"]
    assert out["written"] > 0
    assert _leaked(out["loaded"], (*SIMULATOR, "numpy.ma")) == []

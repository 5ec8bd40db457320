"""Import boundaries: what an entry module may load at import time.

Each case imports one entry module in a fresh interpreter and lists
the modules it must leave out of ``sys.modules``.  The CLI is the
start-up every ``bsc-memtools-*`` command pays, so it loads no process
pool machinery; only ``bsc-memtools-run --ranks`` and the service
start pools, and they import it when they run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: (entry module, forbidden module-name prefixes)
BOUNDARIES = [
    ("repro.cli", ("multiprocessing", "concurrent.futures.process")),
]


def loaded_modules(entry: str) -> list[str]:
    """``sys.modules`` after importing *entry* in a fresh interpreter."""
    code = (
        "import importlib, json, sys\n"
        f"importlib.import_module({entry!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize(
    "entry, forbidden", BOUNDARIES, ids=[entry for entry, _ in BOUNDARIES]
)
def test_entry_leaves_out_forbidden_modules(entry, forbidden):
    loaded = loaded_modules(entry)
    assert entry in loaded
    leaked = [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in forbidden)
    ]
    assert leaked == []

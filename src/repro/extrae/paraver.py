"""Paraver trace export.

The BSC tool suite's native trace format is Paraver's ``.prv`` (with a
``.pcf`` configuration file naming event types/values and a ``.row``
file naming the rows).  Extrae emits it; Paraver and the Folding tool
consume it.  This module writes the simulated traces in a faithful
subset of the format so they can be inspected with the real BSC tools:

* **state records** (``1:…``) for instrumented region occurrences,
* **event records** (``2:…``) for iteration markers and for every PEBS
  sample (address, access cost, data source, operation and the sampled
  call-stack line), using Extrae-style type ids in the 71xxxxxx range.

Format reference: the Paraver trace-format documentation (BSC).
"""

from __future__ import annotations

from pathlib import Path

from repro.extrae.events import EventKind
from repro.extrae.schema import DataSource
from repro.extrae.trace import Trace

__all__ = ["export_paraver"]

#: Extrae-style event type ids used by the exporter.
TYPE_ITERATION = 70_000_001
TYPE_REGION = 70_000_002
TYPE_SAMPLE_ADDRESS = 71_000_000
TYPE_SAMPLE_COST = 71_000_001
TYPE_SAMPLE_SOURCE = 71_000_002
TYPE_SAMPLE_OP = 71_000_003
TYPE_SAMPLE_LINE = 71_000_004

_RUNNING_STATE = 1


def export_paraver(trace: Trace, basename: str | Path) -> tuple[Path, Path, Path]:
    """Write ``<basename>.prv``, ``.pcf`` and ``.row`` for *trace*.

    Returns the three paths.  Times are nanoseconds; the trace holds a
    single application with a single task/thread (rank traces are
    exported one file per rank).
    """
    basename = Path(basename)
    prv = basename.with_suffix(".prv")
    pcf = basename.with_suffix(".pcf")
    row = basename.with_suffix(".row")

    duration = max(int(trace.duration_ns()) + 1, 1)
    region_ids: dict[str, int] = {}

    records: list[tuple[int, str]] = []  # (time, line) for sorting

    # -- state + punctual event records from the instrumentation --------
    open_regions: list[tuple[str, float]] = []
    for ev in trace.events:
        t = int(ev.time_ns)
        if ev.kind == EventKind.REGION_ENTER:
            open_regions.append((ev.name, ev.time_ns))
            rid = region_ids.setdefault(ev.name, len(region_ids) + 1)
            records.append((t, f"2:1:1:1:1:{t}:{TYPE_REGION}:{rid}"))
        elif ev.kind == EventKind.REGION_EXIT:
            for i in range(len(open_regions) - 1, -1, -1):
                if open_regions[i][0] == ev.name:
                    name, begin = open_regions.pop(i)
                    rid = region_ids[name]
                    records.append(
                        (int(begin),
                         f"1:1:1:1:1:{int(begin)}:{t}:{_RUNNING_STATE}")
                    )
                    records.append((t, f"2:1:1:1:1:{t}:{TYPE_REGION}:0"))
                    break
        elif ev.kind == EventKind.ITERATION:
            records.append((t, f"2:1:1:1:1:{t}:{TYPE_ITERATION}:1"))

    # -- sample event records ---------------------------------------------
    table = trace.sample_table()
    line_values: dict[tuple[str, str, int], int] = {}
    for i in range(table.n):
        t = int(table.time_ns[i])
        cs = trace.callstack(int(table.callstack_id[i]))
        leaf = cs.leaf
        key = (leaf.function, leaf.file, leaf.line)
        line_id = line_values.setdefault(key, len(line_values) + 1)
        records.append(
            (
                t,
                f"2:1:1:1:1:{t}"
                f":{TYPE_SAMPLE_ADDRESS}:{int(table.address[i])}"
                f":{TYPE_SAMPLE_COST}:{int(round(float(table.latency[i])))}"
                f":{TYPE_SAMPLE_SOURCE}:{int(table.source[i])}"
                f":{TYPE_SAMPLE_OP}:{int(table.op[i])}"
                f":{TYPE_SAMPLE_LINE}:{line_id}",
            )
        )

    records.sort(key=lambda r: r[0])
    header = f"#Paraver (01/01/00 at 00:00):{duration}_ns:1(1):1:1(1:1)\n"
    with prv.open("w") as f:
        f.write(header)
        for _, line in records:
            f.write(line + "\n")

    # -- .pcf: names for states, event types and values --------------------
    with pcf.open("w") as f:
        f.write("DEFAULT_OPTIONS\n\nLEVEL THREAD\nUNITS NANOSEC\n\n")
        f.write("STATES\n0 Idle\n1 Running\n\n")
        f.write("EVENT_TYPE\n")
        f.write(f"0 {TYPE_ITERATION} Iteration marker\n")
        f.write(f"0 {TYPE_REGION} Instrumented region\n")
        f.write("VALUES\n0 End\n")
        for name, rid in sorted(region_ids.items(), key=lambda kv: kv[1]):
            f.write(f"{rid} {name}\n")
        f.write("\nEVENT_TYPE\n")
        f.write(f"0 {TYPE_SAMPLE_ADDRESS} Sampled address\n")
        f.write(f"0 {TYPE_SAMPLE_COST} Sampled access cost (cycles)\n\n")
        f.write("EVENT_TYPE\n")
        f.write(f"0 {TYPE_SAMPLE_SOURCE} Sampled data source\n")
        f.write("VALUES\n")
        for src in DataSource:
            f.write(f"{int(src)} {src.pretty}\n")
        f.write("\nEVENT_TYPE\n")
        f.write(f"0 {TYPE_SAMPLE_OP} Sampled operation\nVALUES\n0 load\n1 store\n\n")
        f.write("EVENT_TYPE\n")
        f.write(f"0 {TYPE_SAMPLE_LINE} Sampled source line\nVALUES\n")
        for (fn, file, line), vid in sorted(line_values.items(), key=lambda kv: kv[1]):
            f.write(f"{vid} {fn} ({file}:{line})\n")

    # -- .row: row labels ----------------------------------------------------
    with row.open("w") as f:
        f.write("LEVEL NODE SIZE 1\nnode.0\n\n")
        f.write("LEVEL THREAD SIZE 1\n")
        rank = trace.metadata.get("rank", 0)
        f.write(f"THREAD 1.{rank + 1}.1\n")

    return prv, pcf, row

"""What the source paper published, as the reproduction checks it.

Servat et al., "Integrating Memory Perspective into the BSC
Performance Tools" (ICPP 2017), §III and Figure 1.  Both sides of a
trace read these constants: the simulator's calibration
(:mod:`repro.simproc.calibration`) was fitted to the measurements and
the HPCG workload (:mod:`repro.workloads.hpcg.problem`) records its
two grouped allocations under the legend names, while the Figure-1
analysis (:mod:`repro.analysis.figures`) compares a folded trace with
them.  Keeping them here lets that analysis run without importing the
simulator; the old homes re-export the same objects.
"""

from __future__ import annotations

__all__ = ["MAP_GROUP_NAME", "MATRIX_GROUP_NAME", "PAPER_TARGETS"]

#: Published measurements from Servat et al. (ICPP 2017), §III.
PAPER_TARGETS: dict[str, float] = {
    # Effective bandwidth while traversing the matrix structure (MB/s).
    "bandwidth_a1_MBps": 4197.0,  # SYMGS forward sweep
    "bandwidth_a2_MBps": 4315.0,  # SYMGS backward sweep
    "bandwidth_B_MBps": 6427.0,  # SPMV
    # "the code does not exceed 1500 MIPS representing an IPC of 0.6
    # considering the nominal frequency".
    "mips_cap": 1500.0,
    "ipc_at_cap": 0.6,
    # Figure 1 legend: allocation-group sizes.
    "object_group_124_MB": 617.0,
    "object_group_205_MB": 89.0,
}

#: Figure 1 legend names (the line numbers are the wrap instrumentation
#: sites, not the allocation sites).
MATRIX_GROUP_NAME = "124_GenerateProblem_ref.cpp"
MAP_GROUP_NAME = "205_GenerateProblem_ref.cpp"

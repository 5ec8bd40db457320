"""Cost-model calibration constants and the paper's published targets.

The reproduction substitutes a simulated machine for the Jureca node
(dual Intel Xeon E5-2680 v3, 2.5 GHz nominal).  Absolute performance
numbers therefore come from this calibration; the *relative* behaviour
(who is faster, where the crossovers are) is produced by the model
itself.  Every constant here is either a documented hardware figure or a
value fitted once against the paper's published measurements — see
DESIGN.md ("Hardware/data gates and substitutions") and the per-kernel
MLP discussion below.  The published measurements themselves,
:data:`PAPER_TARGETS`, live in :mod:`repro.paper` and are re-exported
here.

Memory-level parallelism (MLP)
------------------------------
The cost model charges ``line-fetch latency / MLP`` per fetched line: a
kernel that keeps more misses in flight hides more latency.  The HPCG
kernels differ exactly there:

* ``ComputeSPMV`` streams independent rows — high MLP;
* ``ComputeSYMGS`` has a loop-carried dependence through ``x`` (each row
  update reads previously updated entries), which throttles the number
  of outstanding misses — low MLP; the backward sweep prefetches
  slightly better on descending streams in practice, hence the small
  forward/backward asymmetry the paper reports (4197 vs 4315 MB/s).

The three MLP values below were fitted to the paper's three bandwidth
figures; the ablation bench ``benchmarks/test_ablation_mlp.py`` shows
the published ordering collapses when they are forced equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paper import PAPER_TARGETS

__all__ = ["MachineCalibration", "PAPER_TARGETS", "KERNEL_MLP"]


#: Fitted per-kernel memory-level parallelism (see module docstring).
KERNEL_MLP: dict[str, float] = {
    "symgs_forward": 7.42,
    "symgs_backward": 7.39,
    "spmv": 10.98,
    "default": 8.0,
}


@dataclass(frozen=True)
class MachineCalibration:
    """Fixed machine parameters of the simulated core.

    Parameters
    ----------
    frequency_hz:
        Core clock; 2.5 GHz is the nominal frequency of the Jureca
        Haswell nodes, and the frequency the paper uses to convert
        1500 MIPS into IPC 0.6.
    issue_width:
        Peak sustained instructions per cycle of the core pipeline.
    line_size:
        Cache-line size in bytes.
    tlb_walk_cycles:
        Page-walk penalty charged per DTLB miss.
    """

    frequency_hz: float = 2.5e9
    issue_width: float = 4.0
    line_size: int = 64
    tlb_walk_cycles: float = 30.0

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.frequency_hz * 1e9

    def ns_to_cycles(self, ns: float) -> float:
        return ns * 1e-9 * self.frequency_hz

    @property
    def peak_mips(self) -> float:
        """Instruction-rate ceiling of the pipeline in MIPS."""
        return self.frequency_hz * self.issue_width / 1e6

"""Multi-rank substrate.

The paper runs HPCG on 24 MPI ranks and folds one task's trace.  This
package simulates a 1-D rank stack: each rank owns its own session
(address space with independent ASLR, allocator, machine, tracer) and
runs the same local workload with its position-dependent halo
configuration.  Ranks are simulated independently — halo exchange
traffic is modeled inside each rank's stream (see
``HpcgWorkload._halo_exchange``) because only the *addresses* of halo
data matter to the memory analysis, not the values.

``bsc-memtools-run --ranks N`` runs the stack through :class:`RankSet`
and writes the representative interior rank's trace.
"""

from repro.parallel.ranks import (
    RankResult,
    RankSet,
    RankSummary,
    derive_rank_config,
)

__all__ = [
    "RankResult",
    "RankSet",
    "RankSummary",
    "derive_rank_config",
]

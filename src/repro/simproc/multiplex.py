"""Time-multiplexing of PEBS event groups.

On the paper's hardware, load-latency sampling and store sampling use
separate PEBS event groups that cannot always be programmed together;
Extrae's multiplexing rotates the active group during a single run so
both loads and stores are captured *in the same address space* —
avoiding a second run whose ASLR-randomized addresses could not be
correlated with the first.

:class:`MultiplexSchedule` is a deterministic round-robin rotation in
time: group ``i`` is active during windows
``[k * quantum * n + i * quantum, k * quantum * n + (i+1) * quantum)``.
The machine keeps samples whose timestamp falls inside their group's
active window and drops the rest, exactly like samples lost while a
hardware group is deprogrammed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.schema import MemOp

__all__ = ["EventGroup", "MultiplexSchedule"]


@dataclass(frozen=True)
class EventGroup:
    """A set of memory-operation kinds sampled together."""

    name: str
    ops: frozenset[MemOp]

    def __post_init__(self) -> None:
        if not isinstance(self.ops, frozenset):
            object.__setattr__(self, "ops", frozenset(self.ops))
        if not self.ops:
            raise ValueError(f"event group {self.name!r} needs at least one op")


class MultiplexSchedule:
    """Round-robin rotation of event groups over wall-clock time.

    Parameters
    ----------
    groups:
        Groups in rotation order.  A single group means no multiplexing
        (always active).
    quantum_ns:
        Time each group stays programmed before rotating.
    """

    def __init__(self, groups: list[EventGroup], quantum_ns: float = 200_000.0) -> None:
        if not groups:
            raise ValueError("need at least one event group")
        if quantum_ns <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_ns}")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate group names: {names}")
        self.groups = list(groups)
        self.quantum_ns = float(quantum_ns)

    @classmethod
    def loads_and_stores(cls, quantum_ns: float = 200_000.0) -> "MultiplexSchedule":
        """The paper's configuration: alternate load and store groups."""
        return cls(
            [
                EventGroup("loads", frozenset({MemOp.LOAD})),
                EventGroup("stores", frozenset({MemOp.STORE})),
            ],
            quantum_ns,
        )

    @classmethod
    def single(cls, ops: set[MemOp]) -> "MultiplexSchedule":
        """No multiplexing: one always-active group."""
        return cls([EventGroup("all", frozenset(ops))], quantum_ns=1.0)

    def active_group(self, t_ns: float) -> EventGroup:
        """The group programmed at time *t_ns*."""
        slot = int(t_ns // self.quantum_ns) % len(self.groups)
        return self.groups[slot]

    def active_mask(self, op: MemOp, times_ns: np.ndarray) -> np.ndarray:
        """Which timestamps fall inside a window where *op* is sampled."""
        t = np.asarray(times_ns, dtype=np.float64)
        if len(self.groups) == 1:
            only = self.groups[0]
            return np.full(t.shape, op in only.ops, dtype=bool)
        slots = (t // self.quantum_ns).astype(np.int64) % len(self.groups)
        op_active = np.array([op in g.ops for g in self.groups], dtype=bool)
        return op_active[slots]

    def duty_cycle(self, op: MemOp) -> float:
        """Long-run fraction of time during which *op* is sampled."""
        active = sum(1 for g in self.groups if op in g.ops)
        return active / len(self.groups)

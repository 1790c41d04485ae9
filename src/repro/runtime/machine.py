"""Architecture profiles — the simulated stand-ins for the paper's testbeds.

The paper evaluates on three machines (Table 2):

* ``Mobile``   — Intel Core 2 Duo Mobile, 1.6 GHz, 2 cores
* ``Xeon 1-way`` / ``Xeon 8-way`` — Intel Xeon E7340, 2.4 GHz, 2x4 cores
* ``Niagara``  — Sun Fire T200, 1.2 GHz, 8 hardware threads

Real multicore timing is unavailable here (CPython's GIL serializes
threads), so each machine is modelled by a :class:`Machine` cost profile:
how long one abstract work unit takes on one core (``cycle_time``), how
many cores exist, and the fixed time costs of spawning a task into the
scheduler and of one steal operation.  The *ratios* between compute speed
and scheduling overhead are what drive the paper's architecture-dependent
tuning results: the Niagara's slow cores make its relative spawn overhead
small, so fine-grained parallel algorithms win there, while the fast
Xeon cores favour coarser, less parallel compositions — exactly the
qualitative story of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Machine:
    """A simulated architecture.

    Attributes:
        name: human-readable identifier.
        cores: number of worker threads available.
        cycle_time: simulated seconds per abstract work unit on one core.
        spawn_time: fixed cost, paid by the spawning worker, to package a
            task and push it on the deque (the paper's "dynamic scheduling
            overhead").
        steal_time: fixed cost for one successful steal (includes the THE
            protocol handshake and cache migration).
        memory_time: additional per-work-unit cost applied to
            memory-bound work (used by apps that distinguish compute- vs
            memory-bound rules; 0 folds it into cycle_time).
    """

    name: str
    cores: int
    cycle_time: float
    spawn_time: float
    steal_time: float
    memory_time: float = 0.0

    def compute_time(self, work: float) -> float:
        """Simulated time to execute ``work`` units on one core."""
        return work * self.cycle_time


def _build_default_machines() -> Dict[str, Machine]:
    # cycle_time is normalized so the Xeon core == 1.0 time units per work
    # unit.  Clock ratios follow the paper's hardware table; overheads are
    # chosen so that spawn costs are worth roughly a few hundred work units
    # on the Intel parts (matching the cutoffs the paper reports, e.g.
    # sequential cutoffs in the hundreds of elements).
    xeon8 = Machine(
        name="xeon8", cores=8, cycle_time=1.0, spawn_time=150.0, steal_time=600.0
    )
    xeon1 = Machine(
        name="xeon1", cores=1, cycle_time=1.0, spawn_time=150.0, steal_time=600.0
    )
    mobile = Machine(
        name="mobile", cores=2, cycle_time=1.5, spawn_time=200.0, steal_time=700.0
    )
    # Niagara: ~2x slower clock and far lower IPC per thread (in-order,
    # shared FPU); relative scheduling overhead is small, which is what
    # made the paper's Niagara configs exclusively recursive/parallel.
    niagara = Machine(
        name="niagara", cores=8, cycle_time=6.0, spawn_time=120.0, steal_time=350.0
    )
    return {m.name: m for m in (xeon8, xeon1, mobile, niagara)}


#: The four architecture profiles used throughout the benchmark suite.
MACHINES: Dict[str, Machine] = _build_default_machines()

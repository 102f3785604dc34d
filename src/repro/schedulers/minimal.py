"""6TiSCH minimal configuration (RFC 8180) scheduler.

The minimal configuration bootstraps a 6TiSCH network with a single shared
cell: every frame -- EBs, RPL control and application data -- contends for
slot 0 of one slotframe.  It is not evaluated in the paper (the baseline is
Orchestra) but is the natural "floor" reference: it shows how far purely
contention-based scheduling collapses under the same workloads, and it
doubles as the simplest possible scheduling function for tests and examples.
"""

from __future__ import annotations

from repro.mac.cell import CellPurpose
from repro.schedulers.autonomous import add_shared_cells
from repro.schedulers.base import SchedulingFunction

#: RFC 8180 recommends slotframe lengths that are prime or co-prime with the
#: hopping sequence length; Contiki-NG's default is 7.
SLOTFRAME_LENGTH = 7
CHANNEL_OFFSET = 0


class MinimalScheduler(SchedulingFunction):
    """The RFC 8180 minimal schedule: one shared cell, nothing else."""

    name = "6TiSCH-minimal"

    SLOTFRAME_HANDLE = 0

    def start(self) -> None:
        slotframe = self.node.tsch.add_slotframe(self.SLOTFRAME_HANDLE, SLOTFRAME_LENGTH)
        add_shared_cells(
            slotframe, (0,), CHANNEL_OFFSET, "minimal-shared", purpose=CellPurpose.SHARED
        )

"""6top (6P) sublayer -- RFC 8480 transactions plus the ASK-CHANNEL extension.

6P is the protocol two TSCH neighbours use to negotiate cells.  GT-TSCH uses
three commands:

* ``ADD`` / ``DELETE`` -- the standard RFC 8480 commands, used by the
  load-balancing algorithm to grow or shrink the number of Unicast-Data cells;
* ``ASK_CHANNEL`` (code ``0x0A``) -- the command the paper introduces (Fig. 4)
  with which a node asks its parent which channel it should use towards its
  own children.

:mod:`repro.sixtop.messages` defines the message model,
:mod:`repro.sixtop.layer` implements the per-node transaction state machine
(sequence numbers, matching of responses to requests, timeouts), and
:mod:`repro.sixtop.negotiation` the request queue and cell books a
negotiating scheduling function builds on.
"""

from repro.sixtop.layer import SixPConfig, SixPLayer, SixPTransaction
from repro.sixtop.messages import (
    ASK_CHANNEL_COMMAND_CODE,
    CellDescriptor,
    SixPCommand,
    SixPMessage,
    SixPMessageType,
    SixPReturnCode,
)

__all__ = [
    "SixPCommand",
    "SixPMessageType",
    "SixPReturnCode",
    "SixPMessage",
    "CellDescriptor",
    "ASK_CHANNEL_COMMAND_CODE",
    "SixPConfig",
    "SixPLayer",
    "SixPTransaction",
]

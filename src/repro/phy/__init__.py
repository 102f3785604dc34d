"""Radio / physical-layer models.

This package replaces the Cooja UDGM radio medium used in the paper's
evaluation with an equivalent software model:

* :mod:`repro.phy.propagation` -- link-quality (PRR) models as a function of
  distance, plus per-link overrides for crafted topologies.
* :mod:`repro.phy.medium` -- the per-slot arbitration of all concurrent
  transmissions: who hears whom, collisions (including the hidden-terminal
  case motivating the paper's channel-allocation rules), and ACK outcomes.
* :mod:`repro.phy.linkstats` -- the EWMA estimate of each link's ETX from
  unicast transmission outcomes.
"""

from repro.phy.dynamic import (
    DynamicMediumDriver,
    DynamicMediumPolicy,
    default_drift_policy,
)
from repro.phy.linkstats import EtxEstimator
from repro.phy.medium import Medium, TransmissionIntent, TransmissionResult
from repro.phy.propagation import (
    FixedPrrModel,
    LogisticPrrModel,
    PropagationModel,
    UnitDiskLossyEdgeModel,
)

__all__ = [
    "PropagationModel",
    "UnitDiskLossyEdgeModel",
    "LogisticPrrModel",
    "FixedPrrModel",
    "Medium",
    "TransmissionIntent",
    "TransmissionResult",
    "EtxEstimator",
    "DynamicMediumPolicy",
    "DynamicMediumDriver",
    "default_drift_policy",
]

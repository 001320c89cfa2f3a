"""Traffic-signal controllers: PairUpLight and all paper baselines.

The SingleAgentRL baseline is the ``PairUpLightConfig(communicate=False,
centralized_critic=False)`` preset of :class:`PairUpLightSystem`.
"""

from repro.agents.base import AgentSystem
from repro.agents.colight import CoLightConfig, CoLightNetwork, CoLightSystem
from repro.agents.fixed_time import FixedTimeSystem
from repro.agents.iql import IQLConfig, IQLNetwork, IQLSystem
from repro.agents.ma2c import MA2CConfig, MA2CNetwork, MA2CSystem
from repro.agents.max_pressure import LongestQueueSystem, MaxPressureSystem
from repro.agents.pairuplight import (
    PairUpLightConfig,
    PairUpLightSystem,
)

__all__ = [
    "AgentSystem",
    "CoLightConfig",
    "CoLightNetwork",
    "CoLightSystem",
    "FixedTimeSystem",
    "IQLConfig",
    "IQLNetwork",
    "IQLSystem",
    "LongestQueueSystem",
    "MA2CConfig",
    "MA2CNetwork",
    "MA2CSystem",
    "MaxPressureSystem",
    "PairUpLightConfig",
    "PairUpLightSystem",
]

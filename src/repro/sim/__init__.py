"""Mesoscopic traffic simulator (SUMO substitute — see DESIGN.md).

Public surface:

* :class:`~repro.sim.network.RoadNetwork` and its parts
  (:class:`~repro.sim.network.Node`, :class:`~repro.sim.network.Link`,
  :class:`~repro.sim.network.Lane`, :class:`~repro.sim.network.Movement`,
  :class:`~repro.sim.network.TurnType`).
* :class:`~repro.sim.signal.Phase` / :class:`~repro.sim.signal.PhasePlan` /
  :class:`~repro.sim.signal.FixedTimeProgram`.
* :class:`~repro.sim.demand.Flow` / :class:`~repro.sim.demand.RateProfile` /
  :class:`~repro.sim.demand.DemandGenerator`.
* :class:`~repro.sim.routing.Router`.
* :class:`~repro.sim.engine.Simulation` — the stepping engine.
* :class:`~repro.sim.detectors.DetectorSuite` — range-limited sensing.
* :mod:`~repro.sim.metrics` — travel/waiting-time statistics.
"""

from repro.sim.demand import DemandGenerator, Flow, RateProfile
from repro.sim.detectors import DEFAULT_COVERAGE_M, DetectorSuite
from repro.sim.engine import (
    DEFAULT_SATURATION_RATE,
    DEFAULT_STARTUP_LOST_TIME,
    Simulation,
)
from repro.sim.metrics import (
    EpisodeRecorder,
    TravelTimeStats,
    average_travel_time,
    intersection_max_wait,
    network_average_wait,
    travel_time_stats,
)
from repro.sim.network import (
    VEHICLE_SPACE_M,
    Lane,
    Link,
    Movement,
    MovementKey,
    Node,
    RoadNetwork,
    TurnType,
    classify_turn,
)
from repro.sim.io import (
    load_scenario,
    network_from_dict,
    network_to_dict,
    save_scenario,
)
from repro.sim.routing import Router
from repro.sim.signal import (
    FixedTimeProgram,
    Phase,
    PhasePlan,
    SignalState,
    default_four_phase_plan,
)
from repro.sim.vehicle import Vehicle, VehicleState

__all__ = [
    "DEFAULT_COVERAGE_M",
    "DEFAULT_SATURATION_RATE",
    "DEFAULT_STARTUP_LOST_TIME",
    "DemandGenerator",
    "DetectorSuite",
    "EpisodeRecorder",
    "FixedTimeProgram",
    "Flow",
    "Lane",
    "Link",
    "Movement",
    "MovementKey",
    "Node",
    "Phase",
    "PhasePlan",
    "RateProfile",
    "RoadNetwork",
    "Router",
    "SignalState",
    "Simulation",
    "TravelTimeStats",
    "TurnType",
    "VEHICLE_SPACE_M",
    "Vehicle",
    "VehicleState",
    "average_travel_time",
    "classify_turn",
    "default_four_phase_plan",
    "intersection_max_wait",
    "load_scenario",
    "network_average_wait",
    "network_from_dict",
    "network_to_dict",
    "save_scenario",
    "travel_time_stats",
]

"""Multi-agent traffic-signal-control environment.

Gym-style interface over the mesoscopic simulator: one agent per
signalized intersection, actions are phase choices executed for
``delta_t`` seconds (plus yellow on switches), observations follow
paper Eq. 5 and rewards Eq. 6.

Two episode modes:

* **training** (``drain=False``) — the episode ends at ``horizon_ticks``.
* **evaluation** (``drain=True``) — after the demand horizon the episode
  continues until the network empties or ``max_ticks`` is reached, so
  that average travel time accounts for every emitted vehicle (how the
  paper's Table II numbers exceed the simulation horizon under
  congestion collapse).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.env.observation import ObservationBuilder
from repro.env.reward import DEFAULT_REWARD_SCALE, all_rewards
from repro.env.spaces import BoxSpace, DiscreteSpace
from repro.perf.timers import TIMERS
from repro.sim.demand import DemandGenerator, Flow
from repro.sim.detectors import DEFAULT_COVERAGE_M, DetectorSuite
from repro.sim.engine import (
    DEFAULT_SATURATION_RATE,
    DEFAULT_STARTUP_LOST_TIME,
    Simulation,
)
from repro.sim.metrics import average_travel_time, network_average_wait
from repro.sim.network import RoadNetwork
from repro.sim.routing import Router
from repro.sim.signal import PhasePlan
from repro.sim.soa import SoAEngine, SoAReplicaView

if TYPE_CHECKING:  # runtime import is lazy to avoid a package cycle
    from repro.faults.config import FaultConfig
    from repro.faults.incidents import IncidentSchedule
    from repro.faults.schedule import FaultSchedule


@dataclass
class EnvConfig:
    """Environment parameters (paper Section VI-A defaults)."""

    delta_t: int = 5
    yellow_time: int = 2
    coverage: float = DEFAULT_COVERAGE_M
    horizon_ticks: int = 2700
    max_ticks: int = 14400
    drain: bool = False
    reward_scale: float = DEFAULT_REWARD_SCALE
    saturation_rate: float = DEFAULT_SATURATION_RATE
    startup_lost_time: float = DEFAULT_STARTUP_LOST_TIME
    stochastic_demand: bool = True
    #: Simulation backend.  ``"soa"``, the production engine, runs a
    #: one-replica :class:`repro.sim.soa.SoAEngine` whose static tables
    #: come from a per-network memo.  ``"object"`` is the reference
    #: object-per-vehicle :class:`Simulation`, bit-exact with it and kept
    #: as the test oracle.  See DESIGN.md "SoA engine".
    engine: str = "soa"
    #: Optional fault injection (see :mod:`repro.faults`); ``None`` = healthy.
    faults: FaultConfig | None = None
    #: Optional scheduled lane/link closures
    #: (:class:`repro.faults.incidents.IncidentSchedule`), attached to the
    #: simulation each episode.  The schedule is stateless, so sharing one
    #: object across episodes and engines is safe.
    incidents: IncidentSchedule | None = None
    #: Graceful sensing degradation: impute dropped detector readings
    #: from last-known values.  ``False`` is the no-fallback ablation.
    fault_degrade: bool = True

    def __post_init__(self) -> None:
        if self.delta_t <= 0:
            raise ConfigError("delta_t must be positive")
        if self.horizon_ticks <= 0 or self.max_ticks < self.horizon_ticks:
            raise ConfigError("need 0 < horizon_ticks <= max_ticks")
        if self.engine not in ("object", "soa"):
            raise ConfigError(
                f"engine must be 'object' or 'soa', got {self.engine!r}"
            )


#: ``live`` flags of a single env finishing its own step.
_LIVE = [True]


def request_actions(
    engine: SoAEngine,
    envs: list[TrafficSignalEnv],
    actions: list[dict[str, int] | None],
) -> None:
    """Request every env's phase choices on ``engine`` in one call.

    ``envs`` run on replica views of ``engine`` and ``actions[i]`` holds
    ``envs[i]``'s choices (``None``: no request for that env).  The
    choices become one ``(B, NS)`` ``request_phases(where=)`` call on the
    envs' replica rows.  All entries are validated before any is
    applied; the first invalid one, in env then dict order, raises the
    ``ConfigError`` of :meth:`TrafficSignalEnv._check_action`.
    """
    sig_of = engine._sig_of
    req = np.zeros((engine.batch, engine.NS), dtype=np.int64)
    where = np.zeros((engine.batch, engine.NS), dtype=bool)
    for env, acts in zip(envs, actions):
        if acts:
            b = env.sim.b
            cols = [sig_of[node_id] for node_id in acts]
            req[b, cols] = list(map(int, acts.values()))
            where[b, cols] = True
    if (where & ((req < 0) | (req >= engine._num_phases))).any():
        for env, acts in zip(envs, actions):
            for node_id, action in (acts or {}).items():
                env._check_action(node_id, action)
    engine.request_phases(req, where=where)


@dataclass
class StepResult:
    """Outcome of one environment step (all keyed by agent/node id)."""

    observations: dict[str, np.ndarray]
    rewards: dict[str, float]
    done: bool
    info: dict = field(default_factory=dict)


class TrafficSignalEnv:
    """The multi-agent TSC environment.

    Parameters
    ----------
    network:
        Validated road network.
    phase_plans:
        Phase plan per signalized node.
    flows:
        Demand flows (copied fresh each reset).
    config:
        Environment parameters.
    seed:
        Base seed; episode ``k`` after construction uses ``seed + k`` for
        demand randomisation unless ``reset(seed=...)`` overrides it.
    """

    def __init__(
        self,
        network: RoadNetwork,
        phase_plans: dict[str, PhasePlan],
        flows: list[Flow],
        config: EnvConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.phase_plans = phase_plans
        self.flows = flows
        self.config = config or EnvConfig()
        if self.config.incidents is not None:
            for link in self.config.incidents.links:
                if link not in network.links:
                    raise ConfigError(f"incident on unknown link {link!r}")
        self._base_seed = seed
        self._episode_count = 0
        self.router = Router(network)
        self.agent_ids: list[str] = sorted(network.signalized_nodes())
        self.obs_builder = ObservationBuilder(network)
        self.observation_spaces: dict[str, BoxSpace] = {
            node_id: BoxSpace(self.obs_builder.obs_dim(node_id))
            for node_id in self.agent_ids
        }
        self.action_spaces: dict[str, DiscreteSpace] = {
            node_id: DiscreteSpace(phase_plans[node_id].num_phases)
            for node_id in self.agent_ids
        }
        self.sim: Simulation | None = None
        self.detectors: DetectorSuite | None = None
        self._pressure_cache_time = -1
        self._pressure_cache: dict[str, np.ndarray] = {}
        #: B=1 step finisher over this env's own engine (see
        #: :mod:`repro.eval.batched_obs`); ``None`` runs the per-agent
        #: reference path (fault-injecting detectors, non-uniform slot
        #: layouts, and lockstep members, whose group finishes them).
        self._extractor = None
        self.fault_schedule: FaultSchedule | None = None
        if self.config.faults is not None and self.config.faults.active:
            from repro.faults.schedule import FaultSchedule as _FaultSchedule

            self.fault_schedule = _FaultSchedule(self.config.faults, seed=seed)
        #: Optional telemetry sink (see :meth:`attach_telemetry`).
        self._telemetry = None
        self._teleports_seen = 0

    # ------------------------------------------------------------------
    # Topology helpers used by coordinated agents
    # ------------------------------------------------------------------
    def neighbours(self, node_id: str) -> list[str]:
        return self.network.neighbours(node_id)

    def upstream_neighbours(self, node_id: str) -> list[str]:
        return self.network.upstream_neighbours(node_id)

    def two_hop_neighbours(self, node_id: str) -> list[str]:
        return self.network.two_hop_neighbours(node_id)

    @property
    def homogeneous(self) -> bool:
        """Whether all agents share observation/action space shapes."""
        obs_dims = {space.dim for space in self.observation_spaces.values()}
        act_dims = {space.n for space in self.action_spaces.values()}
        return len(obs_dims) == 1 and len(act_dims) == 1

    # ------------------------------------------------------------------
    # Telemetry (opt-in; zero overhead and zero RNG impact when unset)
    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Stream env/sim/fault observability into ``telemetry``.

        Wires the metric registry into the simulation engine, surfaces
        teleport events, and routes the fault schedule's activation
        events into the sink.  Everything here only *reads* state —
        no RNG stream is ever touched, so an instrumented run is
        bit-exact with an uninstrumented one.
        """
        self._telemetry = telemetry
        if self.fault_schedule is not None:
            self.fault_schedule.event_sink = telemetry
        if self.sim is not None:
            self.sim.metrics = telemetry.metrics
            self._teleports_seen = self.sim.teleport_count

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> dict[str, np.ndarray]:
        """Start a fresh episode and return initial observations."""
        if seed is None:
            seed = self._base_seed + self._episode_count
        self._episode_count += 1
        demand = self._fresh_demand(seed)
        if self.config.engine == "soa":
            engine = SoAEngine(
                self.network, [demand], self.phase_plans, **self._engine_options()
            )
            sim = engine.view(0)
        else:
            sim = engine = Simulation(
                self.network, demand, self.phase_plans, **self._engine_options()
            )
        self._adopt_sim(sim, seed)
        from repro.eval.batched_obs import BatchedStepExtractor

        self._extractor = BatchedStepExtractor.maybe_build([self], engine)
        return self._observe_all()

    def _engine_options(self) -> dict:
        """The engine settings this env's config fixes."""
        cfg = self.config
        return {
            "yellow_time": cfg.yellow_time,
            "saturation_rate": cfg.saturation_rate,
            "startup_lost_time": cfg.startup_lost_time,
        }

    def _fresh_demand(self, seed: int) -> DemandGenerator:
        """A fresh seeded generator over copies of this env's flows."""
        return DemandGenerator(
            [Flow(f.name, f.origin_link, f.destination_link, f.profile) for f in self.flows],
            self.router,
            seed=seed,
            stochastic=self.config.stochastic_demand,
        )

    def _adopt_sim(self, sim, seed: int) -> None:
        """Install ``sim`` (a Simulation or an SoA replica view) as this
        episode's backend.  Also the entry point for
        :class:`repro.eval.batched.LockstepEnvGroup`, which hands every
        env a replica view of one shared engine and finishes the group's
        steps itself."""
        self.sim = sim
        self._extractor = None
        if self.config.incidents is not None:
            self.sim.incidents = self.config.incidents
        if self._telemetry is not None:
            self.sim.metrics = self._telemetry.metrics
            self._teleports_seen = 0
        if self.fault_schedule is not None:
            self.fault_schedule.begin_episode(seed)
        if self.fault_schedule is not None and self.config.faults.any_detector_faults:
            from repro.faults.detectors import FaultyDetectorSuite

            self.detectors = FaultyDetectorSuite(
                self.sim,
                self.fault_schedule,
                coverage=self.config.coverage,
                degrade=self.config.fault_degrade,
            )
        else:
            self.detectors = DetectorSuite(self.sim, coverage=self.config.coverage)

    def step(self, actions: dict[str, int]) -> StepResult:
        """Apply one phase decision per agent and advance ``delta_t`` s."""
        if self.sim is None:
            raise ConfigError("call reset() before step()")
        with TIMERS.section("env_step/apply"):
            self._apply_actions(actions)
        with TIMERS.section("env_step/engine"):
            self.sim.step(self.config.delta_t)
        with TIMERS.section("env_step/extract"):
            return self._finish_step()

    def _apply_actions(self, actions: dict[str, int]) -> None:
        """Validate and request this step's phase choices (no stepping).

        On an SoA replica this is :func:`request_actions` for one env;
        the per-node loop is the object engine's reference.  Either way
        every choice is validated before any is applied."""
        if isinstance(self.sim, SoAReplicaView):
            request_actions(self.sim.engine, [self], [actions])
            return
        for node_id, action in actions.items():
            self._check_action(node_id, action)
        for node_id, action in actions.items():
            self.sim.set_phase(node_id, int(action))

    def _check_action(self, node_id: str, action: int) -> None:
        if not self.action_spaces[node_id].contains(int(action)):
            raise ConfigError(
                f"invalid action {action!r} for agent {node_id!r} "
                f"({self.action_spaces[node_id].n} phases)"
            )

    def _finish_step(self) -> StepResult:
        """Observe/reward/report after the simulator advanced ``delta_t``.

        Split from :meth:`step` so ``LockstepEnvGroup`` can advance a
        shared batched engine once and then finish every member env.
        With a B=1 extractor the whole step finishes in its vectorized
        pass; the per-agent code below is the reference it is pinned to."""
        if self._extractor is not None:
            return self._extractor.finish(_LIVE)[0]
        observations = self._observe_all()
        rewards = all_rewards(self.sim, self.agent_ids, self.config.reward_scale)
        done = self._is_done()
        info = {
            "time": self.sim.time,
            "vehicles_in_network": self.sim.vehicles_in_network(),
            "pending_insertions": self.sim.pending_insertions(),
            "average_wait": network_average_wait(self.sim),
        }
        if done:
            info["average_travel_time"] = average_travel_time(self.sim)
            info["finished_vehicles"] = len(self.sim.finished_vehicles)
            info["total_created"] = self.sim.total_created
        self._record_step(done, info["vehicles_in_network"])
        return StepResult(observations, rewards, done, info)

    def _record_step(self, done: bool, vehicles_in_network: int) -> None:
        """Step telemetry: the ``env.steps`` count, teleport events and
        the end-of-episode gauges.  A no-op without a telemetry sink.

        Shared by :meth:`_finish_step` and the batched step finisher
        (:meth:`repro.eval.batched_obs.BatchedStepExtractor.finish_all`),
        so attaching telemetry records the same thing on both paths.
        """
        telemetry = self._telemetry
        if telemetry is None:
            return
        telemetry.metrics.count("env.steps")
        if self.sim.teleport_count != self._teleports_seen:
            telemetry.teleport(
                self.sim.time, self.sim.teleport_count - self._teleports_seen
            )
            self._teleports_seen = self.sim.teleport_count
        if done:
            telemetry.metrics.gauge("env.last_episode_ticks", self.sim.time)
            telemetry.metrics.gauge(
                "env.last_vehicles_in_network", vehicles_in_network
            )

    def _is_done(self) -> bool:
        assert self.sim is not None
        if self.config.drain:
            if self.sim.time >= self.config.max_ticks:
                return True
            return self.sim.time >= self.config.horizon_ticks and self.sim.is_drained()
        return self.sim.time >= self.config.horizon_ticks

    # ------------------------------------------------------------------
    # Observation plumbing
    # ------------------------------------------------------------------
    def _observe_all(self) -> dict[str, np.ndarray]:
        assert self.detectors is not None
        if self._extractor is not None:
            return self._extractor.observe()[0]
        return {
            node_id: self.obs_builder.build(self.detectors, node_id)
            for node_id in self.agent_ids
        }

    def link_pressures(self, node_id: str) -> np.ndarray:
        """Per-approach pressures of one intersection (critic input).

        Cached per tick: centralized critics query overlapping
        neighbourhoods, so each node's pressures are computed once.
        """
        assert self.detectors is not None and self.sim is not None
        if self._pressure_cache_time != self.sim.time:
            self._pressure_cache_time = self.sim.time
            self._pressure_cache = {}
        cached = self._pressure_cache.get(node_id)
        if cached is None:
            cached = self.obs_builder.link_pressures(self.detectors, node_id)
            self._pressure_cache[node_id] = cached
        return cached

    def congestion_rows(self) -> np.ndarray | None:
        """This tick's partner-selection congestion scores as a ``(1, M)``
        row in agent order, or ``None`` when the env runs the per-agent
        reference path (then :meth:`congestion_score` is the source)."""
        extractor = self._extractor
        if extractor is None or extractor.time != self.sim.time:
            return None
        return extractor.congestion

    def congestion_score(self, node_id: str) -> float:
        """Observed congestion at a node (partner-selection ranking)."""
        assert self.detectors is not None
        return self.detectors.intersection_congestion(node_id)

    def average_travel_time(self) -> float:
        assert self.sim is not None
        return average_travel_time(self.sim)

"""Vectorized observation/reward extraction for B ≥ 1 envs of one engine.

:class:`BatchedStepExtractor` finishes an env step — detector readings,
Eq. 5 observations, Eq. 6 rewards, the network-average wait — for every
env over one engine in a single vectorized pass, instead of each env
walking the network per agent, per slot and per lane in Python.  It is
engine-agnostic: each tick it takes four inputs from the engine's
``detector_inputs()`` (per-lane queue lengths, per-lane head waits,
per-link running-vehicle counts and the running vehicles' ``run_start``
ticks) and hands them to :func:`repro.sim.detectors.bulk_readings`, the
one implementation of the bulk detector math.  Two engines supply them:

* a batched :class:`repro.sim.soa.SoAEngine` for the B replicas of a
  :class:`repro.eval.batched.LockstepEnvGroup` (``finish_all``), and
* a single env's own engine at B=1 — the object :class:`Simulation` or a
  one-replica SoA engine — for the serial ``TrafficSignalEnv.step`` and
  its reset-time observations.

The bit-exactness strategy piggybacks on the detector bulk cache:
``DetectorSuite`` memoizes its per-tick bulk arrays (``_bulk_app`` …
``_bulk_ic``) keyed by ``sim.time``, and every observed quantity is a
lookup into them.  The extractor injects each env's row into its
detector suite, so every downstream consumer — critic pressures, the
max-pressure fallback, the per-agent partner-selection reference —
reads identical values through the unchanged per-env API.  The array
consumers read the per-tick products directly: :attr:`congestion`
(``(B, M)`` partner-selection scores), :attr:`pressures` and
:attr:`observations`.

Eligibility is conservative (:meth:`BatchedStepExtractor.maybe_build`):
an env with a subclassed detector suite (fault injection draws RNG on
every read) or a non-uniform observation layout keeps the reference
per-agent path (``TrafficSignalEnv._observe_all`` and ``_finish_step``'s
reference branch), which remains the oracle for the equivalence tests.
Attached telemetry does not disqualify: both paths record each step
through ``TrafficSignalEnv._record_step``.

Where a greedy B=8 rollout spends its time — a traced benchmark run,
``python3 perfbench/run.py --workload rollout_6x6_shared_b8 --seed 2
--seconds 16 --trace 1`` on a 2-vCPU host — is recorded with the
serial serve tick's breakdown in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.env.observation import FEATURES_PER_APPROACH
from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.sim.detectors import DetectorSuite, bulk_readings
from repro.sim.engine import Simulation
from repro.sim.metrics import average_travel_time
from repro.sim.network import VEHICLE_SPACE_M
from repro.sim.soa import SoAEngine, SoAReplicaView


class BatchedStepExtractor:
    """Finishes B envs' steps over one engine in one vectorized pass.

    Built fresh per episode (detector suites are rebuilt on reset) from
    static index arrays memoized on the network, so a reset rebuilds no
    index.  Every env's ``DetectorSuite`` is over the same network and
    coverage, so they share those arrays.  The extractor holds the envs
    but never their simulations or detector suites: both are read from
    the envs each tick, so replacing ``env.sim`` frees the old one.
    """

    def __init__(self, envs: list[TrafficSignalEnv]) -> None:
        self.envs = envs
        head = envs[0]
        det = head.detectors
        self.index = det._bulk_index
        self.coverage = det.coverage
        self.reward_scale = head.config.reward_scale
        self.B = len(envs)
        builder = head.obs_builder
        self.norm_p = max(1.0, self.coverage / VEHICLE_SPACE_M)
        self.wait_norm = builder.wait_normaliser
        (
            self.agent_ids,
            self._slot_idx,
            self._slot_mask,
            self._agent_lanes,
            self._agent_lane_start,
            self._agent_node,
        ) = _static_index(head)
        self.M = len(self.agent_ids)
        self.num_slots = self._slot_idx.shape[1]

        #: Tick of the latest per-tick products below.
        self.time = -1
        #: Partner-selection congestion scores in agent order: the
        #: ``_bulk_ic`` entry ``env.congestion_score`` would read.
        self.congestion = np.zeros((self.B, self.M))
        self.pressures: np.ndarray | None = None  # (B, M, S)
        self.observations: np.ndarray | None = None  # (B, M, 2S)

    # ------------------------------------------------------------------
    @staticmethod
    def maybe_build(
        envs: list[TrafficSignalEnv], engine
    ) -> "BatchedStepExtractor | None":
        """Build an extractor iff the fast path is exactly equivalent.

        ``engine`` is what advances the envs: a batched ``SoAEngine``
        with one replica per env, or one env's own ``Simulation``.
        """
        if isinstance(engine, SoAEngine):
            if engine.batch != len(envs):
                return None
        elif type(engine) is not Simulation or len(envs) != 1:
            return None  # e.g. sharded engines
        head = envs[0]
        slots0 = head.obs_builder._slots
        widths = {len(s) for s in slots0.values()}
        if len(widths) != 1:
            return None
        for env in envs:
            if type(env.detectors) is not DetectorSuite:
                return None  # fault-injecting suites bypass bulk mode
            if env.agent_ids != head.agent_ids:
                return None
            if (
                env.config.coverage != head.config.coverage
                or env.config.reward_scale != head.config.reward_scale
            ):
                return None
            if env.obs_builder._slots != slots0:
                return None
        return BatchedStepExtractor(envs)

    # ------------------------------------------------------------------
    def finish_all(self, live: list[bool]) -> list[StepResult | None]:
        """Equivalent of ``env._finish_step()`` for every live env: the
        lockstep group's entry point.  A serial env calls :meth:`finish`
        directly, so its extraction counts as part of its own step."""
        return self.finish(live)

    def observe(self) -> list[dict[str, np.ndarray]]:
        """Every env's observations at the current tick (reset time)."""
        self._extract([True] * self.B)
        return [dict(zip(self.agent_ids, rows)) for rows in self.observations]

    def finish(self, live: list[bool]) -> list[StepResult | None]:
        """Observations, rewards and info of every live env after a step;
        ``None`` for the others (drained lockstep replicas)."""
        qlen, lane_wait = self._extract(live)
        halts = np.add.reduceat(
            qlen[:, self._agent_lanes], self._agent_lane_start, axis=1
        )
        maxw = np.maximum.reduceat(
            lane_wait[:, self._agent_lanes], self._agent_lane_start, axis=1
        )
        rewards_mat = -self.reward_scale * (halts + maxw)

        results: list[StepResult | None] = []
        agent_ids = self.agent_ids
        for b, env in enumerate(self.envs):
            if not live[b]:
                results.append(None)
                continue
            sim = env.sim
            done = env._is_done()
            info = {
                "time": sim.time,
                "vehicles_in_network": sim.vehicles_in_network(),
                "pending_insertions": sim.pending_insertions(),
                "average_wait": float(np.mean(maxw[b])),
            }
            if done:
                info["average_travel_time"] = average_travel_time(sim)
                info["finished_vehicles"] = len(sim.finished_vehicles)
                info["total_created"] = sim.total_created
            env._record_step(done, info["vehicles_in_network"])
            results.append(
                StepResult(
                    dict(zip(agent_ids, self.observations[b])),
                    dict(zip(agent_ids, rewards_mat[b].tolist())),
                    done,
                    info,
                )
            )
        return results

    # ------------------------------------------------------------------
    def _extract(self, live: list[bool]) -> tuple[np.ndarray, np.ndarray]:
        """Run the bulk pass for this tick, inject every live env's row
        into its detector suite, and refresh the per-tick products.
        Returns the ``(B, NL)`` per-lane queue lengths and head waits."""
        envs = self.envs
        sim = envs[0].sim
        now = sim.time
        engine = sim.engine if isinstance(sim, SoAReplicaView) else sim
        qlen, lane_wait, counts, run_start = engine.detector_inputs()
        readings = bulk_readings(self.index, self.coverage, now, qlen, counts, run_start)
        for b, env in enumerate(envs):
            if live[b]:
                env.detectors._inject(readings, b, now)
        lp, ic = readings[4], readings[6]
        self.congestion[...] = ic[:, self._agent_node]
        link_wait = np.maximum.reduceat(
            lane_wait, self.index["_link_lane_start"], axis=1
        )
        self._build_observations(lp, link_wait)
        # Pre-populate each live env's per-tick pressure cache so the
        # critic's neighbourhood queries are dictionary lookups.
        for b, env in enumerate(envs):
            if live[b]:
                env._pressure_cache_time = now
                env._pressure_cache = dict(zip(self.agent_ids, self.pressures[b]))
        self.time = now
        return qlen, lane_wait

    def _build_observations(self, lp_mat: np.ndarray, link_wait: np.ndarray) -> None:
        """Eq. 5 observations and per-slot pressures for every env.

        Freshly allocated each tick: the rollout buffer stores these
        arrays by reference.
        """
        idx = self._slot_idx
        mask = self._slot_mask
        press = np.where(mask, lp_mat[:, idx] / self.norm_p, 0.0)
        waitf = np.where(mask, link_wait[:, idx] / self.wait_norm, 0.0)
        obs = np.empty(
            (self.B, self.M, self.num_slots * FEATURES_PER_APPROACH),
            dtype=np.float64,
        )
        obs[..., 0::2] = press
        obs[..., 1::2] = waitf
        self.pressures = press
        self.observations = obs


def _static_index(env: TrafficSignalEnv) -> tuple:
    """The extractor's static arrays for ``env``'s network and slot
    layout, memoized on the network beside the detector index
    (``RoadNetwork.add_*`` clears both)."""
    builder = env.obs_builder
    det = env.detectors
    memo = env.network.detector_memo
    key = ("step_extractor", builder.num_slots)
    static = memo.get(key)
    if static is not None:
        return static
    agent_ids = tuple(env.agent_ids)
    # Observation slots: per agent, the link index feeding each compass
    # slot (masked where the slot is empty).  Uniform width is an
    # eligibility precondition.
    num_slots = len(builder._slots[agent_ids[0]])
    slot_idx = np.zeros((len(agent_ids), num_slots), dtype=np.intp)
    slot_mask = np.zeros((len(agent_ids), num_slots), dtype=bool)
    for m, node_id in enumerate(agent_ids):
        for s, link_id in enumerate(builder._slots[node_id]):
            if link_id is not None:
                slot_idx[m, s] = det._link_index[link_id]
                slot_mask[m, s] = True
    # Reward (Eq. 6) lane groups: the incoming lanes of each agent node,
    # flattened in the reference iteration order (a link's lanes are
    # contiguous in lane order, starting at its ``_link_lane_start``).
    lane_start = det._link_lane_start
    agent_lanes: list[int] = []
    starts: list[int] = []
    for node_id in agent_ids:
        starts.append(len(agent_lanes))
        for link_id in det._node_incoming[node_id]:
            first = int(lane_start[det._link_index[link_id]])
            agent_lanes.extend(range(first, first + len(det._link_geom[link_id][2])))
    static = memo[key] = (
        agent_ids,
        slot_idx,
        slot_mask,
        np.asarray(agent_lanes, dtype=np.intp),
        np.asarray(starts, dtype=np.intp),
        np.asarray([det._node_index[a] for a in agent_ids], dtype=np.intp),
    )
    return static

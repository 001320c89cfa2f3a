"""Vectorized cross-replica observation/reward extraction.

``LockstepEnvGroup.step_all`` used to finish every member env with the
per-env ``TrafficSignalEnv._finish_step`` loop: each replica walked the
whole network in Python (detector bulk pass, observation build, Eq. 6
rewards, network-average wait) through its ``SoAReplicaView``.

This module replaces the loop with one vectorized pass over the SoA
engine's flat arrays for all B replicas at once.  Where a greedy B=8
rollout spends its time with it in place — a traced benchmark run,
``python3 perfbench/run.py --workload rollout_6x6_shared_b8 --seed 2
--seconds 16 --trace 1`` on a 2-vCPU host, self seconds over 1620
lockstep ticks: policy acting (``BatchedPolicyGroup.act_all``) 3.82,
this extractor (``finish_all``) 2.87, ``SoAEngine.step`` 1.05,
``reset_all`` 0.74, ``step_all`` 0.35.  EXPERIMENTS.md records the run.

The bit-exactness strategy piggybacks on the detector bulk cache: ``DetectorSuite``
memoizes its per-tick bulk arrays (``_bulk_app`` … ``_bulk_ic``) keyed by
``sim.time``, and every observed quantity is a lookup into them.  The
extractor computes those arrays for all replicas with the *same*
element-for-element operations as ``DetectorSuite._bulk_compute`` (same
index arrays, same ``np.add.at`` accumulation order per replica, same
int/float conversions) and injects each replica's slice into its env's
detector.  Every downstream consumer — observation builder, critic
pressures, the per-agent partner-selection reference — then reads
identical values through the unchanged per-env API.  The batched
policy path reads the congestion scores as one ``(B, M)`` matrix
instead: :attr:`BatchedStepExtractor.congestion`.

Eligibility is conservative: any env with a subclassed detector suite
(fault injection) or a non-uniform observation layout falls back to the
reference per-env ``_finish_step`` path, which remains the oracle for
the equivalence tests.  Attached telemetry does not disqualify: both
paths record each step through ``TrafficSignalEnv._record_step``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.env.observation import FEATURES_PER_APPROACH
from repro.env.tsc_env import StepResult, TrafficSignalEnv
from repro.sim.detectors import DetectorSuite
from repro.sim.metrics import average_travel_time
from repro.sim.soa import SoAEngine


class BatchedStepExtractor:
    """Finishes all replicas' env steps in one vectorized pass.

    Built fresh per episode (detector suites are rebuilt on reset); all
    static index arrays are borrowed from the first env's detectors,
    which is sound because every replica view shares the engine's single
    network object, so every env's ``DetectorSuite`` builds identical
    indexes.
    """

    def __init__(self, envs: list[TrafficSignalEnv], engine: SoAEngine) -> None:
        self.envs = envs
        self.engine = engine
        det = envs[0].detectors
        assert type(det) is DetectorSuite
        self.det0 = det
        self.coverage = det.coverage
        self.visible_slots = det._visible_slots
        self.reward_scale = envs[0].config.reward_scale
        self.B = engine.batch
        self.NL = engine.NL
        self.LK = engine.LK
        self.NM = len(det._mv_index)
        self.NN = len(det._node_order)
        self.agent_ids = list(envs[0].agent_ids)
        self.M = len(self.agent_ids)

        self._link_lane_start = np.asarray(engine._link_lane_start, dtype=np.intp)
        self._link_arange = np.arange(self.LK, dtype=np.intp)
        self._speed = np.asarray(engine._speed, dtype=np.float64)
        self._length = np.asarray(engine._length, dtype=np.float64)
        # Per-lane spillback threshold, in detector lane order (== engine
        # lane order: both are link-major over network.links).
        thr = []
        for link_id in det._link_order:
            geom = det._link_geom[link_id]
            thr.extend([geom[3]] * len(geom[2]))
        self._thr_lane = np.asarray(thr, dtype=np.float64)

        # Observation slots: per agent, the link index feeding each
        # compass slot (-1 = empty slot).  Uniform width is an
        # eligibility precondition.
        builder = envs[0].obs_builder
        self.num_slots = len(builder._slots[self.agent_ids[0]])
        slot_idx = np.zeros((self.M, self.num_slots), dtype=np.intp)
        slot_mask = np.zeros((self.M, self.num_slots), dtype=bool)
        for m, node_id in enumerate(self.agent_ids):
            for s, link_id in enumerate(builder._slots[node_id]):
                if link_id is not None:
                    slot_idx[m, s] = det._link_index[link_id]
                    slot_mask[m, s] = True
        self._slot_idx = slot_idx
        self._slot_mask = slot_mask
        from repro.sim.network import VEHICLE_SPACE_M

        self.norm_p = max(1.0, self.coverage / VEHICLE_SPACE_M)
        self.wait_norm = builder.wait_normaliser

        # Reward (Eq. 6) lane groups: the incoming lanes of each agent
        # node, flattened in the reference iteration order.
        network = det.sim.network
        agent_lanes: list[int] = []
        starts: list[int] = []
        lane_index = {l: i for i, l in enumerate(det._lane_order)}
        for node_id in self.agent_ids:
            starts.append(len(agent_lanes))
            for link_id in network.nodes[node_id].incoming:
                for lane in network.links[link_id].lanes:
                    agent_lanes.append(lane_index[lane.lane_id])
        self._agent_lanes = np.asarray(agent_lanes, dtype=np.intp)
        self._agent_lane_start = np.asarray(starts, dtype=np.intp)

        # Latest per-tick products, exposed for the batched policy path.
        self.pressures: np.ndarray | None = None  # (B, M, S)
        self.observations: np.ndarray | None = None  # (B, M, 2S)
        # Partner-selection congestion scores in agent order: the
        # ``_bulk_ic`` entry ``env.congestion_score`` would read.  Filled
        # here from the reset-time bulk pass (tick 0), then per tick for
        # every live replica by ``_bulk_replica``.
        self._agent_node = np.asarray(
            [det._node_index[a] for a in self.agent_ids], dtype=np.intp
        )
        self.congestion = np.empty((self.B, self.M))  # (B, M)
        for b, env in enumerate(envs):
            env.detectors._bulk_ready()
            self.congestion[b] = env.detectors._bulk_ic[self._agent_node]

    # ------------------------------------------------------------------
    @staticmethod
    def maybe_build(
        envs: list[TrafficSignalEnv], engine: SoAEngine
    ) -> "BatchedStepExtractor | None":
        """Build an extractor iff the fast path is exactly equivalent."""
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
        return BatchedStepExtractor(envs, engine)

    # ------------------------------------------------------------------
    def finish_all(self, live: list[bool]) -> list[StepResult | None]:
        """Equivalent of ``env._finish_step()`` for every live replica."""
        engine = self.engine
        B, NL, LK = self.B, self.NL, self.LK
        now = engine.time

        qlen = np.fromiter(
            map(len, engine._queues), dtype=np.int64, count=B * NL
        ).reshape(B, NL)
        lane_wait = np.where(
            engine._head_row != engine.EMPTY_ROW, now - engine._head_anchor, 0
        ).reshape(B, NL)
        link_wait = np.maximum.reduceat(lane_wait, self._link_lane_start, axis=1)

        lp_mat = np.empty((B, LK), dtype=np.float64)
        for b in range(B):
            if live[b]:
                lp_mat[b] = self._bulk_replica(b, qlen[b], now)

        obs, press = self._build_observations(lp_mat, link_wait)
        self.pressures = press
        self.observations = obs

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
            # Pre-populate the per-tick pressure cache so the critic's
            # neighbourhood queries are dictionary lookups.
            env._pressure_cache_time = now
            env._pressure_cache = {
                node_id: press[b, m] for m, node_id in enumerate(agent_ids)
            }
            observations = {
                node_id: obs[b, m] for m, node_id in enumerate(agent_ids)
            }
            rewards = {
                node_id: float(rewards_mat[b, m])
                for m, node_id in enumerate(agent_ids)
            }
            done = env._is_done()
            info = {
                "time": now,
                "vehicles_in_network": engine._inserted_cnt[b]
                - engine._finished_cnt[b],
                "pending_insertions": engine._arr_ptr[b]
                - engine._inserted_cnt[b],
                "average_wait": float(np.mean(maxw[b])),
            }
            if done:
                info["average_travel_time"] = average_travel_time(env.sim)
                info["finished_vehicles"] = len(env.sim.finished_vehicles)
                info["total_created"] = env.sim.total_created
            env._record_step(done, info["vehicles_in_network"])
            results.append(StepResult(observations, rewards, done, info))
        return results

    # ------------------------------------------------------------------
    def _bulk_replica(self, b: int, qlen_b: np.ndarray, now: int) -> np.ndarray:
        """Mirror of ``DetectorSuite._bulk_compute`` for replica ``b``.

        Replaces the Python per-link/per-vehicle scans with numpy kernels
        while preserving every accumulation order and scalar conversion,
        then injects the arrays into the env's detector cache.  Returns
        the link-pressure row (reused by the observation assembly).
        """
        det = self.envs[b].detectors
        engine = self.engine
        LK = self.LK
        coverage = self.coverage

        queue_obs = np.minimum(qlen_b, self.visible_slots)

        running_b = engine._running[b]
        counts = np.fromiter(map(len, running_b), dtype=np.int64, count=LK)
        total = int(counts.sum())
        if total:
            vids = np.fromiter(
                chain.from_iterable(running_b), dtype=np.int64, count=total
            )
            run_start = engine._v_run_start[b]
            starts = np.fromiter(
                map(run_start.__getitem__, vids.tolist()),
                dtype=np.int64,
                count=total,
            )
            link_rep = np.repeat(self._link_arange, counts)
            travelled = self._speed[link_rep] * (now - starts)
            # max(0, length - travelled) <= coverage  <=>  the plain
            # comparison, because coverage > 0.
            app_mask = (self._length[link_rep] - travelled) <= coverage
            near_mask = travelled <= coverage
            app = np.bincount(
                link_rep[app_mask], minlength=LK
            ).astype(np.int64)
            down = np.bincount(
                link_rep[near_mask], minlength=LK
            ).astype(np.int64)
        else:
            app = np.zeros(LK, dtype=np.int64)
            down = np.zeros(LK, dtype=np.int64)

        overflow = qlen_b - self._thr_lane
        spill = np.where(overflow > 0, overflow.astype(np.int64), 0)
        down = down + np.add.reduceat(spill, self._link_lane_start)

        onl = np.add.reduceat(queue_obs, self._link_lane_start) + app

        incoming = np.zeros(self.NM)
        np.add.at(
            incoming, det._in_mv, queue_obs[det._in_lane] / det._in_sharers
        )
        incoming += (app[det._mv_in_link] / det._mv_in_count) * det._mv_in_scale
        mp = incoming - down[det._mv_out_link] / det._mv_out_lanes
        lp = np.zeros(LK)
        np.add.at(lp, det._lp_link, mp[det._lp_mv])
        ip = np.zeros(self.NN)
        np.add.at(ip, det._ip_node, np.abs(mp[det._ip_mv]))
        ic = np.zeros(self.NN, dtype=np.int64)
        np.add.at(ic, det._ic_node, onl[det._ic_link])

        det._bulk_app = app
        det._bulk_down = down
        det._bulk_onl = onl
        det._bulk_mp = mp
        det._bulk_lp = lp
        det._bulk_ip = ip
        det._bulk_ic = ic
        det._bulk_time = now
        self.congestion[b] = ic[self._agent_node]
        return lp

    # ------------------------------------------------------------------
    def _build_observations(
        self, lp_mat: np.ndarray, link_wait: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 5 observations and per-slot pressures for every replica.

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
        return obs, press

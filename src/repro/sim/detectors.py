"""Range-limited sensing: loop detectors / lane-area detectors / cameras.

The paper stresses (Fig. 2 and Section IV-A) that real sensors only cover
a finite stretch of road — 50 m in their 6x6 grid — and that states built
from such partial observations must therefore use *pressure* rather than
raw queue length.  This module computes exactly those observed
quantities: vehicles visible within ``coverage`` metres of a stop line,
per lane, per movement (with equal splitting for shared lanes), and the
resulting link- and intersection-level pressures.

Readings are memoized per simulation tick: the simulation only changes
state inside :meth:`Simulation.step`, so any quantity queried twice at
the same ``sim.time`` is identical.  Subclasses whose readings are *not*
pure functions of simulation state (fault injection consumes RNG on
every read) must set ``_cache_enabled = False``.

The exact base class computes a whole tick at once (*bulk mode*):
:func:`bulk_readings` turns four engine inputs — per-lane queue
lengths, per-link running counts and the running vehicles' ``run_start``
ticks (from ``sim.detector_inputs()``; head waits are the fourth, used
by the observation extractor) — into every link, movement and node
reading for ``B >= 1`` replicas in numpy kernels.  It is the only
implementation of the bulk math: a suite's own per-tick pass runs it at
B=1, and :class:`repro.eval.batched_obs.BatchedStepExtractor` runs it
for a whole engine and injects each replica's row.  The per-call
``_*_raw`` methods are the reference it is pinned to.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import Simulation
from repro.sim.network import VEHICLE_SPACE_M, Movement, RoadNetwork

#: Detector coverage used by the paper's 6x6 grid (metres from stop line).
DEFAULT_COVERAGE_M = 50.0


class DetectorSuite:
    """Computes observed traffic quantities for one simulation.

    Parameters
    ----------
    sim:
        The live simulation to observe.
    coverage:
        Sensing range in metres measured upstream from each stop line
        (and downstream from each link entry, for outgoing observation).
    """

    def __init__(self, sim: Simulation, coverage: float = DEFAULT_COVERAGE_M) -> None:
        if coverage <= 0:
            raise SimulationError("detector coverage must be positive")
        self.sim = sim
        self.coverage = coverage
        # Bulk mode computes every link/movement/node quantity of a tick
        # in one vectorized pass.  It replicates the raw computations
        # element-for-element (including float accumulation order), but
        # it bypasses the overridable ``observed_*`` methods — so it is
        # restricted to the exact base class.
        self._bulk_enabled = type(self) is DetectorSuite
        # Static per-network lookups (and, in bulk mode, the bulk index
        # arrays), resolved once per network so the per-tick hot path
        # does no list comprehensions or property formatting.  They are
        # read-only and shared by every suite over the same network.
        index = network_index(sim.network, coverage, bulk=self._bulk_enabled)
        vars(self).update(index)
        if self._bulk_enabled:
            self._bulk_index = index
        # Per-tick memo: valid only while ``sim.time`` is unchanged.
        self._cache_enabled = True
        self._cache_time = -1
        self._cache: dict[object, float | int] = {}
        self._bulk_time = -1

    def _bulk_compute(self) -> None:
        """One vectorized pass over the whole network for this tick."""
        qlen, _, counts, run_start = self.sim.detector_inputs()
        now = self.sim.time
        self._inject(
            bulk_readings(self._bulk_index, self.coverage, now, qlen, counts, run_start),
            0,
            now,
        )

    def _inject(self, readings: tuple[np.ndarray, ...], b: int, now: int) -> None:
        """Adopt row ``b`` of :func:`bulk_readings` as this tick's cache."""
        (
            self._bulk_app,
            self._bulk_down,
            self._bulk_onl,
            self._bulk_mp,
            self._bulk_lp,
            self._bulk_ip,
            self._bulk_ic,
        ) = (array[b] for array in readings)
        self._bulk_time = now

    def _bulk_ready(self) -> bool:
        if self._bulk_time != self.sim.time:
            self._bulk_compute()
        return True

    def _tick_cache(self) -> dict[object, float | int]:
        sim_time = self.sim.time
        if sim_time != self._cache_time:
            self._cache_time = sim_time
            self._cache.clear()
        return self._cache

    # ------------------------------------------------------------------
    # Lane-level observation
    # ------------------------------------------------------------------
    def observed_queue(self, lane_id: str) -> int:
        """Halted vehicles visible in a lane.

        Queued vehicles stand ``VEHICLE_SPACE_M`` apart starting at the
        stop line, so at most ``floor(coverage / VEHICLE_SPACE_M)`` are
        visible regardless of the true queue length — the sensing
        limitation the paper's Fig. 2 illustrates.
        """
        return min(self.sim.queue_length(lane_id), self._visible_slots)

    def observed_approaching(self, link_id: str) -> int:
        """Running vehicles within ``coverage`` of the link's stop line."""
        if not self._cache_enabled:
            return self._observed_approaching_raw(link_id)
        if self._bulk_enabled and self._bulk_ready():
            return int(self._bulk_app[self._link_index[link_id]])
        cache = self._tick_cache()
        key = ("app", link_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._observed_approaching_raw(link_id)
        return value

    def _observed_approaching_raw(self, link_id: str) -> int:
        length, speed_limit, _, _ = self._link_geom[link_id]
        now = self.sim.time
        coverage = self.coverage
        count = 0
        for vehicle in self.sim.running[link_id]:
            travelled = speed_limit * (now - vehicle.run_start)
            distance_to_stop = max(0.0, length - travelled)
            if distance_to_stop <= coverage:
                count += 1
        return count

    def observed_on_link(self, link_id: str) -> int:
        """All vehicles visible on a link near its stop line."""
        if not self._cache_enabled:
            return self._observed_on_link_raw(link_id)
        if self._bulk_enabled and self._bulk_ready():
            return int(self._bulk_onl[self._link_index[link_id]])
        cache = self._tick_cache()
        key = ("onl", link_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._observed_on_link_raw(link_id)
        return value

    def _observed_on_link_raw(self, link_id: str) -> int:
        lane_ids = self._link_geom[link_id][2]
        queued = sum(self.observed_queue(lane_id) for lane_id in lane_ids)
        return queued + self.observed_approaching(link_id)

    def observed_downstream(self, link_id: str) -> int:
        """Vehicles visible near the *entry* of a link (just discharged).

        Used as the outgoing-side term of pressure: a congested receiving
        link shows many vehicles still near its upstream end.
        """
        if not self._cache_enabled:
            return self._observed_downstream_raw(link_id)
        if self._bulk_enabled and self._bulk_ready():
            return int(self._bulk_down[self._link_index[link_id]])
        cache = self._tick_cache()
        key = ("down", link_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._observed_downstream_raw(link_id)
        return value

    def _observed_downstream_raw(self, link_id: str) -> int:
        _, speed_limit, lane_ids, spillback_threshold = self._link_geom[link_id]
        sim = self.sim
        now = sim.time
        coverage = self.coverage
        count = 0
        for vehicle in sim.running[link_id]:
            travelled = speed_limit * (now - vehicle.run_start)
            if travelled <= coverage:
                count += 1
        # A queue that has spilled back past (length - coverage) is visible too.
        for lane_id in lane_ids:
            overflow = sim.queue_length(lane_id) - spillback_threshold
            if overflow > 0:
                count += int(overflow)
        return count

    # ------------------------------------------------------------------
    # Movement / link pressure (paper Eq. 5 and Fig. 2)
    # ------------------------------------------------------------------
    def movement_incoming_count(self, movement: Movement) -> float:
        """Observed vehicles on the in-link attributable to a movement.

        Vehicles in a shared lane are split equally across the movements
        sharing that lane (paper Fig. 2: "If multiple movements share one
        lane, it is equally distributed to link level").
        """
        total = 0.0
        for lane_id, sharers in self._movement_lanes[movement.key]:
            total += self.observed_queue(lane_id) / sharers
        # Approaching vehicles are attributed proportionally to lane shares.
        movements_here = self._in_link_movement_count[movement.in_link]
        if movements_here:
            total += self.observed_approaching(movement.in_link) / movements_here
        return total

    def movement_pressure(self, movement: Movement) -> float:
        """Pressure of one movement: incoming minus outgoing observation,
        normalized per lane of the receiving link."""
        if not self._cache_enabled:
            return self._movement_pressure_raw(movement)
        if self._bulk_enabled and self._bulk_ready():
            return float(self._bulk_mp[self._mv_index[movement.key]])
        cache = self._tick_cache()
        key = ("mp", movement.key)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._movement_pressure_raw(movement)
        return value

    def _movement_pressure_raw(self, movement: Movement) -> float:
        outgoing = (
            self.observed_downstream(movement.out_link)
            / self._out_num_lanes[movement.out_link]
        )
        return self.movement_incoming_count(movement) - outgoing

    def link_pressure(self, link_id: str) -> float:
        """Link-level pressure: sum of its movements' pressures."""
        if not self._cache_enabled:
            return self._link_pressure_raw(link_id)
        if self._bulk_enabled and self._bulk_ready():
            return float(self._bulk_lp[self._link_index[link_id]])
        cache = self._tick_cache()
        key = ("lp", link_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._link_pressure_raw(link_id)
        return value

    def _link_pressure_raw(self, link_id: str) -> float:
        return sum(self.movement_pressure(m) for m in self._movements_from[link_id])

    def intersection_pressure(self, node_id: str) -> float:
        """Total absolute pressure at an intersection.

        Used for congestion ranking when PairUpLight picks its
        communication partner; absolute values so that both starved and
        flooded approaches register as imbalance.
        """
        if not self._cache_enabled:
            return self._intersection_pressure_raw(node_id)
        if self._bulk_enabled and self._bulk_ready():
            return float(self._bulk_ip[self._node_index[node_id]])
        cache = self._tick_cache()
        key = ("ip", node_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._intersection_pressure_raw(node_id)
        return value

    def _intersection_pressure_raw(self, node_id: str) -> float:
        return sum(
            abs(self.movement_pressure(m)) for m in self._movements_at[node_id]
        )

    def intersection_congestion(self, node_id: str) -> float:
        """Congestion score of an intersection: observed halted vehicles.

        The paper pairs each intersection with "the most congested
        upstream intersection"; this score ranks candidates.
        """
        if not self._cache_enabled:
            return self._intersection_congestion_raw(node_id)
        if self._bulk_enabled and self._bulk_ready():
            return float(self._bulk_ic[self._node_index[node_id]])
        cache = self._tick_cache()
        key = ("ic", node_id)
        value = cache.get(key)
        if value is None:
            value = cache[key] = self._intersection_congestion_raw(node_id)
        return value

    def _intersection_congestion_raw(self, node_id: str) -> float:
        return float(
            sum(
                self.observed_on_link(link_id)
                for link_id in self._node_incoming[node_id]
            )
        )

    def head_wait(self, link_id: str) -> int:
        """Waiting time of the head vehicle on a link (paper's wait term)."""
        return self.sim.link_head_wait(link_id)


def bulk_readings(
    index: dict[str, object],
    coverage: float,
    now: int,
    qlen: np.ndarray,
    counts: np.ndarray,
    run_start: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Every bulk reading of ``B`` replicas of one network in one pass.

    ``index`` is the network's bulk index (:func:`network_index` with
    ``bulk=True``).  The inputs are ``(B, NL)`` per-lane queue lengths
    in ``_lane_order``, ``(B, LK)`` running-vehicle counts per link in
    ``_link_order``, and the ``run_start`` tick of every running vehicle,
    flat in replica, link, then running order.  Returns the ``(B, ·)``
    arrays ``(app, down, onl, mp, lp, ip, ic)`` that
    :meth:`DetectorSuite._inject` adopts per replica.

    The per-vehicle comparisons, integer conversions and the
    accumulation order of every float sum are those of the raw
    ``_observed_*`` methods, so each row equals the per-call readings
    bit for bit.
    """
    batch, num_links = counts.shape
    lane_start = index["_link_lane_start"]
    queue_obs = np.minimum(qlen, index["_visible_slots"])

    link_of = np.repeat(np.arange(batch * num_links), counts.ravel())
    link = link_of % num_links if batch > 1 else link_of
    travelled = index["_link_speed"][link] * (now - run_start)
    # max(0, length - travelled) <= coverage  <=>  the plain comparison,
    # because coverage > 0.
    approaching = link_of[index["_link_length"][link] - travelled <= coverage]
    app = np.bincount(approaching, minlength=batch * num_links)
    app = app.reshape(batch, num_links)
    down = np.bincount(link_of[travelled <= coverage], minlength=batch * num_links)
    overflow = qlen - index["_lane_threshold"]
    spill = np.where(overflow > 0, overflow.astype(np.int64), 0)
    down = down.reshape(batch, num_links) + np.add.reduceat(spill, lane_start, axis=1)
    onl = np.add.reduceat(queue_obs, lane_start, axis=1) + app

    num_movements = len(index["_mv_index"])
    num_nodes = len(index["_node_order"])
    incoming = _scatter_rows(
        index["_in_mv"],
        queue_obs[:, index["_in_lane"]] / index["_in_sharers"],
        num_movements,
    )
    incoming += (
        app[:, index["_mv_in_link"]] / index["_mv_in_count"]
    ) * index["_mv_in_scale"]
    mp = incoming - down[:, index["_mv_out_link"]] / index["_mv_out_lanes"]
    lp = _scatter_rows(index["_lp_link"], mp[:, index["_lp_mv"]], num_links)
    ip = _scatter_rows(index["_ip_node"], np.abs(mp[:, index["_ip_mv"]]), num_nodes)
    ic = _scatter_rows(index["_ic_node"], onl[:, index["_ic_link"]], num_nodes)
    return app, down, onl, mp, lp, ip, ic.astype(np.int64)


def _scatter_rows(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[b, index[j]] += values[b, j]`` from zeros, ``j`` ascending.

    ``np.bincount`` accumulates sequentially in input order, exactly as
    ``np.add.at`` into zeros and as the raw methods' running sums do.
    """
    batch = values.shape[0]
    if batch == 1:
        return np.bincount(index, weights=values[0], minlength=size)[None]
    flat = (index + size * np.arange(batch)[:, None]).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=batch * size).reshape(
        batch, size
    )


def network_index(
    network: RoadNetwork, coverage: float, bulk: bool = False
) -> dict[str, object]:
    """The static lookups a :class:`DetectorSuite` needs, memoized on
    ``network`` per coverage (``RoadNetwork.add_*`` clears the memo).

    With ``bulk=True`` the bulk-mode index arrays are included.  The
    memo holds only network-derived values, never a simulation, so a
    finished episode's engine is not kept alive by it.
    """
    memo = network.detector_memo
    lookups = memo.get(coverage)
    if lookups is None:
        lookups = memo[coverage] = _build_lookups(network, coverage)
    if not bulk:
        return lookups
    key = (coverage, "bulk")
    index = memo.get(key)
    if index is None:
        index = memo[key] = {**lookups, **_build_bulk_index(network, lookups)}
    return index


def _build_lookups(network: RoadNetwork, coverage: float) -> dict[str, object]:
    link_geom: dict[str, tuple[float, float, tuple[str, ...], float]] = {}
    for link_id, link in network.links.items():
        spillback_threshold = max(0.0, link.length - coverage) / VEHICLE_SPACE_M
        link_geom[link_id] = (
            link.length,
            link.speed_limit,
            tuple(lane.lane_id for lane in link.lanes),
            spillback_threshold,
        )
    # Per movement: the (lane_id, sharer count) pairs contributing to
    # its incoming count, in the reference iteration order, with
    # zero-sharer lanes already filtered out.
    movement_lanes: dict[object, tuple[tuple[str, int], ...]] = {}
    for movement in network.movements.values():
        pairs = []
        for lane in network.lanes_for_movement(movement):
            sharers = len(network.movements_for_lane(lane))
            if sharers:
                pairs.append((lane.lane_id, sharers))
        movement_lanes[movement.key] = tuple(pairs)
    return {
        "_visible_slots": int(coverage // VEHICLE_SPACE_M),
        "_link_geom": link_geom,
        "_out_num_lanes": {
            link_id: link.num_lanes for link_id, link in network.links.items()
        },
        "_movement_lanes": movement_lanes,
        "_in_link_movement_count": {
            link_id: len(network.movements_from(link_id))
            for link_id in network.links
        },
        "_movements_from": {
            link_id: tuple(network.movements_from(link_id))
            for link_id in network.links
        },
        "_movements_at": {
            node_id: tuple(network.movements_at(node_id))
            for node_id in network.nodes
        },
        "_node_incoming": {
            node_id: tuple(node.incoming) for node_id, node in network.nodes.items()
        },
    }


def _build_bulk_index(
    network: RoadNetwork, lookups: dict[str, object]
) -> dict[str, object]:
    """Static index arrays mapping the scatter-add aggregations back
    to the reference iteration order of the per-call raw methods."""
    link_geom = lookups["_link_geom"]
    movement_lanes = lookups["_movement_lanes"]
    in_link_movement_count = lookups["_in_link_movement_count"]
    out_num_lanes = lookups["_out_num_lanes"]
    link_order = tuple(link_geom)
    link_index = {l: i for i, l in enumerate(link_order)}
    lane_order: list[str] = []
    for link_id in link_order:
        lane_order.extend(link_geom[link_id][2])
    lane_index = {l: i for i, l in enumerate(lane_order)}
    node_order = tuple(network.nodes)
    movements = list(network.movements.values())
    mv_index = {m.key: i for i, m in enumerate(movements)}

    # movement incoming: (movement, lane, sharers) triples in the
    # _movement_lanes order, lanes-before-approaching per movement.
    in_mv, in_lane, in_sharers = [], [], []
    for mv_i, movement in enumerate(movements):
        for lane_id, sharers in movement_lanes[movement.key]:
            in_mv.append(mv_i)
            in_lane.append(lane_index[lane_id])
            in_sharers.append(float(sharers))
    in_counts = np.asarray(
        [float(in_link_movement_count[m.in_link]) for m in movements]
    )
    # link pressure / intersection pressure groupings, in the
    # _movements_from / _movements_at iteration order.
    lp_link, lp_mv = [], []
    for link_i, link_id in enumerate(link_order):
        for m in lookups["_movements_from"][link_id]:
            lp_link.append(link_i)
            lp_mv.append(mv_index[m.key])
    ip_node, ip_mv = [], []
    ic_node, ic_link = [], []
    for node_i, node_id in enumerate(node_order):
        for m in lookups["_movements_at"][node_id]:
            ip_node.append(node_i)
            ip_mv.append(mv_index[m.key])
        for link_id in lookups["_node_incoming"][node_id]:
            ic_node.append(node_i)
            ic_link.append(link_index[link_id])

    def intp(values) -> np.ndarray:
        return np.asarray(values, dtype=np.intp)

    return {
        "_link_order": link_order,
        "_link_index": link_index,
        "_lane_order": tuple(lane_order),
        "_node_order": node_order,
        "_node_index": {n: i for i, n in enumerate(node_order)},
        "_mv_index": mv_index,
        # Per link: first lane (lanes are link-major), speed, length;
        # per lane: the spillback threshold of its link.
        "_link_lane_start": intp(
            np.cumsum([0] + [len(link_geom[l][2]) for l in link_order[:-1]])
        ),
        "_link_speed": np.asarray(
            [link_geom[l][1] for l in link_order], dtype=np.float64
        ),
        "_link_length": np.asarray(
            [link_geom[l][0] for l in link_order], dtype=np.float64
        ),
        "_lane_threshold": np.asarray(
            [link_geom[l][3] for l in link_order for _ in link_geom[l][2]]
        ),
        "_in_mv": intp(in_mv),
        "_in_lane": intp(in_lane),
        "_in_sharers": np.asarray(in_sharers),
        "_mv_in_link": intp([link_index[m.in_link] for m in movements]),
        # The raw method skips the approaching term when the in-link has
        # no movements; avoid 0/0 while contributing exactly nothing.
        "_mv_in_scale": np.where(in_counts > 0, 1.0, 0.0),
        "_mv_in_count": np.where(in_counts > 0, in_counts, 1.0),
        "_mv_out_link": intp([link_index[m.out_link] for m in movements]),
        "_mv_out_lanes": np.asarray(
            [float(out_num_lanes[m.out_link]) for m in movements]
        ),
        "_lp_link": intp(lp_link),
        "_lp_mv": intp(lp_mv),
        "_ip_node": intp(ip_node),
        "_ip_mv": intp(ip_mv),
        "_ic_node": intp(ic_node),
        "_ic_link": intp(ic_link),
    }

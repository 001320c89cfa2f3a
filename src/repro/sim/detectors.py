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
        vars(self).update(
            network_index(sim.network, coverage, bulk=self._bulk_enabled)
        )
        # Per-tick memo: valid only while ``sim.time`` is unchanged.
        self._cache_enabled = True
        self._cache_time = -1
        self._cache: dict[object, float | int] = {}
        self._bulk_time = -1

    def _bulk_compute(self) -> None:
        """One vectorized pass over the whole network for this tick."""
        sim = self.sim
        now = sim.time
        coverage = self.coverage
        running = sim.running
        queue_length = sim.queue_length
        num_links = len(self._link_order)
        queue_len = np.fromiter(
            (queue_length(lane_id) for lane_id in self._lane_order),
            dtype=np.int64,
            count=len(self._lane_order),
        )
        queue_obs = np.minimum(queue_len, self._visible_slots)
        app = np.zeros(num_links, dtype=np.int64)
        down = np.zeros(num_links, dtype=np.int64)
        lane_cursor = 0
        for link_i, link_id in enumerate(self._link_order):
            length, speed_limit, lane_ids, spillback_threshold = self._link_geom[
                link_id
            ]
            approaching = near_entry = 0
            for vehicle in running[link_id]:
                travelled = speed_limit * (now - vehicle.run_start)
                if max(0.0, length - travelled) <= coverage:
                    approaching += 1
                if travelled <= coverage:
                    near_entry += 1
            for lane_offset in range(len(lane_ids)):
                overflow = queue_len[lane_cursor + lane_offset] - spillback_threshold
                if overflow > 0:
                    near_entry += int(overflow)
            lane_cursor += len(lane_ids)
            app[link_i] = approaching
            down[link_i] = near_entry
        onl = np.zeros(num_links, dtype=np.int64)
        np.add.at(onl, self._onl_link, queue_obs)
        onl += app

        incoming = np.zeros(len(self._mv_index))
        np.add.at(
            incoming, self._in_mv, queue_obs[self._in_lane] / self._in_sharers
        )
        incoming += (app[self._mv_in_link] / self._mv_in_count) * self._mv_in_scale
        mp = incoming - down[self._mv_out_link] / self._mv_out_lanes
        lp = np.zeros(num_links)
        np.add.at(lp, self._lp_link, mp[self._lp_mv])
        ip = np.zeros(len(self._node_order))
        np.add.at(ip, self._ip_node, np.abs(mp[self._ip_mv]))
        ic = np.zeros(len(self._node_order), dtype=np.int64)
        np.add.at(ic, self._ic_node, onl[self._ic_link])

        self._bulk_app = app
        self._bulk_down = down
        self._bulk_onl = onl
        self._bulk_mp = mp
        self._bulk_lp = lp
        self._bulk_ip = ip
        self._bulk_ic = ic
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
        # queued-per-link: lanes grouped per link, in link lane order.
        "_onl_link": np.repeat(
            np.arange(len(link_order)),
            [len(link_geom[l][2]) for l in link_order],
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

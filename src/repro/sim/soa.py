"""Structure-of-arrays batched simulation engine.

:class:`SoAEngine` steps ``B`` independent replicas of one scenario
(same network and phase plans, independent demand streams) in a single
process.  Per-tick work is split into two layers:

* **vectorized filters** over flat ``(B * lanes,)`` / ``(B, signals)``
  numpy arrays — credit accrual, signal state machines, the
  green/permissive-left permission gather, teleport detection, and the
  advance wake-up mask — which decide *which* (replica, lane/link)
  cells need any work this tick;
* **sparse scalar events** — the handful of actual vehicle movements a
  tick produces (pops, link entries, finishes, insertions, arrivals) —
  executed over plain Python lists/deques in exactly the reference
  engine's iteration order.

The split works because the object engine's cost is dominated by
*scanning* (every lane, every link, every tick) while actual vehicle
events are sparse; the scans vectorize across the whole batch and the
events stay cheap scalar code.

Semantics are pinned to :class:`repro.sim.engine.Simulation`: every
replica's trajectory is **bit-exact** with a solo ``Simulation`` run fed
the same demand stream (``tests/sim/test_soa_lockstep.py`` locksteps the
two per tick on grid/arterial/monaco, with spillback, permissive lefts,
startup lost time, and teleports).  Key invariants the kernels exploit —
each proved by the reference implementation's structure:

* discharge credit is capped at 1.0, so a lane pops **at most one**
  vehicle per tick;
* whether a head *may attempt* to cross is a pure function of
  ``(head movement, signal phase, yellow)`` — a static table gather —
  while the dynamic parts (spillback storage, permissive-left opposing
  traffic) are evaluated live, in lane order, by the scalar loop;
* queue pops during discharge never *add* vehicles to any queue, so the
  candidate set computed up front stays exact;
* advance outcomes per link depend only on that link's own queues, so
  links are processed independently and blocked vehicles only need
  re-examination after one of their link's queues popped.

:class:`SoAReplicaView` exposes one replica behind the ``Simulation``
introspection API (``queue_length``, ``head_wait``, ``link_head_wait``,
``halting_count``, ``discharge_credit``, ``is_drained``, ``signals``,
``running``, ``vehicles``, ...) so detectors, ``tsc_env``, metrics, and
``repro.serve`` run unmodified on top of a replica.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from itertools import chain

import numpy as np

from repro.errors import NetworkError, SimulationError
from repro.perf.timers import TIMERS
from repro.sim.demand import DemandGenerator
from repro.sim.engine import (
    DEFAULT_PERMISSIVE_GAP_M,
    DEFAULT_SATURATION_RATE,
    DEFAULT_STARTUP_LOST_TIME,
)
from repro.sim.network import RoadNetwork, TurnType
from repro.sim.signal import FixedTimeProgram, PhasePlan
from repro.sim.vehicle import VehicleState

#: Sentinel "never" tick for arrival/anchor arrays (far beyond any run).
_BIG = np.int64(2**60)


# ----------------------------------------------------------------------
# Static tables, memoized per network
# ----------------------------------------------------------------------
# Everything an engine reads but never writes is a pure function of the
# network plus the flow routes and rate profiles, the phase plans and
# ``permissive_left``.  It is built once per distinct set of those
# values and kept in ``RoadNetwork.detector_memo`` beside the detector
# index, which every ``RoadNetwork.add_*`` clears.  Shared numpy tables
# are frozen; an engine copies what it mutates (link storage) into its
# own state.  The memo holds only network-derived values, never an
# engine, so a finished engine is freed by refcounting.


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _network_tables(network: RoadNetwork) -> dict:
    """Link/lane/movement index, link geometry, opposing approaches and
    the advance pass's candidate lanes per movement."""
    link_ids: list[str] = list(network.links)
    link_of = {lid: i for i, lid in enumerate(link_ids)}
    links = [network.links[lid] for lid in link_ids]
    lane_ids: list[str] = []
    lane_link: list[int] = []
    link_lane_start: list[int] = []
    link_lane_count: list[int] = []
    for k, link in enumerate(links):
        link_lane_start.append(len(lane_ids))
        link_lane_count.append(link.num_lanes)
        for lane in link.lanes:
            lane_ids.append(lane.lane_id)
            lane_link.append(k)
    lane_of = {lid: i for i, lid in enumerate(lane_ids)}
    lane_capacity = [link.lane_capacity for link in links]
    # Movement rows for the permission tables.
    move_keys = list(network.movements)
    M = len(move_keys)

    # Opposing-approach map (same construction as the object engine).
    opp_by_id: dict[str, str | None] = {}
    for node_id in network.signalized_nodes():
        incoming = network.nodes[node_id].incoming
        headings = {l: network.link_heading(l) for l in incoming}
        for link_id in incoming:
            hx, hy = headings[link_id]
            best = None
            for other in incoming:
                if other == link_id:
                    continue
                ox, oy = headings[other]
                if hx * ox + hy * oy < -0.7:  # roughly head-on
                    best = other
                    break
            opp_by_id[link_id] = best
    opp = [
        link_of[opp_by_id[lid]] if opp_by_id.get(lid) is not None else -1
        for lid in link_ids
    ]

    # Candidate lanes (lane indexes, reference order) per movement —
    # ``RoadNetwork.lanes_for_movement`` as indexes, since a link's lanes
    # are contiguous in lane order — plus the in-link's lane capacity:
    # the advance phase's `_choose_lane` inputs.  The third slot is the
    # lane index when the movement has exactly one candidate (-1
    # otherwise): single-candidate movements dominate, and the advance
    # scan takes a loop-free path for them.
    move_cand: dict[tuple[int, int], tuple[int, list[int], int]] = {}
    for (in_link, out_link), movement in network.movements.items():
        k = link_of[in_link]
        first = link_lane_start[k]
        turn = movement.turn
        lanes = [
            first + pos
            for pos, lane in enumerate(links[k].lanes)
            if turn in lane.allowed_turns
        ]
        move_cand[(k, link_of[out_link])] = (
            lane_capacity[k],
            lanes,
            lanes[0] if len(lanes) == 1 else -1,
        )
    return {
        "_link_ids": link_ids,
        "_link_of": link_of,
        "LK": len(link_ids),
        "_lane_ids": lane_ids,
        "_lane_link": lane_link,
        "_link_lane_start": link_lane_start,
        "_link_lane_count": link_lane_count,
        "_lane_of": lane_of,
        "NL": len(lane_ids),
        "_static_storage": [link.storage for link in links],
        "_num_lanes": [link.num_lanes for link in links],
        "_lane_capacity": lane_capacity,
        "_freeflow": [link.freeflow_ticks for link in links],
        "_length": [link.length for link in links],
        "_speed": [link.speed_limit for link in links],
        "_move_row": {key: r for r, key in enumerate(move_keys)},
        "M": M,
        "EXIT_ROW": M,
        "EMPTY_ROW": M + 1,
        "_opp": opp,
        "_move_cand": move_cand,
    }


def _flow_tables(net: dict, routes: tuple[tuple[str, ...], ...]) -> dict:
    """Per flow: route link indexes, permission-table rows, advance
    candidates and dense origin index.  Shared across replicas (the env
    hands every replica the same flow set; seeds differ)."""
    link_of = net["_link_of"]
    move_row = net["_move_row"]
    move_cand = net["_move_cand"]
    exit_row = net["EXIT_ROW"]
    flow_routes: list[tuple[int, ...]] = []
    flow_route_ids: list[list[str]] = []
    flow_mrows: list[tuple[int, ...]] = []
    for route_ids in routes:
        route = tuple(link_of[lid] for lid in route_ids)
        rows = []
        for a, bnext in zip(route_ids[:-1], route_ids[1:]):
            row = move_row.get((a, bnext))
            if row is None:
                raise SimulationError(
                    f"route uses undeclared movement ({a!r}, {bnext!r})"
                )
            rows.append(row)
        rows.append(exit_row)
        flow_route_ids.append(list(route_ids))
        flow_routes.append(route)
        flow_mrows.append(tuple(rows))
    flow_origin = [route[0] for route in flow_routes]
    # Dense origin-link index: insertion state lives in flat arrays over
    # (replica, origin) instead of per-replica dicts.
    origin_links = sorted(set(flow_origin))
    origin_of = {k: o for o, k in enumerate(origin_links)}
    return {
        "_flow_routes": flow_routes,
        "_flow_route_ids": flow_route_ids,
        "_flow_mrows": flow_mrows,
        # Per flow, per route position: the (lane_capacity, candidate
        # lanes) entry the advance pass needs — saves the movement-key
        # dict lookup per advancing vehicle.
        "_flow_cand": [
            [move_cand[(route[i], route[i + 1])] for i in range(len(route) - 1)]
            + [None]
            for route in flow_routes
        ],
        "_origin_links": origin_links,
        "NO": len(origin_links),
        "_flow_oidx": [origin_of[k] for k in flow_origin],
    }


def _signal_tables(
    network: RoadNetwork,
    net: dict,
    phase_plans: dict[str, PhasePlan],
    permissive_left: bool,
) -> dict:
    """Signal order, permission tables and per-lane controlling signal."""
    sig_nodes: list[str] = list(phase_plans)
    sig_of = {nid: s for s, nid in enumerate(sig_nodes)}
    NS = len(sig_nodes)
    plans = [phase_plans[nid] for nid in sig_nodes]
    M = net["M"]
    move_row = net["_move_row"]
    link_of = net["_link_of"]
    lane_start = net["_link_lane_start"]
    lane_count = net["_link_lane_count"]

    # Permission tables: one column per (signal, phase) plus a shared
    # ALWAYS column (unsignalized nodes) and a shared YELLOW column
    # (nothing but queue exits may proceed).
    col_base: list[int] = []
    cols = 0
    for plan in plans:
        col_base.append(cols)
        cols += plan.num_phases
    always_col, yellow_col, ncols = cols, cols + 1, cols + 2
    rows = M + 2
    green = np.zeros((rows, ncols), dtype=bool)
    left = np.zeros((rows, ncols), dtype=bool)
    green[net["EXIT_ROW"], :] = True  # exiting from a queue is always allowed
    green[: M + 1, always_col] = True  # unsignalized nodes
    through_right = (TurnType.THROUGH, TurnType.RIGHT)
    movements = network.movements
    green_cells: tuple[list[int], list[int]] = ([], [])
    left_cells: tuple[list[int], list[int]] = ([], [])
    for s, nid in enumerate(sig_nodes):
        lefts = [
            (movement.in_link, movement.key)
            for movement in network.movements_at(nid)
            if permissive_left and movement.turn is TurnType.LEFT
        ]
        for p, phase in enumerate(plans[s].phases):
            col = col_base[s] + p
            greens = phase.green_movements
            approach_green: set[str] = set()
            for key in greens:
                row = move_row.get(key)
                if row is not None:
                    green_cells[0].append(row)
                    green_cells[1].append(col)
                movement = movements.get(key)
                if movement is not None and movement.turn in through_right:
                    approach_green.add(key[0])
            for in_link, key in lefts:
                if in_link in approach_green and key not in greens:
                    left_cells[0].append(move_row[key])
                    left_cells[1].append(col)
    green[green_cells] = True
    left[left_cells] = True

    # Per-lane controlling signal (NS = "no signal" sentinel mapping to
    # the ALWAYS column).
    lane_sig = np.full(net["NL"], NS, dtype=np.int64)
    for k, link_id in enumerate(net["_link_ids"]):
        s = sig_of.get(network.links[link_id].to_node)
        if s is not None:
            lane_sig[lane_start[k] : lane_start[k] + lane_count[k]] = s

    # Lane indexes per signal for the startup-lost-time write.
    sig_lanes = []
    for nid in sig_nodes:
        lanes: list[int] = []
        for link_id in network.nodes[nid].incoming:
            k = link_of[link_id]
            lanes.extend(range(lane_start[k], lane_start[k] + lane_count[k]))
        sig_lanes.append(_frozen(np.asarray(lanes, dtype=np.intp)))
    return {
        "_sig_nodes": sig_nodes,
        "_sig_of": sig_of,
        "NS": NS,
        "ALWAYS_COL": always_col,
        "YELLOW_COL": yellow_col,
        "NCOLS": ncols,
        # Fused permission code per (movement row, column): 0 = blocked,
        # 1 = protected green, 2 = permissive-left candidate (dynamic
        # opposing check required).  One gather replaces two.
        "_code_flat": _frozen(
            (green.astype(np.int8) + 2 * left.astype(np.int8)).ravel()
        ),
        "_col_base": _frozen(np.asarray(col_base, dtype=np.int64)),
        "_num_phases": _frozen(
            np.asarray([plan.num_phases for plan in plans], dtype=np.int64)
        ),
        "_lane_sig": _frozen(lane_sig),
        "_sig_lanes": sig_lanes,
        "_sig_lanes_all": _frozen(
            np.concatenate(sig_lanes) if sig_lanes else np.empty(0, dtype=np.intp)
        ),
    }


def _rate_schedule(flow_entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every positive per-second rate ``emit`` would draw from, as
    ``(tick, flow, rate)`` arrays in its tick-major, flow-minor order.

    Each flow's rates are evaluated with numpy per profile segment, with
    the scalar expression of :meth:`DemandGenerator.emit` (same operands,
    same order, so the same IEEE results): a tick takes the first
    segment that contains it, and a tick inside the span but in no
    segment takes the last rate only at the span's end.
    """
    t_end = int(math.floor(max(entry[3] for entry in flow_entries)))
    tf = np.arange(t_end + 1, dtype=np.float64)
    ticks, flows, lams = [], [], []
    for f, (_, _, t_first, t_last, r_last, segments) in enumerate(flow_entries):
        todo = (tf >= t_first) & (tf <= t_last)
        rate = np.zeros(t_end + 1, dtype=np.float64)
        for t0, t1, r0, r1 in segments:
            hit = todo & (t0 <= tf) & (tf <= t1)
            if t1 == t0:
                rate[hit] = r1
            else:
                rate[hit] = r0 + ((tf[hit] - t0) / (t1 - t0)) * (r1 - r0)
            todo &= ~hit
        rate[todo & (tf == t_last)] = r_last
        per_second = rate / 3600.0
        (positive,) = np.nonzero(per_second > 0.0)
        ticks.append(positive)
        flows.append(np.full(positive.size, f, dtype=np.int64))
        lams.append(per_second[positive])
    pair_t = np.concatenate(ticks).astype(np.int64)
    order = np.argsort(pair_t, kind="stable")
    return (
        _frozen(pair_t[order]),
        _frozen(np.concatenate(flows)[order]),
        _frozen(np.concatenate(lams)[order]),
    )


def _static_tables(
    network: RoadNetwork,
    entries,
    phase_plans: dict[str, PhasePlan],
    permissive_left: bool,
) -> dict:
    """Every static table of an engine, keyed by its attribute name."""
    tables = _network_tables(network)
    routes = tuple(tuple(entry[1]) for entry in entries)
    tables.update(_flow_tables(tables, routes))
    tables.update(_signal_tables(network, tables, phase_plans, permissive_left))
    tables["_rates"] = _rate_schedule(entries) if entries else None
    return tables


def _replay_accumulators(
    accumulators: list[float], pair_f: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Deterministic emission counts: ``emit``'s fractional accumulator
    replayed over the rate schedule, from the given per-flow state."""
    acc = list(accumulators)
    counts = []
    for f, per_second in zip(pair_f.tolist(), lam.tolist()):
        value = acc[f] + per_second
        count = int(value)
        acc[f] = value - count
        counts.append(count)
    return np.asarray(counts, dtype=np.int64)


class SoAEngine:
    """Batched structure-of-arrays twin of :class:`Simulation`.

    Parameters mirror :class:`Simulation`; ``demands`` is one
    :class:`DemandGenerator` per replica (``B = len(demands)``).  All
    replicas share the network, phase plans, and flow *structure* (the
    same flows with the same profiles — what differs per replica is the
    seeded emission stream).  Demand is precomputed at construction by
    replaying each generator's exact emission arithmetic with one
    vectorized Poisson call per replica (bit-identical to the
    per-tick scalar draws — numpy Generators consume the bitstream
    identically for ``poisson(lam_array)`` and sequential scalar calls).

    The static tables (index, permissions, flow routes, rate schedule)
    come from a per-network memo, so a build after the first only
    allocates per-replica state and draws the Poisson counts.
    """

    def __init__(
        self,
        network: RoadNetwork,
        demands: list[DemandGenerator | None],
        phase_plans: dict[str, PhasePlan],
        yellow_time: int = 2,
        saturation_rate: float = DEFAULT_SATURATION_RATE,
        startup_lost_time: float = DEFAULT_STARTUP_LOST_TIME,
        permissive_left: bool = True,
        permissive_gap_m: float = DEFAULT_PERMISSIVE_GAP_M,
        teleport_time: int | None = None,
    ) -> None:
        if not demands:
            raise SimulationError("SoAEngine needs at least one replica demand")
        if not network.validated:
            network.validate()
        missing = set(network.signalized_nodes()) - set(phase_plans)
        if missing:
            raise SimulationError(
                f"no phase plan for signalized nodes: {sorted(missing)}"
            )
        if saturation_rate <= 0:
            raise SimulationError("saturation_rate must be positive")
        if startup_lost_time < 0:
            raise SimulationError("startup_lost_time must be non-negative")
        if teleport_time is not None and teleport_time <= 0:
            raise SimulationError("teleport_time must be positive when set")
        self.network = network
        self.phase_plans = phase_plans
        self.yellow_time = yellow_time
        self.saturation_rate = saturation_rate
        self.startup_lost_time = startup_lost_time
        self.permissive_left = permissive_left
        self.permissive_gap_m = permissive_gap_m
        self.teleport_time = teleport_time
        self.batch = len(demands)
        self.time = 0
        self._demands = list(demands)
        #: Active capacity factors per link (absent = 1.0, healthy).
        #: Engine-wide: an incident closure applies to every replica,
        #: matching the batched use of one scenario across replicas.
        self.capacity_factors: dict[str, float] = {}
        #: Optional :class:`repro.faults.incidents.IncidentSchedule`
        #: applied at the start of every tick (lane/link closures).
        self.incidents = None
        base = next((gen for gen in self._demands if gen is not None), None)
        entries = base._flow_entries if base is not None else []
        for gen in self._demands:
            if gen is not None and len(gen._flow_entries) != len(entries):
                raise SimulationError(
                    "all replicas must share the same flow structure"
                )
        # One memo entry per (flow routes and profiles, phase plans,
        # permissive_left) value; each table's key is its attribute name.
        key = (
            "soa_static",
            tuple((tuple(entry[1]), entry[2:]) for entry in entries),
            tuple((nid, tuple(plan.phases)) for nid, plan in phase_plans.items()),
            permissive_left,
        )
        tables = network.detector_memo.get(key)
        if tables is None:
            tables = network.detector_memo[key] = _static_tables(
                network, entries, phase_plans, permissive_left
            )
        vars(self).update(tables)
        #: Effective storage per link; ``set_capacity_factor`` rewrites it.
        self._storage = list(self._static_storage)
        self._plans = [phase_plans[nid] for nid in self._sig_nodes]
        self._build_signal_state()
        self._build_dynamic_state()
        self._precompute_demand(entries)

    # ------------------------------------------------------------------
    # Construction: per-replica state
    # ------------------------------------------------------------------
    def _build_signal_state(self) -> None:
        B = self.batch
        # One fused index for the all-(replica, signal) startup-penalty
        # write — the common case when synchronized fixed-time programs
        # switch every signal of every replica on the same tick.
        self._penalty_idx_full = (
            np.arange(B, dtype=np.intp)[:, None] * self.NL
            + self._sig_lanes_all[None, :]
        ).ravel()
        self._cur = np.zeros((B, self.NS), dtype=np.int64)
        self._pend = np.full((B, self.NS), -1, dtype=np.int64)
        self._yel = np.zeros((B, self.NS), dtype=np.int64)
        self._tip = np.zeros((B, self.NS), dtype=np.int64)
        #: (b, s) pairs whose instant commit (yellow_time == 0) awaits
        #: its startup-lost-time application at the next signal update.
        self._pending_just: list[tuple[int, int]] = []
        self._eff_ext = np.empty((B, self.NS + 1), dtype=np.int64)
        #: Cached per-lane permission column gather; invalidated whenever
        #: any signal's (current phase, yellow) state may have changed.
        self._lane_cols: np.ndarray | None = None

    def _build_dynamic_state(self) -> None:
        B, NL, LK, NO = self.batch, self.NL, self.LK, self.NO
        self._queues: list[deque] = [deque() for _ in range(B * NL)]
        self._running: list[list[list[int]]] = [
            [[] for _ in range(LK)] for _ in range(B)
        ]
        self._occ: list[list[int]] = [[0] * LK for _ in range(B)]
        self._finished: list[list[int]] = [[] for _ in range(B)]
        self.teleport_count = [0] * B
        self._inserted_cnt = [0] * B
        self._finished_cnt = [0] * B

        self._credit = np.zeros(B * NL, dtype=np.float64)
        self._head_row = np.full(B * NL, self.EMPTY_ROW, dtype=np.int64)
        self._head_anchor = np.full(B * NL, _BIG, dtype=np.int64)
        #: Scalar caches of each lane head's vehicle id and destination
        #: link (-1 = route exit); valid only where _head_row is not the
        #: EMPTY_ROW sentinel.
        self._head_vid = [0] * (B * NL)
        self._head_dst = [0] * (B * NL)
        self._narr_after = np.full(B * LK, _BIG, dtype=np.int64)
        # Scratch buffers reused by the per-tick vectorized filters.
        self._buf_idx = np.empty(B * NL, dtype=np.int64)
        self._buf_code = np.empty(B * NL, dtype=np.int8)
        self._buf_cand = np.empty(B * NL, dtype=bool)
        self._buf_ge = np.empty(B * NL, dtype=bool)
        self._buf_mask = np.empty(B * LK, dtype=bool)
        #: (b, link) flat indexes whose lanes popped a head this tick;
        #: consumed (and cleared) by the same tick's advance pass.
        self._dirty_links: list[int] = []
        #: Blocked (lane-choice-failed) vehicle count per (b, link).  A
        #: queue pop only needs to re-wake its link's advance pass when
        #: this is non-zero — pops can't affect anything else there.
        self._held_cnt = [0] * (B * LK)

        # Insertion state, dense over (replica, origin): pending-vehicle
        # deques and the next tick the origin can possibly insert
        # (credit accrual is deterministic, so blocked-on-credit origins
        # sleep until then).  Origin order is immaterial: inserts to
        # distinct links are independent, same-link arrivals share one
        # deque.
        self._pend_dq: list[deque] = [deque() for _ in range(B * NO)]
        self._ins_wake = [int(_BIG)] * (B * NO)
        # Credit the origin will hold when its wake tick arrives.  Wake
        # ticks are found by simulating the per-tick min-capped accrual,
        # so the end credit is known at sleep time; storing it makes the
        # wake-time replay a single read.
        self._ins_cwake = [0.0] * (B * NO)
        rate = self.saturation_rate
        self._origin_rn = [rate * self._num_lanes[k] for k in self._origin_links]
        self._origin_fn = [float(self._num_lanes[k]) for k in self._origin_links]
        #: Ticks for a fresh (zero-credit) origin to accrue its first
        #: unit of insertion credit, and the exact credit it holds then,
        #: per dense origin index.
        m0 = []
        c0 = []
        for o in range(NO):
            rn, fn = self._origin_rn[o], self._origin_fn[o]
            if rn <= 0.0:
                m0.append(1 << 60)
                c0.append(0.0)
                continue
            c, m = 0.0, 0
            while c < 1.0:
                m += 1
                c = min(c + rn, fn)
            m0.append(m)
            c0.append(c)
        self._origin_m0 = m0
        self._origin_c0 = c0
        # Wake ticks are at most max(m0, 1) + 1 ahead (blocked origins
        # re-wake next tick; credit re-accrual from >= 0.0 takes at most
        # m0 ticks), so due origins live in a small ring of per-tick
        # buckets instead of a scanned active set.  Ring entries are
        # validated against _ins_wake on drain, so a stale entry (the
        # origin drained before its slot came up) is skipped for free.
        self._ins_ring_len = max([m for m in m0 if m < (1 << 60)] + [1]) + 2
        self._ins_ring: list[list[int]] = [
            [] for _ in range(self._ins_ring_len)
        ]

    # ------------------------------------------------------------------
    # Construction: demand precompute
    # ------------------------------------------------------------------
    def _precompute_demand(self, entries) -> None:
        """Replay every generator's ``emit`` arithmetic up front.

        Rates are a pure function of the flow profiles shared by all
        replicas, so the rate schedule is a static table (``_rates``).  Each
        stochastic replica then makes a single vectorized Poisson call
        over the positive-rate (tick-major, flow-minor) sequence — the
        exact order ``emit`` would have drawn scalars in, consuming the
        generator's bitstream identically.  The deterministic
        accumulator is replayed once, only if some replica needs it (no
        RNG; identical for every replica).
        """
        self._v_flow: list[list[int]] = []
        self._arr_t: list[list[int]] = []
        self._arr_ptr = [0] * self.batch
        if entries:
            pair_t, pair_f, lam = self._rates
        det_counts = None
        for gen in self._demands:
            if gen is None:
                self._arr_t.append([])
                self._v_flow.append([])
                continue
            if gen.stochastic:
                counts = gen._rng.poisson(lam).astype(np.int64)
            else:
                if det_counts is None:
                    # Deterministic accumulators live on the Flow
                    # objects; start from their state (zero after reset()).
                    det_counts = _replay_accumulators(
                        [entry[0]._accumulator for entry in entries], pair_f, lam
                    )
                counts = det_counts
            self._arr_t.append(np.repeat(pair_t, counts).tolist())
            self._v_flow.append(np.repeat(pair_f, counts).tolist())
        per_replica_cols = [len(arr_t) for arr_t in self._arr_t]

        # Pre-sized per-vehicle columns (vehicle id == arrival index, so
        # the created tick and flow columns are the arrival arrays).
        # State, lane, and links-travelled are NOT stored: the hot loops
        # would pay one write per transition for introspection-only
        # data, so views derive them — state from (inserted, finished,
        # anchor), links from route index, lane by queue membership.
        self._v_ridx = [[0] * n for n in per_replica_cols]
        self._v_inserted = [[-1] * n for n in per_replica_cols]
        self._v_finished = [[-1] * n for n in per_replica_cols]
        self._v_run_start = [[0] * n for n in per_replica_cols]
        self._v_run_arrival = [[0] * n for n in per_replica_cols]
        self._v_wait_base = [[0] * n for n in per_replica_cols]
        self._v_wait_link = [[0] * n for n in per_replica_cols]
        self._v_anchor = [[-1] * n for n in per_replica_cols]
        # One tuple per replica bundling every per-replica container the
        # hot loops touch: rebinding locals on a replica switch is one
        # index + unpack instead of a dozen attribute lookups.  All the
        # bundled objects are mutated in place and never reassigned.
        self._repl_cols = [
            (
                self._v_flow[b],
                self._v_ridx[b],
                self._v_anchor[b],
                self._v_wait_base[b],
                self._v_wait_link[b],
                self._v_run_start[b],
                self._v_run_arrival[b],
                self._v_finished[b],
                self._occ[b],
                self._running[b],
                self._finished[b],
            )
            for b in range(self.batch)
        ]

    # ------------------------------------------------------------------
    # Control surface
    # ------------------------------------------------------------------
    def detector_inputs(self, rows=None) -> tuple[np.ndarray, ...]:
        """This tick's detector inputs for replicas ``rows`` (default all).

        ``(queue lengths, head waits)`` as ``(R, NL)`` and running-vehicle
        counts as ``(R, LK)``, in lane/link order (the detectors'
        ``_lane_order``/``_link_order``), plus the flat ``run_start`` of
        every running vehicle in replica, link, then running order.
        Consumed by :func:`repro.sim.detectors.bulk_readings`.
        """
        B, NL, LK = self.batch, self.NL, self.LK
        head_wait = np.where(
            self._head_row != self.EMPTY_ROW, self.time - self._head_anchor, 0
        ).reshape(B, NL)
        if rows is None:
            rows = range(B)
            queues = self._queues
        else:
            head_wait = head_wait[rows]
            queues = chain.from_iterable(
                self._queues[b * NL : (b + 1) * NL] for b in rows
            )
        qlen = np.fromiter(map(len, queues), dtype=np.int64, count=len(rows) * NL)
        counts = np.fromiter(
            map(len, chain.from_iterable(self._running[b] for b in rows)),
            dtype=np.int64,
            count=len(rows) * LK,
        ).reshape(len(rows), LK)
        run_start = np.fromiter(
            chain.from_iterable(
                map(
                    self._v_run_start[b].__getitem__,
                    chain.from_iterable(self._running[b]),
                )
                for b in rows
            ),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        return qlen.reshape(len(rows), NL), head_wait, counts, run_start

    def set_capacity_factor(self, link_id: str, factor: float) -> None:
        """Scale a link's effective storage across every replica.

        Same semantics and arithmetic as
        :meth:`repro.sim.engine.Simulation.set_capacity_factor` —
        ``int(static_storage * factor)`` — so incident trajectories stay
        bit-exact with the object engine.  Both the discharge spillback
        check and the insertion loop re-read storage on every attempt
        (blocked origins re-wake each tick), so mid-run changes take
        effect immediately.
        """
        k = self._link_of.get(link_id)
        if k is None:
            raise SimulationError(f"unknown link {link_id!r}")
        if not 0.0 <= factor <= 1.0:
            raise SimulationError(
                f"capacity factor must lie in [0, 1], got {factor}"
            )
        self._storage[k] = int(self._static_storage[k] * factor)
        if factor >= 1.0:
            self.capacity_factors.pop(link_id, None)
        else:
            self.capacity_factors[link_id] = factor

    def request_phase(self, b: int, node_id: str, phase_index: int) -> None:
        """Replica-scalar twin of :meth:`SignalState.request_phase`."""
        s = self._sig_of.get(node_id)
        if s is None:
            raise SimulationError(f"unknown signalized node {node_id!r}")
        plan = self._plans[s]
        if not 0 <= phase_index < plan.num_phases:
            raise NetworkError(
                f"phase index {phase_index} out of range for node "
                f"{plan.node_id!r} ({plan.num_phases} phases)"
            )
        if phase_index == self._cur[b, s] and self._yel[b, s] == 0:
            return
        self._lane_cols = None
        self._pend[b, s] = phase_index
        if self._yel[b, s] == 0:
            if self.yellow_time == 0:
                self._cur[b, s] = phase_index
                self._pend[b, s] = -1
                self._tip[b, s] = 0
                self._pending_just.append((b, s))
            else:
                self._yel[b, s] = self.yellow_time

    def request_phases(
        self, req: np.ndarray, where: np.ndarray | None = None
    ) -> None:
        """Vectorized phase request for all replicas.

        ``req`` is ``(NS,)`` (same request for every replica — the
        fixed-time case) or ``(B, NS)``; semantics per cell match
        :meth:`SignalState.request_phase`.  ``where`` (``(B, NS)`` bool)
        restricts the request to the marked cells: unmarked cells are
        left alone, as if no request were made (a cell in yellow would
        otherwise have its pending phase overwritten).  Phase indices
        of requested cells are assumed in range (callers validate
        against the plans).
        """
        cur, pend, yel = self._cur, self._pend, self._yel
        apply = (req != cur) | (yel != 0)
        if where is not None:
            apply &= where
        if not apply.any():
            return  # every cell is a same-phase-no-yellow no-op
        self._lane_cols = None
        if self.yellow_time == 0:
            # yel is identically zero: every applied request commits now.
            np.copyto(cur, req, where=apply)
            self._tip[apply] = 0
            pairs = np.nonzero(apply)
            self._pending_just.extend(
                (int(b), int(s)) for b, s in zip(*pairs)
            )
        else:
            np.copyto(pend, req, where=apply)
            start = apply & (yel == 0)
            yel[start] = self.yellow_time

    def run_fixed_time(
        self, programs: dict[str, FixedTimeProgram], ticks: int
    ) -> None:
        """Drive all replicas' signals from fixed-time programs.

        The steady-state tick allocates only acyclic objects (ints,
        lists, deques), so the generational collector's periodic scans
        over the engine's large live heap are pure overhead — pause it
        for the duration of the batch run.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._run_fixed_time(programs, ticks)
        finally:
            if was_enabled:
                gc.enable()

    def _run_fixed_time(
        self, programs: dict[str, FixedTimeProgram], ticks: int
    ) -> None:
        progs = [programs[nid] for nid in self._sig_nodes]
        # Hoist the per-tick requests into one (cycle, NS) table when the
        # programs' common cycle is reasonable (always, for the grids).
        cycle = 1
        for prog in progs:
            c = prog.cycle_length
            if not isinstance(c, int) or cycle > 36000:
                cycle = 0
                break
            cycle = cycle * c // math.gcd(cycle, c)
        if 0 < cycle <= 36000:
            table = np.empty((cycle, self.NS), dtype=np.int64)
            for t in range(cycle):
                for s, prog in enumerate(progs):
                    table[t, s] = prog.phase_at(t)
            # Ticks where no signal's requested phase differs from the
            # previous tick's are no-op requests (already current or
            # already pending) and can be skipped entirely.
            changed = [
                bool((table[t] != table[t - 1]).any()) for t in range(cycle)
            ]
            first = True
            for _ in range(ticks):
                if first or changed[self.time % cycle]:
                    self.request_phases(table[self.time % cycle])
                    first = False
                self._step_once()
            return
        req = np.zeros(self.NS, dtype=np.int64)
        for _ in range(ticks):
            t = self.time
            for s, prog in enumerate(progs):
                req[s] = prog.phase_at(t)
            self.request_phases(req)
            self._step_once()

    def step(self, ticks: int = 1) -> None:
        """Advance every replica by ``ticks`` seconds."""
        for _ in range(ticks):
            self._step_once()

    def view(self, b: int) -> "SoAReplicaView":
        """Simulation-API view over replica ``b``."""
        if not 0 <= b < self.batch:
            raise SimulationError(f"replica index {b} out of range")
        return SoAReplicaView(self, b)

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def _step_once(self) -> None:
        # One TIMERS section per sub-phase (no-ops unless TIMERS is
        # enabled): incidents count as signal-state updates, teleports
        # as queue exits.
        section = TIMERS.section
        with section("sim/signals"):
            if self.incidents is not None:
                self.incidents.apply(self)
            self._update_signals()
        with section("sim/discharge"):
            self._discharge()
            if self.teleport_time is not None:
                self._teleport_stuck()
        with section("sim/advance"):
            self._advance()
        with section("sim/insert"):
            self._insert_pending()
        with section("sim/demand"):
            self._generate_demand()
        self.time += 1

    def _update_signals(self) -> None:
        yel = self._yel
        tip = self._tip
        just: list[tuple[int, int]] = self._pending_just
        full_commit = False
        if yel.any():
            self._lane_cols = None
            in_yel = yel > 0
            np.subtract(yel, in_yel, out=yel, casting="unsafe")
            np.add(tip, 1, out=tip)
            np.subtract(tip, in_yel, out=tip, casting="unsafe")
            commit = in_yel & (yel == 0)
            if commit.any():
                np.copyto(self._cur, self._pend, where=commit)
                self._pend[commit] = -1
                tip[commit] = 0
                if not just and commit.all():
                    full_commit = True
                else:
                    just = just + [
                        (int(b), int(s)) for b, s in zip(*np.nonzero(commit))
                    ]
        else:
            np.add(tip, 1, out=tip)
        self._pending_just = []
        penalty = self.startup_lost_time * self.saturation_rate
        if penalty > 0:
            if full_commit:
                self._credit[self._penalty_idx_full] = -penalty
            elif just:
                NL = self.NL
                credit = self._credit
                sig_lanes = self._sig_lanes
                for b, s in just:
                    credit[b * NL + sig_lanes[s]] = -penalty

    def _discharge(self) -> None:
        NS = self.NS
        credit = self._credit
        credit += self.saturation_rate
        np.minimum(credit, 1.0, out=credit)
        # Effective permission column per lane: the controlling signal's
        # current phase, the shared yellow column while yellow runs, or
        # the ALWAYS column for unsignalized nodes.  Cached between
        # signal-state changes.
        cols = self._lane_cols
        if cols is None:
            eff_ext = self._eff_ext
            eff = eff_ext[:, :NS]
            np.add(self._col_base, self._cur, out=eff)
            eff[self._yel > 0] = self.YELLOW_COL
            eff_ext[:, NS] = self.ALWAYS_COL
            # Fancy indexing copies, so the cache doesn't alias _eff_ext.
            cols = self._lane_cols = eff_ext[:, self._lane_sig].reshape(-1)
        idx = self._buf_idx
        np.multiply(self._head_row, self.NCOLS, out=idx)
        idx += cols
        code = self._code_flat.take(idx, out=self._buf_code)
        cand = np.not_equal(code, 0, out=self._buf_cand)
        cand &= np.greater_equal(credit, 1.0, out=self._buf_ge)
        active = cand.nonzero()[0]
        if active.size:
            self._discharge_events(active.tolist(), code[active].tolist())
        # Lanes whose queue ended the phase empty reset their credit,
        # exactly like the reference store `credit if queue else 0.0`.
        empty = np.equal(self._head_row, self.EMPTY_ROW, out=self._buf_ge)
        credit[empty] = 0.0

    def _discharge_events(self, active: list[int], codes: list[int]) -> None:
        """Resolve pop attempts in reference lane order, live state."""
        NL = self.NL
        LK = self.LK
        t = self.time
        queues = self._queues
        lane_link = self._lane_link
        storage = self._storage
        freeflow = self._freeflow
        routes = self._flow_routes
        opp = self._opp
        popped: list[int] = []
        new_row: list[int] = []
        new_anchor: list[int] = []
        narr_idx: list[int] = []
        narr_val: list[int] = []
        head_row = self._head_row
        head_anchor = self._head_anchor
        head_vid = self._head_vid
        head_dst = self._head_dst
        narr_after = self._narr_after
        mrows = self._flow_mrows
        dirty = self._dirty_links
        held_cnt = self._held_cnt
        empty_row = self.EMPTY_ROW
        b = -1
        repl_cols = self._repl_cols
        fin_cnt = self._finished_cnt
        for i, cv in zip(active, codes):
            nb = i // NL
            if nb != b:
                b = nb
                (
                    vflow, vridx, vanchor, vwait, vwlink,
                    vrs, vra, vfin, occ_b, running_b, finished_b,
                ) = repl_cols[b]
                jbase = b * LK
            # Both rejection tests (spillback, opposing gap) are pure
            # reads, so checking storage before permission is exact;
            # cheapest check first keeps blocked revisits short.
            dst = head_dst[i]
            if dst >= 0 and occ_b[dst] >= storage[dst]:
                continue  # spillback: downstream full, credit stays banked
            l = i - b * NL
            k = lane_link[l]
            if cv == 2:
                # Permissive left: dynamic opposing-approach gap check.
                ol = opp[k]
                if ol >= 0 and not self._opposing_clear(b, ol, t):
                    continue  # head-of-line blocking; credit stays banked
            vid = head_vid[i]
            q = queues[i]
            q.popleft()
            occ_b[k] -= 1
            if held_cnt[jbase + k]:
                dirty.append(jbase + k)
            if dst < 0:
                # Inlined _finish.
                anchor = vanchor[vid]
                if anchor >= 0:
                    waited = t - anchor
                    vwait[vid] += waited
                    vwlink[vid] = waited
                    vanchor[vid] = -1
                vfin[vid] = t
                finished_b.append(vid)
                fin_cnt[b] += 1
            else:
                # Inlined _enter_link (wait_link stays 0: only a finish
                # ever writes it non-zero).
                vridx[vid] += 1
                vrs[vid] = t
                arr = t + freeflow[dst]
                vra[vid] = arr
                anchor = vanchor[vid]
                if anchor >= 0:
                    vwait[vid] += t - anchor
                    vanchor[vid] = -1
                running_b[dst].append(vid)
                occ_b[dst] += 1
                narr_idx.append(jbase + dst)
                narr_val.append(arr)
            popped.append(i)
            if q:
                nh = q[0]
                fl = vflow[nh]
                ri = vridx[nh]
                new_row.append(mrows[fl][ri])
                new_anchor.append(vanchor[nh])
                head_vid[i] = nh
                rt = routes[fl]
                head_dst[i] = rt[ri + 1] if ri + 1 < len(rt) else -1
            else:
                new_row.append(empty_row)
                new_anchor.append(int(_BIG))
        if popped:
            # Deferred scalar writes, flushed as single fancy updates.
            head_row[popped] = new_row
            head_anchor[popped] = new_anchor
            self._credit[popped] -= 1.0
        if narr_idx:
            # Same-link entries this tick share one arrival (t +
            # freeflow), so duplicate indices are harmless under a
            # gather-min-scatter.
            narr_after[narr_idx] = np.minimum(narr_after[narr_idx], narr_val)

    def _opposing_clear(self, b: int, ol: int, t: int) -> bool:
        start = self._link_lane_start[ol]
        base = b * self.NL + start
        queues = self._queues
        for off in range(self._link_lane_count[ol]):
            if queues[base + off]:
                return False
        length = self._length[ol]
        speed = self._speed[ol]
        gap = self.permissive_gap_m
        run_start = self._v_run_start[b]
        for vid in self._running[b][ol]:
            travelled = speed * (t - run_start[vid])
            if length - travelled <= gap:
                return False
        return True

    def _teleport_stuck(self) -> None:
        t = self.time
        stuck = ((t - self._head_anchor) > self.teleport_time).nonzero()[0]
        if not stuck.size:
            return
        NL, LK = self.NL, self.LK
        queues = self._queues
        head_row = self._head_row
        head_anchor = self._head_anchor
        head_vid = self._head_vid
        head_dst = self._head_dst
        mrows = self._flow_mrows
        routes = self._flow_routes
        for i in stuck.tolist():
            b = i // NL
            l = i - b * NL
            q = queues[i]
            vid = q.popleft()
            k = self._lane_link[l]
            self._occ[b][k] -= 1
            self._dirty_links.append(b * LK + k)
            self.teleport_count[b] += 1
            vflow = self._v_flow[b]
            vridx = self._v_ridx[b]
            fl = vflow[vid]
            ri = vridx[vid]
            route = routes[fl]
            if ri + 1 == len(route):
                self._finish(b, vid, t)
            else:
                # Teleports ignore storage (documented overflow).
                self._enter_link(b, vid, route[ri + 1], t)
            if q:
                nh = q[0]
                fl2 = vflow[nh]
                ri2 = vridx[nh]
                head_row[i] = mrows[fl2][ri2]
                head_anchor[i] = self._v_anchor[b][nh]
                head_vid[i] = nh
                rt = routes[fl2]
                head_dst[i] = rt[ri2 + 1] if ri2 + 1 < len(rt) else -1
            else:
                head_row[i] = self.EMPTY_ROW
                head_anchor[i] = _BIG

    def _advance(self) -> None:
        t = self.time
        mask = np.less_equal(self._narr_after, t, out=self._buf_mask)
        dl = self._dirty_links
        if dl:
            mask[dl] = True
            dset: frozenset[int] | tuple = frozenset(dl)
            self._dirty_links = []
        else:
            dset = ()
        active = mask.nonzero()[0]
        if not active.size:
            return
        LK = self.LK
        NL = self.NL
        queues = self._queues
        flow_cand = self._flow_cand
        routes = self._flow_routes
        mrows = self._flow_mrows
        narr_after = self._narr_after
        head_row = self._head_row
        head_anchor = self._head_anchor
        head_vid = self._head_vid
        head_dst = self._head_dst
        held_cnt = self._held_cnt
        new_qi: list[int] = []
        new_row: list[int] = []
        cell_j: list[int] = []
        cell_narr: list[int] = []
        b = -1
        repl_cols = self._repl_cols
        fin_cnt = self._finished_cnt
        for j in active.tolist():
            nb = j // LK
            if nb != b:
                b = nb
                (
                    vflow, vridx, vanchor, vwait, vwlink,
                    _vrs, arrival, vfin, occ_b, running_b, finished_b,
                ) = repl_cols[b]
                qbase = b * NL
            k = j - b * LK
            lst = running_b[k]
            n_lst = len(lst)
            if not held_cnt[j] or j in dset:
                start = 0
            else:
                # No pop touched this link's lanes this tick, so every
                # held vehicle's candidate lanes are still full — skip
                # their (guaranteed-failing) scans and keep them held.
                start = held_cnt[j]
            new_held: list[int] = []
            moved = False
            boundary = n_lst
            for pos in range(start, n_lst):
                vid = lst[pos]
                if arrival[vid] > t:
                    boundary = pos
                    break
                fl = vflow[vid]
                ri = vridx[vid]
                cand = flow_cand[fl][ri]
                if cand is None:
                    # Last route link: inlined _finish.
                    moved = True
                    occ_b[k] -= 1
                    anchor = vanchor[vid]
                    if anchor >= 0:
                        waited = t - anchor
                        vwait[vid] += waited
                        vwlink[vid] = waited
                        vanchor[vid] = -1
                    vfin[vid] = t
                    finished_b.append(vid)
                    fin_cnt[b] += 1
                    continue
                cap, lanes, lone = cand
                if lone >= 0:
                    best = lone
                    qq = queues[qbase + lone]
                    if len(qq) >= cap:
                        new_held.append(vid)  # the only candidate is full
                        continue
                else:
                    best = -1
                    best_len = 0
                    for lo in lanes:
                        qlen = len(queues[qbase + lo])
                        if qlen >= cap:
                            continue
                        if best < 0 or qlen < best_len:
                            best, best_len = lo, qlen
                    if best < 0:
                        new_held.append(vid)  # all candidate lanes full
                        continue
                    qq = queues[qbase + best]
                moved = True
                vanchor[vid] = t
                qq.append(vid)
                if len(qq) == 1:
                    qi = qbase + best
                    new_qi.append(qi)
                    new_row.append(mrows[fl][ri])
                    head_vid[qi] = vid
                    # cand is not None, so ri+1 is a valid route position.
                    head_dst[qi] = routes[fl][ri + 1]
            # Every scanned vehicle moved, finished, or re-held in
            # order, so the list only needs rebuilding when something
            # actually left it.
            cell_j.append(j)
            if not moved:
                held_cnt[j] = start + len(new_held)
                cell_narr.append(
                    arrival[lst[boundary]] if boundary < n_lst else int(_BIG)
                )
            elif not new_held and start == 0:
                del lst[:boundary]
                held_cnt[j] = 0
                cell_narr.append(arrival[lst[0]] if lst else int(_BIG))
            else:
                held = lst[:start]
                held.extend(new_held)
                nheld = len(held)
                held.extend(lst[boundary:])
                running_b[k] = held
                held_cnt[j] = nheld
                if len(held) > nheld:
                    cell_narr.append(arrival[held[nheld]])
                else:
                    cell_narr.append(int(_BIG))
        # Deferred scalar writes, flushed as single fancy updates (each
        # cell and each newly headed lane appears at most once).
        narr_after[cell_j] = cell_narr
        if new_qi:
            head_row[new_qi] = new_row
            head_anchor[new_qi] = t

    def _insert_pending(self) -> None:
        t = self.time
        ring = self._ins_ring
        R = self._ins_ring_len
        due = ring[t % R]
        if not due:
            return
        ring[t % R] = []
        # Origin order is immaterial (distinct links are independent),
        # but replica-sorted order keeps the per-replica column unpack
        # amortized across consecutive visits.
        due.sort()
        wake = self._ins_wake
        NO = self.NO
        storage = self._storage
        olinks = self._origin_links
        orn = self._origin_rn
        ofn = self._origin_fn
        cwake = self._ins_cwake
        pend_dq = self._pend_dq
        freeflow = self._freeflow
        narr_after = self._narr_after
        LK = self.LK
        repl_cols = self._repl_cols
        ins_cnt = self._inserted_cnt
        b = -1
        narr_idx: list[int] = []
        narr_val: list[int] = []
        for g in due:
            if wake[g] != t:
                continue  # stale ring entry (defensive; see init)
            nb = g // NO
            if nb != b:
                b = nb
                (
                    _vflow, vridx, vanchor, vwait, vwlink,
                    vrs, vra, _vfin, occ_b, running_b, _finished_b,
                ) = repl_cols[b]
                vins = self._v_inserted[b]
            o = g - b * NO
            k = olinks[o]
            dq = pend_dq[g]
            # The wake tick was found by simulating the per-tick
            # min-capped accrual (not associative in float, so no fused
            # multiply), and the resulting credit was stored with it.
            credit = cwake[g]
            blocked = False
            while dq and credit >= 1.0:
                if occ_b[k] >= storage[k]:
                    # Same clamp as Simulation._insert_pending: banked
                    # insertion credit caps at one vehicle while the
                    # origin link is spillback-blocked.
                    credit = 1.0
                    blocked = True
                    break
                vid = dq.popleft()
                vins[vid] = t
                ins_cnt[b] += 1
                # Inlined _enter_link onto route link 0 (anchor is -1
                # and wait_link 0 for a never-inserted vehicle).
                vridx[vid] = 0
                vrs[vid] = t
                arr = t + freeflow[k]
                vra[vid] = arr
                running_b[k].append(vid)
                occ_b[k] += 1
                narr_idx.append(b * LK + k)
                narr_val.append(arr)
                credit -= 1.0
            if dq:
                rn = orn[o]
                if blocked:
                    wake[g] = t + 1  # storage may free any tick
                    cwake[g] = min(credit + rn, ofn[o])
                    ring[(t + 1) % R].append(g)
                elif rn > 0.0:
                    # Sleep until the exact tick credit first reaches
                    # 1.0 again under per-tick accrual arithmetic.
                    fn = ofn[o]
                    c = credit
                    m = 0
                    while c < 1.0:
                        m += 1
                        c = min(c + rn, fn)
                    wake[g] = t + m
                    cwake[g] = c
                    ring[(t + m) % R].append(g)
                else:
                    wake[g] = int(_BIG)  # credit can never accrue
            else:
                wake[g] = int(_BIG)
        if narr_idx:
            # Same-link inserts this tick share one arrival, so
            # duplicate indices are harmless under gather-min-scatter.
            narr_after[narr_idx] = np.minimum(narr_after[narr_idx], narr_val)

    def _generate_demand(self) -> None:
        t = self.time
        NO = self.NO
        m0 = self._origin_m0
        c0 = self._origin_c0
        cwake = self._ins_cwake
        wake = self._ins_wake
        pend_dq = self._pend_dq
        oidx = self._flow_oidx
        for b in range(self.batch):
            at = self._arr_t[b]
            p = self._arr_ptr[b]
            n = len(at)
            if p >= n or at[p] != t:
                continue
            gbase = b * NO
            flows = self._v_flow[b]
            while p < n and at[p] == t:
                o = oidx[flows[p]]
                g = gbase + o
                dq = pend_dq[g]
                if not dq:
                    # Fresh pending entry: credit is 0.0 (reset on
                    # drain), so the first possible insert tick and the
                    # credit held then are pure functions of the
                    # origin's accrual rate.
                    m = m0[o]
                    wake[g] = t + m
                    cwake[g] = c0[o]
                    if m < self._ins_ring_len:
                        self._ins_ring[(t + m) % self._ins_ring_len].append(g)
                dq.append(p)
                p += 1
            self._arr_ptr[b] = p

    # ------------------------------------------------------------------
    # Scalar vehicle transitions (exact twins of the reference ops)
    # ------------------------------------------------------------------
    def _enter_link(self, b: int, vid: int, dst: int, t: int) -> None:
        self._v_ridx[b][vid] += 1
        self._v_run_start[b][vid] = t
        arr = t + self._freeflow[dst]
        self._v_run_arrival[b][vid] = arr
        anchor = self._v_anchor[b][vid]
        if anchor >= 0:
            self._v_wait_base[b][vid] += t - anchor
            self._v_anchor[b][vid] = -1
        self._running[b][dst].append(vid)
        self._occ[b][dst] += 1
        j = b * self.LK + dst
        if arr < self._narr_after[j]:
            self._narr_after[j] = arr

    def _finish(self, b: int, vid: int, t: int) -> None:
        anchor = self._v_anchor[b][vid]
        if anchor >= 0:
            waited = t - anchor
            self._v_wait_base[b][vid] += waited
            self._v_wait_link[b][vid] = waited
            self._v_anchor[b][vid] = -1
        self._v_finished[b][vid] = t
        self._finished[b].append(vid)
        self._finished_cnt[b] += 1

    # ------------------------------------------------------------------
    # Replica introspection primitives (used by the views)
    # ------------------------------------------------------------------
    def _lane_index_or_raise(self, lane_id: str) -> int:
        l = self._lane_of.get(lane_id)
        if l is None:
            raise SimulationError(f"unknown lane id {lane_id!r}")
        return l

    def _link_index_or_raise(self, link_id: str) -> int:
        k = self._link_of.get(link_id)
        if k is None:
            raise SimulationError(f"unknown link id {link_id!r}")
        return k


class _VehicleView:
    """Read-only :class:`Vehicle`-shaped view over one SoA vehicle."""

    __slots__ = ("_e", "_b", "vehicle_id")

    def __init__(self, engine: SoAEngine, b: int, vid: int) -> None:
        self._e = engine
        self._b = b
        self.vehicle_id = vid

    @property
    def route(self) -> list[str]:
        return self._e._flow_route_ids[self._e._v_flow[self._b][self.vehicle_id]]

    @property
    def created(self) -> int:
        return self._e._arr_t[self._b][self.vehicle_id]

    @property
    def state(self) -> VehicleState:
        # Derived: the engine does not store a state column (it would
        # cost one write per transition for introspection-only data).
        e, b, vid = self._e, self._b, self.vehicle_id
        if e._v_finished[b][vid] >= 0:
            return VehicleState.FINISHED
        if e._v_inserted[b][vid] < 0:
            return VehicleState.PENDING
        if e._v_anchor[b][vid] >= 0:
            return VehicleState.QUEUED
        return VehicleState.RUNNING

    @property
    def route_index(self) -> int:
        return self._e._v_ridx[self._b][self.vehicle_id]

    @property
    def inserted(self) -> int | None:
        value = self._e._v_inserted[self._b][self.vehicle_id]
        return None if value < 0 else value

    @property
    def finished(self) -> int | None:
        value = self._e._v_finished[self._b][self.vehicle_id]
        return None if value < 0 else value

    @property
    def run_start(self) -> int:
        return self._e._v_run_start[self._b][self.vehicle_id]

    @property
    def run_arrival(self) -> int:
        return self._e._v_run_arrival[self._b][self.vehicle_id]

    @property
    def lane_id(self) -> str | None:
        # Derived by queue membership: a queued vehicle sits in exactly
        # one lane of its current link.
        e, b, vid = self._e, self._b, self.vehicle_id
        if self.state is not VehicleState.QUEUED:
            return None
        k = e._link_of[self.current_link]
        base = b * e.NL + e._link_lane_start[k]
        for off in range(e._link_lane_count[k]):
            if vid in e._queues[base + off]:
                return e._lane_ids[e._link_lane_start[k] + off]
        return None

    @property
    def links_travelled(self) -> int:
        # Derived: every link entry advances the route index by one.
        e, b, vid = self._e, self._b, self.vehicle_id
        if e._v_inserted[b][vid] < 0:
            return 0
        return e._v_ridx[b][vid] + 1

    @property
    def wait_total(self) -> int:
        e, b, vid = self._e, self._b, self.vehicle_id
        anchor = e._v_anchor[b][vid]
        base = e._v_wait_base[b][vid]
        if anchor >= 0:
            return base + e.time - anchor
        return base

    @property
    def wait_current_link(self) -> int:
        e, b, vid = self._e, self._b, self.vehicle_id
        anchor = e._v_anchor[b][vid]
        if anchor >= 0:
            return e.time - anchor
        return e._v_wait_link[b][vid]

    @property
    def current_link(self) -> str:
        return self.route[self.route_index]

    @property
    def on_last_link(self) -> bool:
        return self.route_index == len(self.route) - 1

    @property
    def next_link(self) -> str | None:
        route = self.route
        index = self.route_index + 1
        return route[index] if index < len(route) else None

    def travel_time(self, now: int) -> int:
        end = self.finished
        if end is None:
            end = now
        return max(0, end - self.created)


class _SignalView:
    """Read/write :class:`SignalState`-shaped view over one replica signal."""

    __slots__ = ("_e", "_b", "_s", "plan", "yellow_time")

    def __init__(self, engine: SoAEngine, b: int, s: int) -> None:
        self._e = engine
        self._b = b
        self._s = s
        self.plan = engine._plans[s]
        self.yellow_time = engine.yellow_time

    @property
    def current_phase_index(self) -> int:
        return int(self._e._cur[self._b, self._s])

    @property
    def pending_phase_index(self) -> int | None:
        value = int(self._e._pend[self._b, self._s])
        return None if value < 0 else value

    @property
    def yellow_remaining(self) -> int:
        return int(self._e._yel[self._b, self._s])

    @property
    def time_in_phase(self) -> int:
        return int(self._e._tip[self._b, self._s])

    @property
    def in_yellow(self) -> bool:
        return self.yellow_remaining > 0

    @property
    def current_phase(self):
        return self.plan.phases[self.current_phase_index]

    def permits(self, movement) -> bool:
        if self.in_yellow:
            return False
        return self.current_phase.permits(movement)

    def request_phase(self, phase_index: int) -> None:
        self._e.request_phase(self._b, self._e._sig_nodes[self._s], phase_index)


class _LazyMapping:
    """Minimal read-only mapping facade built from a keys list + getter."""

    __slots__ = ("_keys", "_get")

    def __init__(self, keys, get) -> None:
        self._keys = keys
        self._get = get

    def __getitem__(self, key):
        return self._get(key)

    def get(self, key, default=None):
        try:
            return self._get(key)
        except (KeyError, SimulationError):
            return default

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def __contains__(self, key):
        return key in self._keys

    def keys(self):
        return list(self._keys)

    def items(self):
        return [(key, self._get(key)) for key in self._keys]

    def values(self):
        return [self._get(key) for key in self._keys]


class SoAReplicaView:
    """One replica of an :class:`SoAEngine` behind the ``Simulation`` API.

    Detectors, rewards, metrics, agents, ``tsc_env``, and ``repro.serve``
    interact with a simulation exclusively through this surface, so a
    replica view is a drop-in ``sim`` object.  ``step()`` advances the
    whole engine and is therefore only allowed on single-replica engines;
    batched engines advance in lockstep via ``engine.step()`` (see
    :class:`repro.eval.batched.LockstepEnvGroup`).
    """

    def __init__(self, engine: SoAEngine, b: int) -> None:
        self.engine = engine
        self.b = b
        self.network = engine.network
        self.phase_plans = engine.phase_plans
        self.demand = engine._demands[b]
        self.yellow_time = engine.yellow_time
        self.saturation_rate = engine.saturation_rate
        self.startup_lost_time = engine.startup_lost_time
        self.teleport_time = engine.teleport_time
        #: Optional metric registry (``tsc_env.attach_telemetry``).
        self.metrics = None
        self._vehicle_views: dict[int, _VehicleView] = {}
        self._signal_views = {
            nid: _SignalView(engine, b, s)
            for s, nid in enumerate(engine._sig_nodes)
        }
        self.signals = _LazyMapping(
            engine._sig_nodes, self._signal_views.__getitem__
        )

    # The mappings below are built per access rather than stored: a
    # stored mapping would hold a bound method of this view, and the
    # resulting cycle would keep the whole engine alive after the episode
    # until the cyclic garbage collector happens to run.
    @property
    def running(self) -> _LazyMapping:
        return _LazyMapping(self.engine._link_ids, self._running_views)

    @property
    def lane_queues(self) -> _LazyMapping:
        return _LazyMapping(self.engine._lane_ids, self._queue_views)

    @property
    def vehicles(self) -> "_VehiclesMapping":
        return _VehiclesMapping(self)

    # -- lifecycle -----------------------------------------------------
    @property
    def time(self) -> int:
        return self.engine.time

    @property
    def teleport_count(self) -> int:
        return self.engine.teleport_count[self.b]

    def set_phase(self, node_id: str, phase_index: int) -> None:
        self.engine.request_phase(self.b, node_id, phase_index)

    def set_capacity_factor(self, link_id: str, factor: float) -> None:
        """Engine-wide capacity scaling (applies to every replica)."""
        self.engine.set_capacity_factor(link_id, factor)

    @property
    def capacity_factors(self) -> dict[str, float]:
        return self.engine.capacity_factors

    @property
    def incidents(self):
        return self.engine.incidents

    @incidents.setter
    def incidents(self, schedule) -> None:
        self.engine.incidents = schedule

    def step(self, ticks: int = 1) -> None:
        if self.engine.batch != 1:
            raise SimulationError(
                "replica views of a batched SoAEngine advance in lockstep "
                "via engine.step(); per-view step() needs batch == 1"
            )
        self.engine.step(ticks)
        if self.metrics is not None:
            self.metrics.count("sim.ticks", ticks)

    def run_fixed_time(self, programs, ticks: int) -> None:
        if self.engine.batch != 1:
            raise SimulationError(
                "per-view run_fixed_time() needs batch == 1"
            )
        self.engine.run_fixed_time(programs, ticks)

    # -- vehicle/queue views -------------------------------------------
    def _vehicle(self, vid: int) -> _VehicleView:
        view = self._vehicle_views.get(vid)
        if view is None:
            view = self._vehicle_views[vid] = _VehicleView(
                self.engine, self.b, vid
            )
        return view

    def _running_views(self, link_id: str) -> list[_VehicleView]:
        k = self.engine._link_index_or_raise(link_id)
        return [self._vehicle(vid) for vid in self.engine._running[self.b][k]]

    def _queue_views(self, lane_id: str) -> list[_VehicleView]:
        l = self.engine._lane_index_or_raise(lane_id)
        queue = self.engine._queues[self.b * self.engine.NL + l]
        return [self._vehicle(vid) for vid in queue]

    @property
    def finished_vehicles(self) -> list[_VehicleView]:
        return [self._vehicle(vid) for vid in self.engine._finished[self.b]]

    @property
    def link_occupancy(self) -> dict[str, int]:
        occ = self.engine._occ[self.b]
        return {lid: occ[k] for k, lid in enumerate(self.engine._link_ids)}

    @property
    def insertion_queues(self) -> dict[str, list[_VehicleView]]:
        engine = self.engine
        gbase = self.b * engine.NO
        out: dict[str, list[_VehicleView]] = {}
        for o, k in enumerate(engine._origin_links):
            dq = engine._pend_dq[gbase + o]
            if dq:
                out[engine._link_ids[k]] = [self._vehicle(v) for v in dq]
        return out

    # -- Simulation introspection API ----------------------------------
    def discharge_credit(self, lane_id: str) -> float:
        l = self.engine._lane_index_or_raise(lane_id)
        return float(self.engine._credit[self.b * self.engine.NL + l])

    def queue_length(self, lane_id: str) -> int:
        l = self.engine._lane_index_or_raise(lane_id)
        return len(self.engine._queues[self.b * self.engine.NL + l])

    def halting_count(self, link_id: str) -> int:
        engine = self.engine
        k = engine._link_index_or_raise(link_id)
        base = self.b * engine.NL + engine._link_lane_start[k]
        return sum(
            len(engine._queues[base + off])
            for off in range(engine._link_lane_count[k])
        )

    def head_wait(self, lane_id: str) -> int:
        engine = self.engine
        l = engine._lane_index_or_raise(lane_id)
        queue = engine._queues[self.b * engine.NL + l]
        if not queue:
            return 0
        anchor = engine._v_anchor[self.b][queue[0]]
        if anchor >= 0:
            return engine.time - anchor
        return engine._v_wait_link[self.b][queue[0]]

    def link_head_wait(self, link_id: str) -> int:
        engine = self.engine
        k = engine._link_index_or_raise(link_id)
        start = engine._link_lane_start[k]
        return max(
            self.head_wait(engine._lane_ids[start + off])
            for off in range(engine._link_lane_count[k])
        )

    def detector_inputs(self) -> tuple[np.ndarray, ...]:
        return self.engine.detector_inputs([self.b])

    def vehicles_in_network(self) -> int:
        return (
            self.engine._inserted_cnt[self.b]
            - self.engine._finished_cnt[self.b]
        )

    def pending_insertions(self) -> int:
        return self.engine._arr_ptr[self.b] - self.engine._inserted_cnt[self.b]

    @property
    def total_created(self) -> int:
        return self.engine._arr_ptr[self.b]

    def is_drained(self) -> bool:
        return self.vehicles_in_network() == 0 and self.pending_insertions() == 0


class _VehiclesMapping:
    """``sim.vehicles``-shaped mapping: vehicle id -> vehicle view."""

    __slots__ = ("_view",)

    def __init__(self, view: SoAReplicaView) -> None:
        self._view = view

    def _count(self) -> int:
        return self._view.engine._arr_ptr[self._view.b]

    def __len__(self) -> int:
        return self._count()

    def __contains__(self, vid: int) -> bool:
        return 0 <= vid < self._count()

    def __getitem__(self, vid: int) -> _VehicleView:
        if not 0 <= vid < self._count():
            raise KeyError(vid)
        return self._view._vehicle(vid)

    def __iter__(self):
        return iter(range(self._count()))

    def keys(self):
        return range(self._count())

    def values(self):
        return [self._view._vehicle(vid) for vid in range(self._count())]

    def items(self):
        return [
            (vid, self._view._vehicle(vid)) for vid in range(self._count())
        ]

"""Discrete-time mesoscopic traffic simulation engine.

This is the SUMO substitute (DESIGN.md sections 2 and 6).  Time advances
in 1-second ticks.  Vehicles traverse links at free-flow speed, join
per-lane FIFO queues at stop lines, and discharge at a saturation rate
when their movement has green and the downstream link has storage space.
The model captures the phenomena the paper's evaluation depends on:

* queue growth and *spillback* (full links block upstream discharge),
* *head-of-line blocking* on shared lanes (a left-turner waiting for its
  phase blocks through traffic behind it — paper Fig. 2),
* oversaturation and recovery (insertion queues at origins let demand
  exceed network capacity without losing vehicles),
* yellow intervals during which nothing discharges.

Two step implementations coexist.  The default *fast path* precomputes
lane/movement indexes at construction (stable lane→index maps, a numpy
discharge-credit array, per-movement candidate-lane tables, per-phase
approach-green sets) and exploits the engine's ordering invariants to
skip work; ``fast_path=False`` selects the original straight-line
reference implementation.  Both produce bit-identical trajectories —
``tests/sim/test_engine_equivalence.py`` pins this.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.sim.demand import DemandGenerator
from repro.sim.network import Lane, RoadNetwork, TurnType
from repro.sim.signal import FixedTimeProgram, PhasePlan, SignalState
from repro.sim.vehicle import Vehicle, VehicleState

#: Default saturation flow: 1800 veh/h/lane = 0.5 veh/s/lane, the textbook
#: value the paper's Background section refers to.
DEFAULT_SATURATION_RATE = 0.5

#: Seconds of start-up lost time after a phase switch (HCM convention):
#: freshly-greened lanes do not discharge at saturation immediately.  This
#: is what makes very short fixed-time greens (the paper's 5 s phases)
#: inefficient, and what rewards adaptive controllers for *holding* a
#: productive phase.
DEFAULT_STARTUP_LOST_TIME = 2.0

#: Gap-acceptance window for permissive left turns: a left may proceed
#: during its approach's through phase only when the opposing approach has
#: no queue and no vehicle running within this many metres of its stop
#: line.  This mirrors SUMO's permitted-left behaviour on shared lanes and
#: prevents a waiting left-turner from being an *absorbing* blockage.
DEFAULT_PERMISSIVE_GAP_M = 50.0


class Simulation:
    """One simulation run over a validated :class:`RoadNetwork`.

    Parameters
    ----------
    network:
        The road network (validated automatically if needed).
    demand:
        Vehicle source; ``emit`` is called once per tick.
    phase_plans:
        Signal phase plan per signalized node; every signalized node must
        be covered.
    yellow_time:
        Seconds of all-red-ish yellow inserted before each phase switch.
    saturation_rate:
        Discharge rate per lane, vehicles/second.
    fast_path:
        Use the index-precomputed step implementation (default).  The
        reference implementation (``False``) computes every lookup from
        the network dicts each tick; trajectories are bit-identical.
    """

    def __init__(
        self,
        network: RoadNetwork,
        demand: DemandGenerator | None,
        phase_plans: dict[str, PhasePlan],
        yellow_time: int = 2,
        saturation_rate: float = DEFAULT_SATURATION_RATE,
        startup_lost_time: float = DEFAULT_STARTUP_LOST_TIME,
        permissive_left: bool = True,
        permissive_gap_m: float = DEFAULT_PERMISSIVE_GAP_M,
        teleport_time: int | None = None,
        fast_path: bool = True,
    ) -> None:
        if not network.validated:
            network.validate()
        missing = set(network.signalized_nodes()) - set(phase_plans)
        if missing:
            raise SimulationError(f"no phase plan for signalized nodes: {sorted(missing)}")
        if saturation_rate <= 0:
            raise SimulationError("saturation_rate must be positive")
        if startup_lost_time < 0:
            raise SimulationError("startup_lost_time must be non-negative")
        self.network = network
        self.demand = demand
        self.yellow_time = yellow_time
        self.saturation_rate = saturation_rate
        self.startup_lost_time = startup_lost_time
        self.permissive_left = permissive_left
        self.permissive_gap_m = permissive_gap_m
        if teleport_time is not None and teleport_time <= 0:
            raise SimulationError("teleport_time must be positive when set")
        #: SUMO-style watchdog: a queue-head vehicle waiting longer than
        #: this many seconds on one link is force-moved onto its next
        #: link (ignoring storage) so absolute deadlocks cannot freeze an
        #: evaluation forever.  ``None`` (default) disables teleporting —
        #: the paper-faithful setting where gridlock is gridlock.
        self.teleport_time = teleport_time
        self.teleport_count = 0
        #: Optional :class:`repro.obs.metrics.MetricRegistry` sink
        #: (attached by ``TrafficSignalEnv.attach_telemetry``); one
        #: ``is not None`` check per :meth:`step` call when unset.
        self.metrics = None
        self.phase_plans = phase_plans
        self._opposing_link = self._build_opposing_map()

        self.time = 0
        self.signals: dict[str, SignalState] = {
            node_id: SignalState(plan, yellow_time) for node_id, plan in phase_plans.items()
        }
        self._signal_items: list[tuple[str, SignalState]] = list(self.signals.items())
        self.vehicles: dict[int, Vehicle] = {}
        self.lane_queues: dict[str, deque[Vehicle]] = {
            lane.lane_id: deque() for link in network.links.values() for lane in link.lanes
        }
        self.running: dict[str, list[Vehicle]] = {link_id: [] for link_id in network.links}
        self.link_occupancy: dict[str, int] = {link_id: 0 for link_id in network.links}
        self.insertion_queues: dict[str, deque[Vehicle]] = {}
        self._discharge_credit: dict[str, float] = {
            lane_id: 0.0 for lane_id in self.lane_queues
        }
        self._insertion_credit: dict[str, float] = {}
        self.finished_vehicles: list[Vehicle] = []
        self._total_created = 0
        #: Free-flow traversal ticks per link, resolved once (used by
        #: ``_enter_link`` on both paths; the value is a pure function of
        #: immutable link geometry).
        self._freeflow: dict[str, int] = {
            link_id: link.freeflow_ticks for link_id, link in network.links.items()
        }
        #: (num_lanes, storage) per link for the insertion loop.
        self._insert_caps: dict[str, tuple[int, int]] = {
            link_id: (link.num_lanes, link.storage)
            for link_id, link in network.links.items()
        }
        #: Effective per-link storage, the value every entry check
        #: (discharge spillback, insertion) consults.  Equal to the
        #: static ``link.storage`` until an incident scales it via
        #: :meth:`set_capacity_factor`.
        self._link_storage: dict[str, int] = {
            link_id: link.storage for link_id, link in network.links.items()
        }
        #: Active capacity factors per link (absent = 1.0, healthy).
        self.capacity_factors: dict[str, float] = {}
        #: Optional :class:`repro.faults.incidents.IncidentSchedule`
        #: applied at the start of every tick (lane/link closures).
        self.incidents = None
        self.fast_path = bool(fast_path)
        if self.fast_path:
            self._build_fast_structures()

    # ------------------------------------------------------------------
    # Fast-path index construction
    # ------------------------------------------------------------------
    def _build_fast_structures(self) -> None:
        network = self.network
        #: Per-phase approach-green sets per signalized node: phase index
        #: → set of in-links with a green THROUGH/RIGHT movement.
        self._approach_green: dict[str, list[frozenset[str]]] = {}
        for node_id, plan in self.phase_plans.items():
            per_phase = []
            for phase in plan.phases:
                greens = set()
                for green_in, green_out in phase.green_movements:
                    movement = network.movements.get((green_in, green_out))
                    if movement is not None and movement.turn in (
                        TurnType.THROUGH,
                        TurnType.RIGHT,
                    ):
                        greens.add(green_in)
                per_phase.append(frozenset(greens))
            self._approach_green[node_id] = per_phase

        #: Lane records in the exact reference discharge order, plus a
        #: stable lane_id → array-index map.  Tuples, not objects: the
        #: discharge loop unpacks them in the ``for`` header, which beats
        #: per-field attribute access on the hottest path.
        self._lane_records: list[
            tuple[int, deque, str, SignalState | None, list[frozenset[str]] | None]
        ] = []
        self._lane_index: dict[str, int] = {}
        for link in network.links.values():
            signal = self.signals.get(link.to_node)
            greens = self._approach_green.get(link.to_node) if signal else None
            for lane in link.lanes:
                index = len(self._lane_records)
                lane_id = lane.lane_id
                self._lane_records.append(
                    (index, self.lane_queues[lane_id], link.link_id, signal, greens)
                )
                self._lane_index[lane_id] = index
        #: Discharge credit as a flat array (fast path's replacement for
        #: the ``_discharge_credit`` dict — see :meth:`discharge_credit`).
        self._credit = np.zeros(len(self._lane_records), dtype=np.float64)
        #: Statically-blocked-head memo (parallel lists indexed like the
        #: credit array): a head vehicle denied for reasons that depend
        #: only on (head, phase, yellow) — red light, yellow, or a left
        #: turn whose approach has no green — stays denied while the same
        #: head faces the same signal state (its route position is frozen
        #: while queued), so the permission logic can be skipped
        #: wholesale.  Dynamic denials (opposing traffic, spillback) are
        #: never memoized.
        lane_count = len(self._lane_records)
        self._red_head = [-1] * lane_count
        self._red_phase = [-1] * lane_count
        self._red_yellow = [False] * lane_count
        #: Array indices of all incoming lanes per signalized node, for
        #: the startup-lost-time fancy-index write.
        self._node_lane_indices: dict[str, np.ndarray] = {
            node_id: np.asarray(
                [
                    self._lane_index[lane.lane_id]
                    for link_id in network.nodes[node_id].incoming
                    for lane in network.links[link_id].lanes
                ],
                dtype=np.intp,
            )
            for node_id in self.signals
        }

        #: Candidate lanes per movement (and per link for exiting
        #: vehicles): (in_link, out_link|None) → (lane_capacity,
        #: [(lane_id, queue), ...]).  Replaces ``_choose_lane``'s
        #: per-call ``lanes_for_movement`` recomputation.
        self._move_candidates: dict[tuple[str, str | None], tuple[int, list]] = {}
        for (in_link, out_link), movement in network.movements.items():
            link = network.links[in_link]
            lanes = [
                (lane.lane_id, self.lane_queues[lane.lane_id])
                for lane in network.lanes_for_movement(movement)
            ]
            self._move_candidates[(in_link, out_link)] = (link.lane_capacity, lanes)
        for link_id, link in network.links.items():
            lanes = [
                (lane.lane_id, self.lane_queues[lane.lane_id]) for lane in link.lanes
            ]
            self._move_candidates[(link_id, None)] = (link.lane_capacity, lanes)

        self._move_turn: dict[tuple[str, str], TurnType] = {
            key: movement.turn for key, movement in network.movements.items()
        }
        #: Opposing-approach lookup for the permissive-left gap check:
        #: in_link → None | (opposing_link_id, [queues], length, speed).
        self._opposing_data: dict[str, tuple | None] = {}
        for in_link, opposing in self._opposing_link.items():
            if opposing is None:
                self._opposing_data[in_link] = None
            else:
                link = network.links[opposing]
                self._opposing_data[in_link] = (
                    opposing,
                    [self.lane_queues[lane.lane_id] for lane in link.lanes],
                    link.length,
                    link.speed_limit,
                )
        #: Blocked-retry memo: lane choice is a pure function of the
        #: link's queue lengths, so a vehicle that failed to find a lane
        #: need not retry until one of its link's queues changed.  Every
        #: queue mutation bumps the link's version counter.
        self._queue_version: dict[str, int] = {link_id: 0 for link_id in network.links}
        self._blocked_at_version: dict[int, int] = {}
        #: Per-link advance fast-out: ``link_id → (version, count)``
        #: recording that the link's first ``count`` running vehicles are
        #: all blocked as of queue-version ``version``.  While the
        #: version is unchanged and no further vehicle has arrived, the
        #: whole link can be skipped.
        self._advance_skip: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Agent-facing control surface
    # ------------------------------------------------------------------
    def set_phase(self, node_id: str, phase_index: int) -> None:
        """Request a phase for a signalized intersection."""
        self.signals[node_id].request_phase(phase_index)

    def set_capacity_factor(self, link_id: str, factor: float) -> None:
        """Scale a link's effective storage (incident modelling).

        ``factor`` in ``[0, 1]`` multiplies the link's static storage:
        ``0.0`` is a full closure (nothing may enter; vehicles already
        on the link keep moving and drain out), fractions model partial
        lane closures.  Every entry check — discharge spillback and
        origin insertion — consults the effective value each attempt, so
        factors may change at any tick and the change takes effect
        immediately.  ``1.0`` restores the healthy capacity.
        """
        link = self.network.links.get(link_id)
        if link is None:
            raise SimulationError(f"unknown link {link_id!r}")
        if not 0.0 <= factor <= 1.0:
            raise SimulationError(
                f"capacity factor must lie in [0, 1], got {factor}"
            )
        effective = int(link.storage * factor)
        self._link_storage[link_id] = effective
        self._insert_caps[link_id] = (link.num_lanes, effective)
        if factor >= 1.0:
            self.capacity_factors.pop(link_id, None)
        else:
            self.capacity_factors[link_id] = factor

    def run_fixed_time(self, programs: dict[str, FixedTimeProgram], ticks: int) -> None:
        """Drive all signals from fixed-time programs for ``ticks`` seconds."""
        entries = [
            (self.signals[node_id], program) for node_id, program in programs.items()
        ]
        for _ in range(ticks):
            t = self.time
            for signal, program in entries:
                signal.request_phase(program.phase_at(t))
            self._step_once()

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    def step(self, ticks: int = 1) -> None:
        """Advance the simulation by ``ticks`` seconds."""
        for _ in range(ticks):
            self._step_once()
        if self.metrics is not None:
            self.metrics.count("sim.ticks", ticks)

    def _step_once(self) -> None:
        if self.incidents is not None:
            self.incidents.apply(self)
        self._update_signals()
        if self.fast_path:
            self._discharge_queues_fast()
        else:
            self._discharge_queues()
        if self.teleport_time is not None:
            self._teleport_stuck()
        if self.fast_path:
            self._advance_running_fast()
        else:
            self._advance_running()
        self._insert_pending()
        self._generate_demand()
        # Queued vehicles' waits accrue lazily from the clock (see
        # Vehicle.wait_total); no per-vehicle sweep is needed here.
        self.time += 1

    def _dequeue_head(self, queue: deque, link_id: str) -> Vehicle:
        """Shared dequeue bookkeeping for a vehicle leaving a lane queue.

        Pops the head, releases its storage slot, and (fast path)
        invalidates the memos keyed on this link's queue state.  Lazy
        wait materialization is *not* done here: both exits from a queue
        (``_finish_vehicle`` and ``_enter_link``) materialize the wait
        themselves, so the counters stay exact on every path.  The
        discharge loops inline these same operations on their hot path —
        any change here must be mirrored there; the teleporting lockstep
        test in ``tests/sim/test_engine_equivalence.py`` pins the pair.
        """
        head = queue.popleft()
        self.link_occupancy[link_id] -= 1
        if self.fast_path:
            self._queue_version[link_id] += 1
        return head

    def _teleport_stuck(self) -> None:
        """Force queue heads stuck beyond ``teleport_time`` onto their
        next link (or out of the network), ignoring signal and storage.

        At most one vehicle teleports per lane per tick (each lane's
        head is examined exactly once), and the dequeue uses the same
        bookkeeping as the discharge paths via :meth:`_dequeue_head`.
        """
        for lane_id, queue in self.lane_queues.items():
            if not queue:
                continue
            head = queue[0]
            if head.wait_current_link <= self.teleport_time:
                continue
            self._dequeue_head(queue, head.current_link)
            self.teleport_count += 1
            if head.next_link is None:
                self._finish_vehicle(head)
            else:
                self._enter_link(head, head.next_link)

    def _update_signals(self) -> None:
        for node_id, signal in self._signal_items:
            signal.tick()
            if signal.just_switched:
                signal.just_switched = False
                self._apply_startup_lost_time(node_id)

    def _apply_startup_lost_time(self, node_id: str) -> None:
        """Penalise discharge credit of all approaches after a phase switch."""
        penalty = self.startup_lost_time * self.saturation_rate
        if penalty <= 0:
            return
        if self.fast_path:
            self._credit[self._node_lane_indices[node_id]] = -penalty
            return
        for link_id in self.network.nodes[node_id].incoming:
            for lane in self.network.links[link_id].lanes:
                self._discharge_credit[lane.lane_id] = -penalty

    def _build_opposing_map(self) -> dict[str, str | None]:
        """For each incoming link of a signalized node, the incoming link
        arriving from the opposite direction (or None)."""
        opposing: dict[str, str | None] = {}
        for node_id in self.network.signalized_nodes():
            incoming = self.network.nodes[node_id].incoming
            headings = {l: self.network.link_heading(l) for l in incoming}
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
                opposing[link_id] = best
        return opposing

    def _opposing_clear(self, in_link: str) -> bool:
        """Gap acceptance: is the opposing approach free of conflicts?"""
        opposing = self._opposing_link.get(in_link)
        if opposing is None:
            return True
        link = self.network.links[opposing]
        for lane in link.lanes:
            if self.lane_queues[lane.lane_id]:
                return False
        for vehicle in self.running[opposing]:
            travelled = link.speed_limit * (self.time - vehicle.run_start)
            if link.length - travelled <= self.permissive_gap_m:
                return False
        return True

    def _opposing_clear_fast(self, in_link: str) -> bool:
        data = self._opposing_data.get(in_link)
        if data is None:
            return True
        opposing, queues, length, speed = data
        for queue in queues:
            if queue:
                return False
        gap = self.permissive_gap_m
        time = self.time
        for vehicle in self.running[opposing]:
            travelled = speed * (time - vehicle.run_start)
            if length - travelled <= gap:
                return False
        return True

    def _movement_permitted(self, vehicle: Vehicle) -> bool:
        """May this queue-head vehicle cross the intersection this tick?

        A movement proceeds when its phase is green (protected), or — for
        left turns with ``permissive_left`` enabled — when the same
        approach currently has a green through/right movement and the
        opposing approach is clear (permitted left, as in SUMO's shared
        through/left lanes).
        """
        link = self.network.links[vehicle.current_link]
        node_id = link.to_node
        next_link = vehicle.next_link
        if next_link is None:
            return True  # exiting at an unsignalized terminal via queue
        signal = self.signals.get(node_id)
        if signal is None:
            return True  # unsignalized node: always permitted
        key = (vehicle.current_link, next_link)
        if signal.permits(key):
            return True
        if not self.permissive_left or signal.in_yellow:
            return False
        movement = self.network.movements.get(key)
        if movement is None or movement.turn is not TurnType.LEFT:
            return False
        phase = signal.current_phase
        approach_has_green = any(
            green_in == vehicle.current_link
            and self.network.movements[(green_in, green_out)].turn
            in (TurnType.THROUGH, TurnType.RIGHT)
            for green_in, green_out in phase.green_movements
        )
        if not approach_has_green:
            return False
        return self._opposing_clear(vehicle.current_link)

    def _discharge_queues(self) -> None:
        for link in self.network.links.values():
            for lane in link.lanes:
                lane_id = lane.lane_id
                queue = self.lane_queues[lane_id]
                credit = min(self._discharge_credit[lane_id] + self.saturation_rate, 1.0)
                while queue and credit >= 1.0:
                    head = queue[0]
                    if not self._movement_permitted(head):
                        break  # head-of-line blocking
                    next_link_id = head.next_link
                    if next_link_id is None:
                        # Exit the network from the queue.
                        queue.popleft()
                        self.link_occupancy[link.link_id] -= 1
                        self._finish_vehicle(head)
                        credit -= 1.0
                        continue
                    if self.link_occupancy[next_link_id] >= self._link_storage[next_link_id]:
                        break  # spillback: downstream full
                    queue.popleft()
                    self.link_occupancy[link.link_id] -= 1
                    self._enter_link(head, next_link_id)
                    credit -= 1.0
                self._discharge_credit[lane_id] = credit if queue else 0.0

    def _discharge_queues_fast(self) -> None:
        """Index-precomputed twin of :meth:`_discharge_queues`.

        Same iteration order, same credit arithmetic, same permission
        logic — but all per-tick dict/property lookups are resolved
        through the structures built in :meth:`_build_fast_structures`,
        and ``_movement_permitted`` is inlined.
        """
        credit_arr = self._credit
        # Work on a plain-float list and bulk-write back: per-element
        # numpy scalar indexing costs more than the whole conversion.
        credits = credit_arr.tolist()
        rate = self.saturation_rate
        occupancy = self.link_occupancy
        storage = self._link_storage
        versions = self._queue_version
        permissive = self.permissive_left
        move_turn = self._move_turn
        left = TurnType.LEFT
        red_head = self._red_head
        red_phase = self._red_phase
        red_yellow = self._red_yellow
        for index, queue, link_id, signal, greens in self._lane_records:
            if not queue:
                if credits[index]:
                    credits[index] = 0.0
                continue
            if (
                signal is not None
                and red_head[index] == queue[0].vehicle_id
                and red_phase[index] == signal.current_phase_index
                and red_yellow[index] == (signal.yellow_remaining > 0)
            ):
                # Same statically-blocked head under the same signal
                # state: only the credit accrues this tick.
                credit = credits[index] + rate
                credits[index] = credit if credit < 1.0 else 1.0
                continue
            credit = credits[index] + rate
            if credit > 1.0:
                credit = 1.0
            while credit >= 1.0:
                head = queue[0]
                route = head.route
                next_index = head.route_index + 1
                next_link_id = route[next_index] if next_index < len(route) else None
                static_block = False
                if next_link_id is None or signal is None:
                    permitted = True
                elif signal.yellow_remaining > 0:
                    permitted = False
                    static_block = True
                else:
                    key = (link_id, next_link_id)
                    phase_index = signal.current_phase_index
                    if key in signal.plan.phases[phase_index].green_movements:
                        permitted = True
                    elif (
                        not permissive
                        or move_turn.get(key) is not left
                        or link_id not in greens[phase_index]
                    ):
                        permitted = False
                        static_block = True
                    else:
                        permitted = self._opposing_clear_fast(link_id)
                if not permitted:
                    if static_block:
                        red_head[index] = head.vehicle_id
                        red_phase[index] = signal.current_phase_index
                        red_yellow[index] = signal.yellow_remaining > 0
                    break  # head-of-line blocking
                if next_link_id is None:
                    # Exit the network from the queue.
                    queue.popleft()
                    occupancy[link_id] -= 1
                    versions[link_id] += 1
                    self._finish_vehicle(head)
                    credit -= 1.0
                elif occupancy[next_link_id] >= storage[next_link_id]:
                    break  # spillback: downstream full
                else:
                    queue.popleft()
                    occupancy[link_id] -= 1
                    versions[link_id] += 1
                    self._enter_link(head, next_link_id)
                    credit -= 1.0
                if not queue:
                    break
            credits[index] = credit if queue else 0.0
        credit_arr[:] = credits

    def _enter_link(self, vehicle: Vehicle, link_id: str) -> None:
        vehicle.route_index += 1
        if vehicle.route[vehicle.route_index] != link_id:
            raise SimulationError(
                f"vehicle {vehicle.vehicle_id} routed onto {link_id!r} but route says "
                f"{vehicle.route[vehicle.route_index]!r}"
            )
        vehicle.state = VehicleState.RUNNING
        vehicle.lane_id = None
        vehicle.run_start = self.time
        vehicle.run_arrival = self.time + self._freeflow[link_id]
        self._materialize_wait(vehicle)
        vehicle.wait_link_base = 0
        vehicle.links_travelled += 1
        self.running[link_id].append(vehicle)
        self.link_occupancy[link_id] += 1

    def _choose_lane(self, vehicle: Vehicle) -> Lane | None:
        """Shortest candidate lane permitting the vehicle's next movement."""
        link = self.network.links[vehicle.current_link]
        next_link = vehicle.next_link
        if next_link is None:
            candidates = link.lanes
        else:
            movement = self.network.movements.get((vehicle.current_link, next_link))
            if movement is None:
                raise SimulationError(
                    f"vehicle {vehicle.vehicle_id} needs undeclared movement "
                    f"({vehicle.current_link!r}, {next_link!r})"
                )
            candidates = self.network.lanes_for_movement(movement)
        best: Lane | None = None
        best_len = None
        for lane in candidates:
            queue_len = len(self.lane_queues[lane.lane_id])
            if queue_len >= link.lane_capacity:
                continue
            if best is None or queue_len < best_len:
                best, best_len = lane, queue_len
        return best

    def _advance_running(self) -> None:
        for link_id, running in self.running.items():
            if not running:
                continue
            still_running: list[Vehicle] = []
            for vehicle in running:
                if vehicle.run_arrival > self.time:
                    still_running.append(vehicle)
                    continue
                if vehicle.on_last_link:
                    # Reached the end of its final link: leave the network.
                    self.link_occupancy[link_id] -= 1
                    self._finish_vehicle(vehicle)
                    continue
                lane = self._choose_lane(vehicle)
                if lane is None:
                    # All candidate lanes full: remain (blocked) on the link.
                    still_running.append(vehicle)
                    continue
                vehicle.state = VehicleState.QUEUED
                vehicle.lane_id = lane.lane_id
                vehicle.wait_anchor = self.time
                vehicle.wait_clock = self
                self.lane_queues[lane.lane_id].append(vehicle)
            self.running[link_id] = still_running

    def _advance_running_fast(self) -> None:
        """Ordering-aware twin of :meth:`_advance_running`.

        Exploits two invariants the reference loop does not:

        * ``running`` lists are sorted by non-decreasing ``run_arrival``
          (appends use ``time + freeflow_ticks`` with constant per-link
          free-flow time, and blocked vehicles — which have already
          arrived — are re-queued ahead of in-flight ones), so only the
          arrived *prefix* needs processing;
        * lane choice is a pure function of the link's queue lengths, so
          a blocked vehicle need not retry ``_choose_lane`` until the
          link's queue-version counter changes.
        """
        time = self.time
        occupancy = self.link_occupancy
        versions = self._queue_version
        blocked_at = self._blocked_at_version
        candidates_map = self._move_candidates
        advance_skip = self._advance_skip
        for link_id, running in self.running.items():
            if not running or running[0].run_arrival > time:
                continue
            skip = advance_skip.get(link_id)
            if skip is not None and skip[0] == versions[link_id]:
                count = skip[1]
                if len(running) == count or running[count].run_arrival > time:
                    continue  # same blocked prefix, nothing new arrived
            held: list[Vehicle] = []
            boundary = len(running)
            uniform = True
            for position, vehicle in enumerate(running):
                if vehicle.run_arrival > time:
                    boundary = position
                    break
                route = vehicle.route
                route_index = vehicle.route_index
                if route_index == len(route) - 1:
                    # Reached the end of its final link: leave the network.
                    occupancy[link_id] -= 1
                    self._finish_vehicle(vehicle)
                    continue
                vehicle_id = vehicle.vehicle_id
                version = versions[link_id]
                if blocked_at.get(vehicle_id) == version:
                    held.append(vehicle)  # queues unchanged since last try
                    continue
                entry = candidates_map.get((link_id, route[route_index + 1]))
                if entry is None:
                    raise SimulationError(
                        f"vehicle {vehicle_id} needs undeclared movement "
                        f"({link_id!r}, {route[route_index + 1]!r})"
                    )
                capacity, lanes = entry
                best_lane_id = None
                best_queue = None
                best_len = 0
                for lane_id, lane_queue in lanes:
                    queue_len = len(lane_queue)
                    if queue_len >= capacity:
                        continue
                    if best_queue is None or queue_len < best_len:
                        best_lane_id, best_queue, best_len = lane_id, lane_queue, queue_len
                if best_queue is None:
                    # All candidate lanes full: remain (blocked) on the link.
                    blocked_at[vehicle_id] = version
                    held.append(vehicle)
                    continue
                blocked_at.pop(vehicle_id, None)
                vehicle.state = VehicleState.QUEUED
                vehicle.lane_id = best_lane_id
                vehicle.wait_anchor = time
                vehicle.wait_clock = self
                best_queue.append(vehicle)
                versions[link_id] = version + 1
                if held:
                    # Earlier holds were recorded at a now-stale version.
                    uniform = False
            self.running[link_id] = held + running[boundary:]
            if uniform and held:
                advance_skip[link_id] = (versions[link_id], len(held))
            elif skip is not None:
                del advance_skip[link_id]

    def _insert_pending(self) -> None:
        for link_id, pending in self.insertion_queues.items():
            if not pending:
                continue
            num_lanes, storage = self._insert_caps[link_id]
            credit = min(
                self._insertion_credit.get(link_id, 0.0)
                + self.saturation_rate * num_lanes,
                float(num_lanes),
            )
            while pending and credit >= 1.0:
                if self.link_occupancy[link_id] >= storage:
                    # Spillback parity with lane discharge credit: while
                    # the origin link is full, banked insertion credit is
                    # capped at one vehicle (a lane's cap), so the
                    # unblock tick inserts at most 1 + that tick's
                    # accrual instead of bursting the whole blocked
                    # window (DESIGN.md, "Insertion-credit semantics").
                    credit = 1.0
                    break
                vehicle = pending.popleft()
                vehicle.inserted = self.time
                vehicle.route_index = -1  # _enter_link advances to 0
                self._enter_link(vehicle, link_id)
                credit -= 1.0
            self._insertion_credit[link_id] = credit if pending else 0.0

    def _generate_demand(self) -> None:
        if self.demand is None:
            return
        for vehicle_id, route in self.demand.emit(self.time):
            vehicle = Vehicle(vehicle_id=vehicle_id, route=route, created=self.time)
            self.vehicles[vehicle_id] = vehicle
            self.insertion_queues.setdefault(route[0], deque()).append(vehicle)
            self._total_created += 1

    def _materialize_wait(self, vehicle: Vehicle) -> None:
        """Fold the clock-derived wait of a dequeued vehicle into its
        stored counters (see :class:`Vehicle` queue bookkeeping)."""
        anchor = vehicle.wait_anchor
        if anchor >= 0:
            waited = self.time - anchor
            vehicle.wait_base += waited
            vehicle.wait_link_base = waited
            vehicle.wait_anchor = -1
            vehicle.wait_clock = None

    def _finish_vehicle(self, vehicle: Vehicle) -> None:
        self._materialize_wait(vehicle)
        vehicle.state = VehicleState.FINISHED
        vehicle.finished = self.time
        vehicle.lane_id = None
        self.finished_vehicles.append(vehicle)

    # ------------------------------------------------------------------
    # Introspection used by detectors / metrics / agents
    # ------------------------------------------------------------------
    def discharge_credit(self, lane_id: str) -> float:
        """Current discharge credit of a lane (diagnostics/tests).

        Unknown lane ids raise :class:`~repro.errors.SimulationError`
        with the same message on both ``fast_path`` settings (the fast
        path resolves through ``_lane_index``, the slow path through
        ``_discharge_credit``; both key sets equal the network's lanes).
        """
        try:
            if self.fast_path:
                return float(self._credit[self._lane_index[lane_id]])
            return self._discharge_credit[lane_id]
        except KeyError:
            raise SimulationError(f"unknown lane id {lane_id!r}") from None

    def queue_length(self, lane_id: str) -> int:
        """Vehicles halted in a lane (ground truth, unlimited range)."""
        try:
            return len(self.lane_queues[lane_id])
        except KeyError:
            raise SimulationError(f"unknown lane id {lane_id!r}") from None

    def halting_count(self, link_id: str) -> int:
        """Total halted vehicles across a link's lanes."""
        try:
            link = self.network.links[link_id]
        except KeyError:
            raise SimulationError(f"unknown link id {link_id!r}") from None
        return sum(len(self.lane_queues[lane.lane_id]) for lane in link.lanes)

    def head_wait(self, lane_id: str) -> int:
        """Accumulated wait (s) of the first vehicle in a lane, 0 if empty."""
        try:
            queue = self.lane_queues[lane_id]
        except KeyError:
            raise SimulationError(f"unknown lane id {lane_id!r}") from None
        if not queue:
            return 0
        return queue[0].wait_current_link

    def link_head_wait(self, link_id: str) -> int:
        """Maximum head wait across a link's lanes (paper's link-level wait)."""
        try:
            link = self.network.links[link_id]
        except KeyError:
            raise SimulationError(f"unknown link id {link_id!r}") from None
        return max(self.head_wait(lane.lane_id) for lane in link.lanes)

    def detector_inputs(self) -> tuple[np.ndarray, ...]:
        """This tick's detector inputs as one-replica ``(1, ·)`` rows.

        ``(queue lengths, head waits)`` per lane and running-vehicle
        counts per link, in network lane/link order (the order of
        ``lane_queues`` and ``running``, which is the detectors'
        ``_lane_order``/``_link_order``), plus the flat ``run_start`` of
        every running vehicle in link, then running order.  Consumed by
        :func:`repro.sim.detectors.bulk_readings`.
        """
        queues = self.lane_queues.values()
        num_lanes = len(self.lane_queues)
        qlen = np.fromiter(map(len, queues), dtype=np.int64, count=num_lanes)
        head_wait = np.fromiter(
            (queue[0].wait_current_link if queue else 0 for queue in queues),
            dtype=np.int64,
            count=num_lanes,
        )
        running = list(self.running.values())
        counts = np.fromiter(map(len, running), dtype=np.int64, count=len(running))
        run_start = np.fromiter(
            (vehicle.run_start for vehicles in running for vehicle in vehicles),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        return qlen[None], head_wait[None], counts[None], run_start

    def vehicles_in_network(self) -> int:
        return sum(self.link_occupancy.values())

    def pending_insertions(self) -> int:
        return sum(len(queue) for queue in self.insertion_queues.values())

    @property
    def total_created(self) -> int:
        return self._total_created

    def is_drained(self) -> bool:
        """True when no vehicle remains anywhere in the system."""
        return self.vehicles_in_network() == 0 and self.pending_insertions() == 0

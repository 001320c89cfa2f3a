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

This is the straight-line *reference* implementation of the DESIGN.md
section 6 semantics: every lookup is resolved from the network dicts
each tick.  Production runs use the batched :class:`repro.sim.soa.SoAEngine`,
which is bit-identical with it; this engine is the oracle the SoA
lockstep tests, the engine fuzzer and the zoo's engine agreement check
compare against, and the ``EnvConfig(engine="object")`` switch.
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
        #: ``_enter_link``; the value is a pure function of immutable
        #: link geometry).
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
        self._discharge_queues()
        if self.teleport_time is not None:
            self._teleport_stuck()
        self._advance_running()
        self._insert_pending()
        self._generate_demand()
        # Queued vehicles' waits accrue lazily from the clock (see
        # Vehicle.wait_total); no per-vehicle sweep is needed here.
        self.time += 1

    def _teleport_stuck(self) -> None:
        """Force queue heads stuck beyond ``teleport_time`` onto their
        next link (or out of the network), ignoring signal and storage.

        At most one vehicle teleports per lane per tick (each lane's
        head is examined exactly once).  The dequeue does what the
        discharge loop does; the wait is materialized by
        ``_finish_vehicle`` or ``_enter_link``.
        """
        for lane_id, queue in self.lane_queues.items():
            if not queue:
                continue
            head = queue[0]
            if head.wait_current_link <= self.teleport_time:
                continue
            queue.popleft()
            self.link_occupancy[head.current_link] -= 1
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

        Unknown lane ids raise :class:`~repro.errors.SimulationError`.
        """
        try:
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

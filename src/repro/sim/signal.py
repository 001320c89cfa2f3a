"""Signal phases, fixed-time programs, and per-intersection signal state.

A *phase* is a set of movements that receive green simultaneously
(paper Fig. 3).  Agents act by requesting a phase; when the requested
phase differs from the active one, the controller inserts a yellow
interval of ``yellow_time`` seconds during which no movement discharges,
then switches (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.sim.network import MovementKey, RoadNetwork, TurnType


@dataclass(frozen=True)
class Phase:
    """A named set of simultaneously-green movements."""

    name: str
    green_movements: frozenset[MovementKey]

    def permits(self, movement: MovementKey) -> bool:
        return movement in self.green_movements

    @property
    def green_order(self) -> list[MovementKey]:
        """The green movements in one stable order: sorted keys.

        A phase's pressure is a float sum over its green set, so its bits
        depend on the summation order.  A ``frozenset`` of string-keyed
        movements iterates in an order that follows per-process string
        hashing (``PYTHONHASHSEED``); pressure sums run in this order
        instead, so every process picks the same phase.
        """
        return sorted(self.green_movements)


@dataclass
class PhasePlan:
    """The ordered phase set of one intersection (its action space)."""

    node_id: str
    phases: list[Phase]

    def __post_init__(self) -> None:
        if not self.phases:
            raise NetworkError(f"node {self.node_id!r} has an empty phase plan")

    @property
    def num_phases(self) -> int:
        return len(self.phases)


class SignalState:
    """Dynamic signal state of one intersection.

    The state machine has two modes: GREEN (active phase's movements may
    discharge) and YELLOW (``yellow_remaining > 0``; nothing discharges).
    """

    def __init__(self, plan: PhasePlan, yellow_time: int = 2) -> None:
        if yellow_time < 0:
            raise NetworkError("yellow_time must be non-negative")
        self.plan = plan
        self.yellow_time = yellow_time
        self.current_phase_index = 0
        self.pending_phase_index: int | None = None
        self.yellow_remaining = 0
        self.time_in_phase = 0
        #: True for the single tick on which a phase switch committed; the
        #: engine uses this to apply start-up lost time to the new greens.
        self.just_switched = False

    @property
    def in_yellow(self) -> bool:
        return self.yellow_remaining > 0

    @property
    def current_phase(self) -> Phase:
        return self.plan.phases[self.current_phase_index]

    def request_phase(self, phase_index: int) -> None:
        """Ask for a phase change; a yellow interval precedes any switch."""
        if not 0 <= phase_index < self.plan.num_phases:
            raise NetworkError(
                f"phase index {phase_index} out of range for node "
                f"{self.plan.node_id!r} ({self.plan.num_phases} phases)"
            )
        if phase_index == self.current_phase_index and not self.in_yellow:
            return
        self.pending_phase_index = phase_index
        if not self.in_yellow:
            self.yellow_remaining = self.yellow_time
            if self.yellow_time == 0:
                self._commit()

    def _commit(self) -> None:
        assert self.pending_phase_index is not None
        self.current_phase_index = self.pending_phase_index
        self.pending_phase_index = None
        self.time_in_phase = 0
        self.just_switched = True

    def tick(self) -> None:
        """Advance the signal state by one second.

        ``just_switched`` is *not* cleared here — the simulation engine
        consumes and clears it after applying start-up lost time.
        """
        if self.in_yellow:
            self.yellow_remaining -= 1
            if self.yellow_remaining == 0:
                self._commit()
        else:
            self.time_in_phase += 1

    def permits(self, movement: MovementKey) -> bool:
        """Whether ``movement`` may discharge this tick."""
        if self.in_yellow:
            return False
        return self.current_phase.permits(movement)


@dataclass
class FixedTimeProgram:
    """A cyclic fixed-time schedule: ``(phase_index, green_seconds)`` pairs."""

    stages: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.stages:
            raise NetworkError("fixed-time program needs at least one stage")
        for index, duration in self.stages:
            if duration <= 0:
                raise NetworkError("fixed-time stage durations must be positive")
        # Expanded second-by-second schedule, built lazily on first
        # phase_at() call so per-tick queries are one table lookup instead
        # of a stage scan.  Only valid for integer durations.
        self._phase_table: tuple[int, ...] | None = None

    @property
    def cycle_length(self) -> int:
        return sum(duration for _, duration in self.stages)

    def phase_at(self, t: int) -> int:
        """Phase index scheduled at absolute second ``t``."""
        table = self._phase_table
        if table is None:
            if all(isinstance(duration, int) for _, duration in self.stages):
                expanded: list[int] = []
                for phase_index, duration in self.stages:
                    expanded.extend([phase_index] * duration)
                table = self._phase_table = tuple(expanded)
            else:  # fractional durations: keep the exact scan semantics
                offset = t % self.cycle_length
                for phase_index, duration in self.stages:
                    if offset < duration:
                        return phase_index
                    offset -= duration
                raise AssertionError("unreachable")
        return table[t % len(table)]


def default_four_phase_plan(network: RoadNetwork, node_id: str) -> PhasePlan:
    """Build the paper's four-phase plan (Fig. 3) for a grid intersection.

    Phases 1/2 serve North-South bound movements (through+right, then
    left), phases 3/4 serve West-East bound movements.  Orientation is
    determined from link headings; right turns ride along with their
    approach's through phase.  Intersections with fewer approaches (grid
    edges, T-junctions) get only the phases that have at least one
    movement.
    """
    ns_through: set[MovementKey] = set()
    ns_left: set[MovementKey] = set()
    ew_through: set[MovementKey] = set()
    ew_left: set[MovementKey] = set()
    for movement in network.movements_at(node_id):
        hx, hy = network.link_heading(movement.in_link)
        is_ns = abs(hy) >= abs(hx)
        if movement.turn == TurnType.LEFT:
            (ns_left if is_ns else ew_left).add(movement.key)
        else:  # THROUGH and RIGHT share a phase; U-turns join lefts
            if movement.turn == TurnType.UTURN:
                (ns_left if is_ns else ew_left).add(movement.key)
            else:
                (ns_through if is_ns else ew_through).add(movement.key)
    candidates = [
        Phase("NS-through", frozenset(ns_through)),
        Phase("NS-left", frozenset(ns_left)),
        Phase("EW-through", frozenset(ew_through)),
        Phase("EW-left", frozenset(ew_left)),
    ]
    phases = [p for p in candidates if p.green_movements]
    if not phases:
        raise NetworkError(f"node {node_id!r} has no movements to build phases from")
    return PhasePlan(node_id, phases)

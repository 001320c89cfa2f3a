"""Synthetic grid networks (paper Section VI-A, Fig. 6).

The paper's 6x6 grid has:

* 200 m spacing between intersections,
* two-lane **arterial** streets east-west (right lane shared
  through+right, left lane dedicated left-turn),
* one-lane **avenues** north-south (single lane shared for all turns),
* 50 m detector coverage,
* a four-phase plan per intersection (Fig. 3), 5 s green actions + 2 s
  yellow.

Fringe (terminal) nodes sit one block outside the grid on every approach
so that demand can be injected toward and drained from every border
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError
from repro.sim.network import RoadNetwork, TurnType
from repro.sim.signal import PhasePlan, default_four_phase_plan

#: Arterial (east-west) lane layout: left lane turns left, right lane is
#: the paper's shared through/right lane.
ARTERIAL_LANES = [
    frozenset({TurnType.LEFT, TurnType.UTURN}),
    frozenset({TurnType.THROUGH, TurnType.RIGHT}),
]
#: Avenue (north-south) lane layout: one lane shared by every movement.
AVENUE_LANES = [frozenset({TurnType.LEFT, TurnType.THROUGH, TurnType.RIGHT, TurnType.UTURN})]


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a synthetic grid scenario."""

    rows: int = 6
    cols: int = 6
    block_length: float = 200.0
    speed_limit: float = 13.89  # 50 km/h
    arterial_horizontal: bool = True  # east-west streets get 2 lanes

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise NetworkError("grid needs at least 1x1 intersections")
        if self.block_length <= 0 or self.speed_limit <= 0:
            raise NetworkError("grid geometry must be positive")


def intersection_id(row: int, col: int) -> str:
    """Canonical id of the intersection at (row, col); row 0 is north."""
    return f"I{row}_{col}"


def terminal_id(side: str, index: int) -> str:
    """Canonical id of a fringe terminal (side in n/s/e/w)."""
    return f"T{side}{index}"


def link_id(from_node: str, to_node: str) -> str:
    """Canonical id of the directed link between two nodes."""
    return f"{from_node}->{to_node}"


class GridScenario:
    """A built grid: network + phase plans + corridor lookup helpers."""

    def __init__(self, spec: GridSpec) -> None:
        self.spec = spec
        self.network = RoadNetwork()
        self._build_nodes()
        self._build_links()
        self._build_movements()
        self.network.validate()
        self.phase_plans: dict[str, PhasePlan] = {
            node_id: default_four_phase_plan(self.network, node_id)
            for node_id in self.network.signalized_nodes()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        spec = self.spec
        block = spec.block_length
        for row in range(spec.rows):
            for col in range(spec.cols):
                self.network.add_node(
                    intersection_id(row, col), x=col * block, y=-row * block, signalized=True
                )
        for col in range(spec.cols):
            self.network.add_node(terminal_id("n", col), x=col * block, y=block)
            self.network.add_node(
                terminal_id("s", col), x=col * block, y=-spec.rows * block
            )
        for row in range(spec.rows):
            self.network.add_node(terminal_id("w", row), x=-block, y=-row * block)
            self.network.add_node(
                terminal_id("e", row), x=spec.cols * block, y=-row * block
            )

    def _lane_layout(self, horizontal: bool) -> list[frozenset[TurnType]]:
        if horizontal == self.spec.arterial_horizontal:
            return list(ARTERIAL_LANES)
        return list(AVENUE_LANES)

    def _add_two_way(self, a: str, b: str, horizontal: bool) -> None:
        layout = self._lane_layout(horizontal)
        for src, dst in ((a, b), (b, a)):
            self.network.add_link(
                link_id(src, dst),
                src,
                dst,
                length=self.spec.block_length,
                num_lanes=len(layout),
                speed_limit=self.spec.speed_limit,
                lane_turns=layout,
            )

    def _build_links(self) -> None:
        spec = self.spec
        for row in range(spec.rows):
            for col in range(spec.cols):
                here = intersection_id(row, col)
                if col + 1 < spec.cols:
                    self._add_two_way(here, intersection_id(row, col + 1), horizontal=True)
                if row + 1 < spec.rows:
                    self._add_two_way(here, intersection_id(row + 1, col), horizontal=False)
        for col in range(spec.cols):
            self._add_two_way(terminal_id("n", col), intersection_id(0, col), horizontal=False)
            self._add_two_way(
                intersection_id(spec.rows - 1, col), terminal_id("s", col), horizontal=False
            )
        for row in range(spec.rows):
            self._add_two_way(terminal_id("w", row), intersection_id(row, 0), horizontal=True)
            self._add_two_way(
                intersection_id(row, spec.cols - 1), terminal_id("e", row), horizontal=True
            )

    def _build_movements(self) -> None:
        """Declare every non-U-turn movement at every intersection."""
        network = self.network
        for node_id in network.signalized_nodes():
            node = network.nodes[node_id]
            for in_link_id in node.incoming:
                in_link = network.links[in_link_id]
                for out_link_id in node.outgoing:
                    out_link = network.links[out_link_id]
                    if out_link.to_node == in_link.from_node:
                        continue  # skip U-turns back where we came from
                    network.add_movement(in_link_id, out_link_id)

    # ------------------------------------------------------------------
    # Corridor helpers (used by the flow patterns)
    # ------------------------------------------------------------------
    def column_route_links(self, col: int, southbound: bool) -> tuple[str, str]:
        """(origin_link, destination_link) of a full vertical corridor."""
        if not 0 <= col < self.spec.cols:
            raise NetworkError(f"column {col} outside grid")
        top_terminal = terminal_id("n", col)
        bottom_terminal = terminal_id("s", col)
        first = intersection_id(0, col)
        last = intersection_id(self.spec.rows - 1, col)
        if southbound:
            return link_id(top_terminal, first), link_id(last, bottom_terminal)
        return link_id(bottom_terminal, last), link_id(first, top_terminal)

    def row_route_links(self, row: int, eastbound: bool) -> tuple[str, str]:
        """(origin_link, destination_link) of a full horizontal corridor."""
        if not 0 <= row < self.spec.rows:
            raise NetworkError(f"row {row} outside grid")
        west_terminal = terminal_id("w", row)
        east_terminal = terminal_id("e", row)
        first = intersection_id(row, 0)
        last = intersection_id(row, self.spec.cols - 1)
        if eastbound:
            return link_id(west_terminal, first), link_id(last, east_terminal)
        return link_id(east_terminal, last), link_id(first, west_terminal)


def build_grid(rows: int = 6, cols: int = 6, **kwargs) -> GridScenario:
    """Convenience constructor; ``build_grid()`` is the paper's 6x6 grid.

    Construction is O(N) in the number of intersections (every loop is
    per-node/per-link/per-movement with bounded degree), so city-scale
    grids — a 50x50 grid has 2,500 intersections — build in
    seconds, not minutes.
    """
    return GridScenario(GridSpec(rows=rows, cols=cols, **kwargs))


def parse_grid_size(text: str) -> tuple[int, int]:
    """Parse a ``"WxH"`` grid size into ``(rows, cols)``.

    ``W`` is the number of columns (width, east-west extent) and ``H``
    the number of rows; a bare ``"N"`` means the square ``NxN``.  This
    is the format of the ``--grid-size`` CLI flag.
    """
    cleaned = text.strip().lower()
    parts = cleaned.split("x")
    try:
        if len(parts) == 1:
            width = height = int(parts[0])
        elif len(parts) == 2:
            width, height = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise NetworkError(
            f"grid size must look like '50x50' (WxH) or '50', got {text!r}"
        ) from None
    if width < 1 or height < 1:
        raise NetworkError(f"grid size must be at least 1x1, got {text!r}")
    return height, width

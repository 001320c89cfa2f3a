"""Road-network data model: nodes, links, lanes, movements.

This is the static description of the world the simulator runs on.  The
model follows the paper's intersection design (Section VI-A): directed
links between nodes, one or more lanes per link, and *movements*
(in-link -> out-link turns) that may share a lane — the configuration that
produces head-of-line blocking, which the paper calls out as essential for
realism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import NetworkError

#: Space one stored (queued) vehicle occupies, metres.  SUMO's default
#: vehicle length + minimum gap is 5 m + 2.5 m.
VEHICLE_SPACE_M = 7.5


class TurnType(Enum):
    """Classification of a movement by heading change."""

    LEFT = "left"
    THROUGH = "through"
    RIGHT = "right"
    UTURN = "uturn"


MovementKey = tuple[str, str]
"""A movement is identified by its ``(in_link_id, out_link_id)`` pair."""


@dataclass(frozen=True)
class Movement:
    """A permitted turn from one link onto another at a node."""

    in_link: str
    out_link: str
    turn: TurnType

    @property
    def key(self) -> MovementKey:
        return (self.in_link, self.out_link)


@dataclass
class Lane:
    """One lane of a link.

    ``allowed_turns`` lists the turn types vehicles in this lane may take;
    a lane with more than one entry is a *shared* lane (e.g. the paper's
    combined through/right arterial lane).
    """

    link_id: str
    index: int
    allowed_turns: frozenset[TurnType]

    @property
    def lane_id(self) -> str:
        return f"{self.link_id}#{self.index}"


@dataclass
class Link:
    """A directed road between two nodes."""

    link_id: str
    from_node: str
    to_node: str
    length: float
    speed_limit: float
    lanes: list[Lane] = field(default_factory=list)

    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    @property
    def freeflow_ticks(self) -> int:
        """Free-flow traversal time in whole 1-second ticks (at least 1)."""
        return max(1, int(math.ceil(self.length / self.speed_limit)))

    @property
    def lane_capacity(self) -> int:
        """Vehicles one lane can store bumper-to-bumper."""
        return max(1, int(self.length // VEHICLE_SPACE_M))

    @property
    def storage(self) -> int:
        """Total vehicles the link can hold."""
        return self.lane_capacity * self.num_lanes


@dataclass
class Node:
    """An intersection or terminal point of the network."""

    node_id: str
    x: float
    y: float
    signalized: bool = False
    incoming: list[str] = field(default_factory=list)
    outgoing: list[str] = field(default_factory=list)


def classify_turn(
    in_heading: tuple[float, float], out_heading: tuple[float, float]
) -> TurnType:
    """Classify a turn from unit heading vectors using the signed angle.

    Angles within +-45 degrees are THROUGH; positive (counter-clockwise)
    turns up to ~135 degrees are LEFT, negative are RIGHT; anything beyond
    is a U-turn.
    """
    ix, iy = in_heading
    ox, oy = out_heading
    cross = ix * oy - iy * ox
    dot = ix * ox + iy * oy
    angle = math.degrees(math.atan2(cross, dot))
    if -45.0 <= angle <= 45.0:
        return TurnType.THROUGH
    if 45.0 < angle <= 135.0:
        return TurnType.LEFT
    if -135.0 <= angle < -45.0:
        return TurnType.RIGHT
    return TurnType.UTURN


class RoadNetwork:
    """Container and index for the static road network.

    Build with :meth:`add_node` / :meth:`add_link` / :meth:`add_movement`,
    then call :meth:`validate` once before simulation.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.movements: dict[MovementKey, Movement] = {}
        self._movements_by_in_link: dict[str, list[Movement]] = {}
        self._movements_by_node: dict[str, list[Movement]] = {}
        self._heading_cache: dict[str, tuple[float, float]] = {}
        #: Static detector lookups keyed by coverage, owned by
        #: :mod:`repro.sim.detectors`, plus the index arrays derived from
        #: them (the step extractor's slot/lane maps, the max-pressure
        #: fallback's phase rows) and the SoA engine's static tables
        #: (:mod:`repro.sim.soa`).  Kept on the network so they live
        #: exactly as long as it does; every ``add_*`` clears them.
        self.detector_memo: dict[object, object] = {}
        self._validated = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, x: float, y: float, signalized: bool = False) -> Node:
        if node_id in self.nodes:
            raise NetworkError(f"duplicate node id {node_id!r}")
        node = Node(node_id, float(x), float(y), signalized)
        self.nodes[node_id] = node
        self._changed()
        return node

    def add_link(
        self,
        link_id: str,
        from_node: str,
        to_node: str,
        length: float,
        num_lanes: int,
        speed_limit: float = 13.89,
        lane_turns: list[frozenset[TurnType]] | None = None,
    ) -> Link:
        """Add a directed link.

        ``lane_turns`` optionally assigns permitted turn types per lane
        (index 0 = leftmost lane); by default every lane permits every
        turn.
        """
        if link_id in self.links:
            raise NetworkError(f"duplicate link id {link_id!r}")
        if from_node not in self.nodes or to_node not in self.nodes:
            raise NetworkError(f"link {link_id!r} references unknown node")
        if from_node == to_node:
            raise NetworkError(f"link {link_id!r} is a self-loop")
        if length <= 0 or num_lanes <= 0 or speed_limit <= 0:
            raise NetworkError(f"link {link_id!r} has non-positive geometry")
        link = Link(link_id, from_node, to_node, float(length), float(speed_limit))
        if lane_turns is None:
            lane_turns = [frozenset(TurnType)] * num_lanes
        if len(lane_turns) != num_lanes:
            raise NetworkError(
                f"link {link_id!r}: {len(lane_turns)} lane_turns for {num_lanes} lanes"
            )
        for index, turns in enumerate(lane_turns):
            link.lanes.append(Lane(link_id, index, frozenset(turns)))
        self.links[link_id] = link
        self.nodes[from_node].outgoing.append(link_id)
        self.nodes[to_node].incoming.append(link_id)
        self._changed()
        return link

    def add_movement(
        self, in_link: str, out_link: str, turn: TurnType | None = None
    ) -> Movement:
        """Declare that traffic may turn from ``in_link`` onto ``out_link``.

        The turn type is classified from geometry when not given.
        """
        if in_link not in self.links or out_link not in self.links:
            raise NetworkError(f"movement ({in_link!r}, {out_link!r}) references unknown link")
        a, b = self.links[in_link], self.links[out_link]
        if a.to_node != b.from_node:
            raise NetworkError(
                f"movement ({in_link!r}, {out_link!r}) links do not meet at a node"
            )
        if (in_link, out_link) in self.movements:
            raise NetworkError(f"duplicate movement ({in_link!r}, {out_link!r})")
        if turn is None:
            turn = classify_turn(self.link_heading(in_link), self.link_heading(out_link))
        movement = Movement(in_link, out_link, turn)
        self.movements[movement.key] = movement
        self._movements_by_in_link.setdefault(in_link, []).append(movement)
        self._movements_by_node.setdefault(a.to_node, []).append(movement)
        self._changed()
        return movement

    def _changed(self) -> None:
        self._validated = False
        self.detector_memo.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def link_heading(self, link_id: str) -> tuple[float, float]:
        """Unit direction vector of a link.

        Node coordinates are fixed once a link exists, so headings are
        cached after the first computation.
        """
        cached = self._heading_cache.get(link_id)
        if cached is not None:
            return cached
        link = self.links[link_id]
        a, b = self.nodes[link.from_node], self.nodes[link.to_node]
        dx, dy = b.x - a.x, b.y - a.y
        norm = math.hypot(dx, dy)
        if norm == 0:
            raise NetworkError(f"link {link_id!r} has zero length geometry")
        heading = (dx / norm, dy / norm)
        self._heading_cache[link_id] = heading
        return heading

    def movements_from(self, in_link: str) -> list[Movement]:
        return self._movements_by_in_link.get(in_link, [])

    def movements_at(self, node_id: str) -> list[Movement]:
        return self._movements_by_node.get(node_id, [])

    def lanes_for_movement(self, movement: Movement) -> list[Lane]:
        """Lanes of the in-link a vehicle may use for this movement."""
        link = self.links[movement.in_link]
        return [lane for lane in link.lanes if movement.turn in lane.allowed_turns]

    def movements_for_lane(self, lane: Lane) -> list[Movement]:
        """Movements that may be executed from this lane."""
        return [
            m
            for m in self.movements_from(lane.link_id)
            if m.turn in lane.allowed_turns
        ]

    def signalized_nodes(self) -> list[str]:
        return [nid for nid, node in self.nodes.items() if node.signalized]

    def neighbours(self, node_id: str) -> list[str]:
        """Signalized intersections directly connected to ``node_id``."""
        found: list[str] = []
        node = self.nodes[node_id]
        for link_id in node.incoming + node.outgoing:
            link = self.links[link_id]
            other = link.from_node if link.to_node == node_id else link.to_node
            if self.nodes[other].signalized and other != node_id and other not in found:
                found.append(other)
        return found

    def upstream_neighbours(self, node_id: str) -> list[str]:
        """Signalized intersections with a link *into* ``node_id``.

        These are the candidate communication partners in PairUpLight —
        the intersections whose congestion will arrive here next.
        """
        found: list[str] = []
        for link_id in self.nodes[node_id].incoming:
            other = self.links[link_id].from_node
            if self.nodes[other].signalized and other not in found:
                found.append(other)
        return found

    def two_hop_neighbours(self, node_id: str) -> list[str]:
        """Signalized intersections exactly two hops away."""
        one_hop = set(self.neighbours(node_id))
        found: list[str] = []
        for mid in one_hop:
            for far in self.neighbours(mid):
                if far != node_id and far not in one_hop and far not in found:
                    found.append(far)
        return found

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural consistency; raises :class:`NetworkError`."""
        for key, movement in self.movements.items():
            if not self.lanes_for_movement(movement):
                raise NetworkError(f"movement {key} has no lane permitting its turn")
        for node_id, node in self.nodes.items():
            if node.signalized and not self.movements_at(node_id):
                raise NetworkError(f"signalized node {node_id!r} has no movements")
        self._validated = True

    @property
    def validated(self) -> bool:
        return self._validated

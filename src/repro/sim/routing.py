"""Static shortest-path routing over the road network.

Routes are computed on the link graph: a route is a sequence of link ids
where each consecutive pair is a declared movement.  Dijkstra runs over
link-to-link transitions weighted by free-flow traversal time, which
matches SUMO's default ``duarouter`` behaviour for uncongested planning.
"""

from __future__ import annotations

import heapq

from repro.errors import NetworkError
from repro.sim.network import RoadNetwork

#: ``RoadNetwork.detector_memo`` key of the route memo.
_MEMO_KEY = "routes"


class Router:
    """Shortest-route computation, memoized per network.

    Routes live in ``network.detector_memo`` (which every
    ``RoadNetwork.add_*`` clears), so every router on one network, and
    hence every env built on it, computes each route once.
    """

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network

    def _memo(self) -> tuple[dict, dict]:
        """``(routes, arcs)``: the memoized routes by ``(origin,
        destination)``, and each link's ``(next link, its free-flow
        ticks)`` successors in declaration order."""
        memo = self.network.detector_memo.get(_MEMO_KEY)
        if memo is None:
            links = self.network.links
            arcs = {
                link_id: [
                    (m.out_link, links[m.out_link].freeflow_ticks)
                    for m in self.network.movements_from(link_id)
                ]
                for link_id in links
            }
            memo = self.network.detector_memo[_MEMO_KEY] = ({}, arcs)
        return memo

    def route(self, origin_link: str, destination_link: str) -> list[str]:
        """Shortest link-sequence from ``origin_link`` to ``destination_link``.

        Both endpoints are included; the caller gets its own list.
        Raises :class:`NetworkError` when no route exists.
        """
        routes, arcs = self._memo()
        key = (origin_link, destination_link)
        cached = routes.get(key)
        if cached is not None:
            return list(cached)
        if origin_link not in self.network.links:
            raise NetworkError(f"unknown origin link {origin_link!r}")
        if destination_link not in self.network.links:
            raise NetworkError(f"unknown destination link {destination_link!r}")

        # Dijkstra over links; cost of entering a link is its free-flow time.
        start_cost = self.network.links[origin_link].freeflow_ticks
        best: dict[str, float] = {origin_link: start_cost}
        parent: dict[str, str] = {}
        frontier: list[tuple[float, str]] = [(start_cost, origin_link)]
        while frontier:
            cost, link_id = heapq.heappop(frontier)
            if cost > best.get(link_id, float("inf")):
                continue
            if link_id == destination_link:
                break
            for nxt, link_cost in arcs[link_id]:
                nxt_cost = cost + link_cost
                if nxt_cost < best.get(nxt, float("inf")):
                    best[nxt] = nxt_cost
                    parent[nxt] = link_id
                    heapq.heappush(frontier, (nxt_cost, nxt))
        if destination_link not in best:
            raise NetworkError(
                f"no route from {origin_link!r} to {destination_link!r}"
            )
        route = [destination_link]
        while route[-1] != origin_link:
            route.append(parent[route[-1]])
        route.reverse()
        routes[key] = tuple(route)
        return route

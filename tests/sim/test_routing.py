"""Router tests: shortest paths over the link graph."""

from __future__ import annotations

import heapq

import pytest

from repro.errors import NetworkError
from repro.scenarios.grid import build_grid
from repro.scenarios.monaco import build_monaco
from repro.sim.network import TurnType
from repro.sim.routing import Router
from tests_sim_helpers import diamond_network, straight_line_network


class TestBasicRouting:
    def test_straight_chain(self):
        router = Router(straight_line_network())
        assert router.route("l0", "l2") == ["l0", "l1", "l2"]

    def test_origin_equals_destination(self):
        router = Router(straight_line_network())
        assert router.route("l1", "l1") == ["l1"]

    def test_prefers_shorter_route(self):
        router = Router(diamond_network())
        route = router.route("ab", "de")
        assert route == ["ab", "bd", "de"]

    def test_long_route_when_forced(self):
        router = Router(diamond_network())
        route = router.route("ac", "de")
        assert route == ["ac", "cd", "de"]

    def test_unreachable_raises(self):
        router = Router(straight_line_network())
        with pytest.raises(NetworkError):
            router.route("l2", "l0")

    def test_unknown_links_raise(self):
        router = Router(straight_line_network())
        with pytest.raises(NetworkError):
            router.route("nope", "l0")
        with pytest.raises(NetworkError):
            router.route("l0", "nope")

    def test_route_is_copied_not_shared(self):
        network = straight_line_network()
        route = Router(network).route("l0", "l2")
        route.append("tampered")
        # A memo hit, through a second router on the same network.
        cached = Router(network).route("l0", "l2")
        assert cached == ["l0", "l1", "l2"]
        cached[0] = "tampered"
        assert Router(network).route("l0", "l2") == ["l0", "l1", "l2"]


class TestGridRouting:
    def test_route_follows_declared_movements(self):
        grid = build_grid(3, 3)
        router = Router(grid.network)
        origin, dest = grid.column_route_links(1, southbound=True)
        route = router.route(origin, dest)
        for a, b in zip(route[:-1], route[1:]):
            assert (a, b) in grid.network.movements

    def test_corridor_route_length(self):
        grid = build_grid(3, 3)
        router = Router(grid.network)
        origin, dest = grid.row_route_links(0, eastbound=True)
        route = router.route(origin, dest)
        # terminal->I0, I0->I1, I1->I2, I2->terminal = 4 links.
        assert len(route) == 4

    def test_l_shaped_route_exists(self):
        grid = build_grid(3, 3)
        router = Router(grid.network)
        col_in, _ = grid.column_route_links(0, southbound=True)
        _, row_out = grid.row_route_links(2, eastbound=True)
        route = router.route(col_in, row_out)
        assert route[0] == col_in
        assert route[-1] == row_out


def _fresh_dijkstra(network, origin, destination):
    """Textbook Dijkstra on the link graph, the reference for the memo:
    it reads every cost from ``Link.freeflow_ticks`` and memoizes nothing."""
    best = {origin: network.links[origin].freeflow_ticks}
    parent = {}
    frontier = [(best[origin], origin)]
    while frontier:
        cost, link_id = heapq.heappop(frontier)
        if cost > best.get(link_id, float("inf")):
            continue
        if link_id == destination:
            break
        for movement in network.movements_from(link_id):
            nxt = movement.out_link
            nxt_cost = cost + network.links[nxt].freeflow_ticks
            if nxt_cost < best.get(nxt, float("inf")):
                best[nxt] = nxt_cost
                parent[nxt] = link_id
                heapq.heappush(frontier, (nxt_cost, nxt))
    if destination not in best:
        return None
    route = [destination]
    while route[-1] != origin:
        route.append(parent[route[-1]])
    return route[::-1]


def _terminal_pairs(network):
    """Every (entry link, exit link) pair: links from and to unsignalized
    boundary nodes."""
    links, nodes = network.links.values(), network.nodes
    entries = [link.link_id for link in links if not nodes[link.from_node].signalized]
    exits = [link.link_id for link in links if not nodes[link.to_node].signalized]
    return [(a, b) for a in entries for b in exits]


class TestRouteMemo:
    """Routes are memoized once per network, shared by every Router on it."""

    @pytest.mark.parametrize(
        "network",
        [
            pytest.param(lambda: build_grid(6, 6).network, id="grid6x6"),
            pytest.param(lambda: build_monaco(seed=7).network, id="monaco"),
        ],
    )
    def test_memoized_routes_equal_fresh_dijkstra(self, network):
        network = network()
        pairs = _terminal_pairs(network)
        assert len(pairs) > 100
        warm = Router(network)
        for origin, dest in pairs:
            try:
                warm.route(origin, dest)
            except NetworkError:
                pass
        # A second router reads the first one's memo.
        reader = Router(network)
        found = 0
        for origin, dest in pairs:
            want = _fresh_dijkstra(network, origin, dest)
            if want is None:
                with pytest.raises(NetworkError):
                    reader.route(origin, dest)
            else:
                assert reader.route(origin, dest) == want
                found += 1
        assert found > 100

    def test_routers_on_one_network_share_the_memo(self):
        grid = build_grid(3, 3)
        network = grid.network
        origin, dest = grid.row_route_links(0, eastbound=True)
        Router(network).route(origin, dest)
        routes, _ = network.detector_memo["routes"]
        assert list(routes) == [(origin, dest)]
        Router(network).route(origin, dest)
        assert list(routes) == [(origin, dest)]

    def test_add_link_invalidates_the_memo(self):
        network = diamond_network()
        router = Router(network)
        assert router.route("ac", "de") == ["ac", "cd", "de"]
        assert "routes" in network.detector_memo
        # A short cut from c over to b, so a-c-b-d beats a-c-d.
        network.add_link("cb", "c", "b", 50, 1, speed_limit=10.0)
        assert "routes" not in network.detector_memo
        assert router.route("cb", "cb") == ["cb"]
        network.add_movement("ac", "cb", turn=TurnType.LEFT)
        network.add_movement("cb", "bd", turn=TurnType.RIGHT)
        assert router.route("ac", "de") == ["ac", "cb", "bd", "de"]
        assert router.route("ac", "de") == _fresh_dijkstra(network, "ac", "de")

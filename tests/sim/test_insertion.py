"""Vehicle insertion mechanics: rate limiting, backlog, full networks."""

from __future__ import annotations

import pytest

from repro.sim.demand import DemandGenerator, Flow, RateProfile
from repro.sim.engine import Simulation
from repro.sim.network import RoadNetwork, TurnType
from repro.sim.routing import Router
from repro.sim.signal import Phase, PhasePlan


def short_corridor(entry_lanes: int = 1):
    net = RoadNetwork()
    net.add_node("A", 0, 0)
    net.add_node("B", 100, 0, signalized=True)
    net.add_node("C", 200, 0)
    all_turns = frozenset(TurnType)
    net.add_link("in", "A", "B", 100, entry_lanes, speed_limit=10.0,
                 lane_turns=[all_turns] * entry_lanes)
    net.add_link("out", "B", "C", 100, 1, speed_limit=10.0)
    net.add_movement("in", "out", turn=TurnType.THROUGH)
    net.validate()
    plans = {
        "B": PhasePlan(
            "B", [Phase("go", frozenset({("in", "out")})), Phase("stop", frozenset())]
        )
    }
    return net, plans


class TestInsertion:
    def test_insertion_rate_limited_by_lanes(self):
        """A burst of simultaneous departures enters at ~saturation rate."""
        net, plans = short_corridor(entry_lanes=1)
        # 7200 veh/h for 5 s: 10 vehicles created almost at once.
        flows = [Flow("f", "in", "out", RateProfile.constant(7200, 5))]
        demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
        sim = Simulation(net, demand, plans)
        sim.step(8)
        # With 1 lane at 0.5 veh/s, at most ~4-5 inserted in 8 ticks.
        assert sim.vehicles_in_network() <= 6
        assert sim.pending_insertions() > 0

    def test_two_entry_lanes_insert_faster(self):
        counts = {}
        for lanes in (1, 2):
            net, plans = short_corridor(entry_lanes=lanes)
            flows = [Flow("f", "in", "out", RateProfile.constant(7200, 5))]
            demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
            sim = Simulation(net, demand, plans)
            sim.step(8)
            counts[lanes] = sim.vehicles_in_network()
        assert counts[2] > counts[1]

    def test_full_link_blocks_insertion(self):
        net, plans = short_corridor()
        flows = [Flow("f", "in", "out", RateProfile.constant(3600, 120))]
        demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
        sim = Simulation(net, demand, plans)
        sim.set_phase("B", 1)  # red forever
        sim.step(300)
        storage = net.links["in"].storage
        assert sim.link_occupancy["in"] == storage
        assert sim.pending_insertions() > 0

    def test_backlog_drains_after_demand_ends(self):
        net, plans = short_corridor()
        flows = [Flow("f", "in", "out", RateProfile.constant(3600, 30))]
        demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
        sim = Simulation(net, demand, plans)
        sim.step(600)  # green throughout
        assert sim.pending_insertions() == 0
        assert sim.is_drained()
        # Constant profile spans [0, 30] inclusive: 31 emissions at 1 veh/s.
        assert len(sim.finished_vehicles) == sim.total_created == 31

    def test_storage_unblock_does_not_burst(self):
        """Regression: banked insertion credit is clamped while the
        origin link is storage-blocked (DESIGN.md, "Insertion-credit
        semantics").

        A long red fills the 3-lane entry link while credit would accrue
        at 1.5/tick; on unblock an unclamped engine would dump
        ``num_lanes`` vehicles per freed slot.  With the clamp, no tick
        after the blocked window may insert more than
        ``floor(1.0 + rate * num_lanes) = 2`` vehicles.
        """
        net, plans = short_corridor(entry_lanes=3)
        flows = [Flow("f", "in", "out", RateProfile.constant(10800, 60))]
        demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
        sim = Simulation(net, demand, plans)
        sim.set_phase("B", 1)  # red: fill the link, bank a backlog
        sim.step(150)
        assert sim.link_occupancy["in"] == net.links["in"].storage
        assert sim.pending_insertions() > 0
        sim.set_phase("B", 0)  # green: storage frees as the queue drains
        inserted_per_tick = []
        for _ in range(200):
            before = sim.pending_insertions()
            sim.step()
            inserted_per_tick.append(before - sim.pending_insertions())
        assert sum(inserted_per_tick) > 0
        assert max(inserted_per_tick) <= 2

    def test_storage_unblock_engines_agree(self):
        """The clamp behaves identically on the object and SoA engines."""
        from repro.sim.soa import SoAEngine

        def run(engine: str) -> list[tuple[int, int, int]]:
            net, plans = short_corridor(entry_lanes=3)
            flows = [Flow("f", "in", "out", RateProfile.constant(10800, 60))]
            demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
            if engine == "soa":
                sim = SoAEngine(net, [demand], plans).view(0)
            else:
                sim = Simulation(net, demand, plans)
            sim.set_phase("B", 1)
            sim.step(150)
            sim.set_phase("B", 0)
            trace = []
            for _ in range(200):
                sim.step()
                trace.append(
                    (
                        sim.vehicles_in_network(),
                        sim.pending_insertions(),
                        len(sim.finished_vehicles),
                    )
                )
            return trace

        assert run("object") == run("soa")

    def test_insertion_delay_counted_in_travel_time(self):
        net, plans = short_corridor()
        flows = [Flow("f", "in", "out", RateProfile.constant(7200, 10))]
        demand = DemandGenerator(flows, Router(net), seed=0, stochastic=False)
        sim = Simulation(net, demand, plans)
        sim.step(600)
        times = [v.travel_time(sim.time) for v in sim.finished_vehicles]
        # Later vehicles waited outside the network; spread must exceed
        # the pure service-rate spacing of 2 s.
        assert max(times) - min(times) >= 10

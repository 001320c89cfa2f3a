"""``bulk_readings``, the one bulk detector kernel, against the raw readings.

Every bulk reading must equal what the per-call ``_*_raw`` methods
compute, on the boundaries the kernel has to get exactly right: a
vehicle exactly ``coverage`` metres past its link entry or before its
stop line, and a queue spilled back past the coverage window by a
fractional number of vehicle spaces (the ``int`` truncation).  Checked
for one object-engine replica and for the rows of a batched SoA engine.
"""

from __future__ import annotations

from repro.sim.demand import DemandGenerator, Flow, RateProfile
from repro.sim.detectors import DetectorSuite, bulk_readings
from repro.sim.engine import Simulation
from repro.sim.network import RoadNetwork, TurnType
from repro.sim.routing import Router
from repro.sim.signal import Phase, PhasePlan
from repro.sim.soa import SoAEngine

#: speed 10 m/s and coverage 50 m: a running vehicle sits exactly at the
#: coverage boundary 5 ticks after entering; the 300 m links spill back
#: past coverage at 250 / 7.5 = 33.3 queued vehicles.
COVERAGE = 50.0


def _network() -> RoadNetwork:
    net = RoadNetwork()
    net.add_node("A", 0, 0)
    net.add_node("B", 300, 0, signalized=True)
    net.add_node("C", 600, 0, signalized=True)
    net.add_node("D", 900, 0)
    net.add_link("in", "A", "B", 300, 1, speed_limit=10.0)
    net.add_link("mid", "B", "C", 300, 2, speed_limit=10.0)
    net.add_link("out", "C", "D", 300, 1, speed_limit=10.0)
    net.add_movement("in", "mid", turn=TurnType.THROUGH)
    net.add_movement("mid", "out", turn=TurnType.THROUGH)
    net.validate()
    return net


def _plans() -> dict[str, PhasePlan]:
    return {
        "B": PhasePlan(
            "B", [Phase("go", frozenset({("in", "mid")})), Phase("stop", frozenset())]
        ),
        "C": PhasePlan(
            "C", [Phase("go", frozenset({("mid", "out")})), Phase("stop", frozenset())]
        ),
    }


def _demand(net: RoadNetwork, seed: int) -> DemandGenerator:
    flows = [Flow("f", "in", "out", RateProfile.constant(2400.0, 400.0))]
    return DemandGenerator(flows, Router(net), seed=seed)


def _phase_at(t: int) -> tuple[int, int]:
    # B mostly green, C mostly red: "mid" fills past its spillback point.
    return (0 if t % 40 < 30 else 1, 0 if t % 90 >= 80 else 1)


def _assert_matches_raw(bulk: DetectorSuite, raw: DetectorSuite) -> None:
    net = raw.sim.network
    for link_id in net.links:
        assert bulk.observed_approaching(link_id) == raw.observed_approaching(link_id)
        assert bulk.observed_downstream(link_id) == raw.observed_downstream(link_id)
        assert bulk.observed_on_link(link_id) == raw.observed_on_link(link_id)
        assert bulk.link_pressure(link_id) == raw.link_pressure(link_id)
    for movement in net.movements.values():
        assert bulk.movement_pressure(movement) == raw.movement_pressure(movement)
    for node_id in net.nodes:
        assert bulk.intersection_pressure(node_id) == raw.intersection_pressure(node_id)
        assert bulk.intersection_congestion(node_id) == (
            raw.intersection_congestion(node_id)
        )


def _edges(sim) -> tuple[bool, bool]:
    """Whether this tick puts a vehicle exactly on the coverage boundary,
    and a queue past the spillback point by a fractional overflow."""
    at_boundary = any(
        10.0 * (sim.time - vehicle.run_start) == COVERAGE
        for link_id in sim.network.links
        for vehicle in sim.running[link_id]
    )
    fractional = sim.queue_length("mid#0") > 250 / 7.5
    return at_boundary, fractional


def test_object_engine_matches_raw_on_the_boundaries():
    net = _network()
    sim = Simulation(net, _demand(net, 0), _plans())
    bulk = DetectorSuite(sim, coverage=COVERAGE)
    raw = DetectorSuite(sim, coverage=COVERAGE)
    raw._cache_enabled = False
    seen = [False, False]
    for t in range(400):
        phase_b, phase_c = _phase_at(t)
        sim.set_phase("B", phase_b)
        sim.set_phase("C", phase_c)
        sim.step()
        _assert_matches_raw(bulk, raw)
        seen = [s or e for s, e in zip(seen, _edges(sim))]
    assert seen == [True, True]


def test_batched_rows_match_raw_per_replica():
    net = _network()
    engine = SoAEngine(net, [_demand(net, seed) for seed in (1, 2, 3)], _plans())
    views = [engine.view(b) for b in range(engine.batch)]
    bulk = [DetectorSuite(view, coverage=COVERAGE) for view in views]
    raw = [DetectorSuite(view, coverage=COVERAGE) for view in views]
    for suite in raw:
        suite._cache_enabled = False
    for t in range(300):
        phase_b, phase_c = _phase_at(t + 7)
        for view in views:
            view.set_phase("B", phase_b)
            view.set_phase("C", phase_c)
        engine.step()
        if t % 3:
            continue
        qlen, _, counts, run_start = engine.detector_inputs()
        readings = bulk_readings(
            bulk[0]._bulk_index, COVERAGE, engine.time, qlen, counts, run_start
        )
        for b in range(engine.batch):
            bulk[b]._inject(readings, b, engine.time)
            _assert_matches_raw(bulk[b], raw[b])

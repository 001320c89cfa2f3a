"""Heavy sharded-scale tests (marked ``sharded``, excluded from tier-1).

These exercise the city-scale path the quick suites cannot afford:
partitioning and running grids in the hundreds-of-intersections range,
plus the same-run scaling gate: eight worker shards against one
in-process shard on a 50x50 grid.  ``scripts/run_ci.sh`` runs them via
``pytest -m sharded``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.eval.sharded import sharded_grid_workload
from repro.scenarios.grid import build_grid
from repro.sim.sharded import ShardedSimulation
from repro.sim.sharded.partition import partition_network
from repro.sim.signal import FixedTimeProgram

pytestmark = pytest.mark.sharded


class TestLargeGridPartition:
    def test_20x20_into_8_shards(self):
        network = build_grid(20, 20).network
        partition = partition_network(network, 8)
        sizes = [len(shard) for shard in partition.shards]
        assert sum(sizes) == len(network.nodes)
        assert min(sizes) > 0
        # Contiguous BFS growth keeps the cut a small fraction of links.
        assert partition.edge_cut < len(network.links) * 0.25

    def test_hundreds_of_intersections_run_and_conserve(self):
        scenario = build_grid(15, 15)
        from repro.scenarios.flows import flow_pattern

        flows = flow_pattern(scenario, 5, light_duration=120.0)
        programs = {
            node_id: FixedTimeProgram([(i, 15) for i in range(plan.num_phases)])
            for node_id, plan in scenario.phase_plans.items()
        }
        with ShardedSimulation(
            scenario.network,
            scenario.phase_plans,
            flows,
            8,
            seed=0,
            workers=True,
            programs=programs,
        ) as sim:
            sim.run(120)
            sim.check_conservation()
            summary = sim.summary()
        assert summary["created"] > 100
        assert summary["handoffs"] > 0


#: K=8 / K=1 wall-clock tick-rate ratio on the 50x50 grid below, as
#: committed by the retired ``benchmarks/BENCH_sharded.json`` (median of
#: two interleaved rounds, measured on a 1-cpu container).
COMMITTED_K8_RATIO = 0.511
#: The allowed drop below it: the retired harness's sharded threshold,
#: looser than its throughput gates because per-round ratios swing more.
RATIO_FLOOR = 1 - 0.35


class TestShardedScalingGate:
    """Guards the lockstep exchange protocol, the worker pipes and the
    shard engines against slowing down relative to one in-process shard.

    K=1 and K=8 are timed in the same interleaved rounds, so host noise
    cancels out of their ratio.  Wall clock, because the shards run in
    worker processes.  The untimed warm-up fills the empty network first.
    """

    def test_k8_vs_k1_same_run_ratio(self):
        scenario, flows = sharded_grid_workload(50, 50, light_duration=70.0)
        rates = {1: [], 8: []}
        for _ in range(2):
            for count in rates:
                with ShardedSimulation(
                    scenario.network, scenario.phase_plans, flows, count,
                    seed=7, workers=count > 1,
                ) as sim:
                    sim.run(10)
                    started = time.perf_counter()
                    sim.run(60)
                    rates[count].append(60 / (time.perf_counter() - started))
                    sim.check_conservation()
        ratio = statistics.median(k8 / k1 for k8, k1 in zip(rates[8], rates[1]))
        assert ratio >= COMMITTED_K8_RATIO * RATIO_FLOOR, (
            f"K=8 / K=1 ratio {ratio:.3f} is {ratio / COMMITTED_K8_RATIO:.0%} "
            f"of committed {COMMITTED_K8_RATIO} (ticks/s {rates})"
        )

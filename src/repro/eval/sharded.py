"""Sharded rollout entry points: run city-scale episodes end to end.

Thin orchestration over :mod:`repro.sim.sharded`: build the grid
workload (network, phase plans, demand pattern), run one sharded
episode under the chosen controller and return an aggregate summary
with wall-clock throughput.  This is what the ``sharded`` CLI
subcommand drives; the sharded suite's scaling gate builds its grid
with :func:`sharded_grid_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.scenarios.flows import flow_pattern
from repro.scenarios.grid import GridScenario, build_grid
from repro.sim.sharded import ShardedSimulation, run_sharded


@dataclass
class ShardedEpisodeResult:
    """Aggregate outcome of one sharded episode."""

    ticks: int
    num_shards: int
    workers: bool
    edge_cut: int
    shard_sizes: list[int]
    created: int
    finished: int
    in_network: int
    pending: int
    in_flight: int
    handoffs: int
    link_losses: int
    message_losses: int
    avg_travel_time: float
    avg_wait: float
    elapsed_s: float
    ticks_per_second: float
    summary: dict = field(repr=False, default_factory=dict)


def sharded_grid_workload(
    rows: int,
    cols: int,
    pattern: int = 5,
    *,
    peak_rate: float = 500.0,
    t_peak: float = 900.0,
    light_duration: float = 1800.0,
) -> tuple[GridScenario, list]:
    """Build the grid scenario and demand flows for a sharded episode.

    ``pattern`` follows :func:`repro.scenarios.flows.flow_pattern`
    (1–4 = the paper's congested corridor patterns, 5 = light uniform
    demand on every row and column — the default city-scale workload,
    whose flow count grows O(rows + cols)).
    """
    scenario = build_grid(rows, cols)
    flows = flow_pattern(
        scenario,
        pattern,
        peak_rate=peak_rate,
        t_peak=t_peak,
        light_duration=light_duration,
    )
    return scenario, flows


def run_sharded_episode(
    rows: int,
    cols: int,
    num_shards: int,
    ticks: int,
    *,
    pattern: int = 5,
    seed: int = 0,
    controller: str = "fixed_time",
    workers: bool = True,
    faults: FaultConfig | None = None,
    telemetry=None,
    green_time: int = 15,
    delta_t: int = 5,
    peak_rate: float = 500.0,
    t_peak: float = 900.0,
    light_duration: float | None = None,
) -> ShardedEpisodeResult:
    """Run one sharded episode on a ``rows x cols`` grid and summarize.

    ``workers=True`` places each shard in a persistent forked worker
    process; ``workers=False`` (or ``num_shards=1``) runs the identical
    protocol serially in-process.
    """
    if ticks <= 0:
        raise ConfigError("ticks must be positive")
    if light_duration is None:
        light_duration = float(ticks)
    scenario, flows = sharded_grid_workload(
        rows,
        cols,
        pattern,
        peak_rate=peak_rate,
        t_peak=t_peak,
        light_duration=light_duration,
    )
    summary = run_sharded(
        scenario.network,
        scenario.phase_plans,
        flows,
        num_shards,
        ticks,
        seed=seed,
        workers=workers,
        controller=controller,
        green_time=green_time,
        delta_t=delta_t,
        faults=faults,
        telemetry=telemetry,
    )
    return ShardedEpisodeResult(
        ticks=summary["ticks"],
        num_shards=num_shards,
        workers=workers,
        edge_cut=summary["edge_cut"],
        shard_sizes=summary["shard_sizes"],
        created=summary["created"],
        finished=summary["finished"],
        in_network=summary["in_network"],
        pending=summary["pending"],
        in_flight=summary["in_flight"],
        handoffs=summary["handoffs"],
        link_losses=summary["link_losses"],
        message_losses=summary["message_losses"],
        avg_travel_time=summary["avg_travel_time"],
        avg_wait=summary["avg_wait"],
        elapsed_s=summary["elapsed_s"],
        ticks_per_second=summary["ticks_per_second"],
        summary=summary,
    )

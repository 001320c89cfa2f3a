"""Lockstep coordination of sharded simulations.

:class:`ShardedSimulation` owns the partition, builds one
:class:`~repro.sim.sharded.shard.ShardRuntime` per shard and advances
all shards in lockstep.  Each tick:

1. every shard applies its inbound boundary payloads (handoffs relayed
   after the previous tick, remote occupancy, neighbour messages),
   requests signal phases from its local controller and steps once;
2. the coordinator gathers each shard's outbound payloads and routes
   them along the directed shard-graph edges, applying boundary faults;
3. the routed payloads become next tick's inbounds — a vehicle crossing
   a cut therefore spends exactly one tick "on the wire" before joining
   the downstream insertion queue, and remote occupancy/messages are one
   tick stale.  With one shard the exchange is empty and the run is
   bit-exact with the monolithic engine.

Two interchangeable drivers execute the shards: an in-process serial
driver (the equivalence-test oracle) and a persistent
:class:`~repro.perf.workers.WorkerPool` driver (one forked worker per
shard, one parallel pipe round trip per tick).  Both run the identical
``ShardRuntime`` code, which is what the serial-vs-workers bit-exactness
tests pin down.

**Boundary faults** (coordinator-side, seeded independently of every
engine RNG so fault injection cannot perturb demand):

* ``FaultConfig.shard_link_loss`` — per (directed edge, tick) Bernoulli;
  on loss the edge's handoff batch is *held* upstream and retried next
  tick (vehicles are never destroyed — conservation holds) and its
  occupancy/message payloads are dropped;
* ``FaultConfig.message_delay`` — drops only the occupancy/message
  payloads, so receivers keep reusing their last-delivered values with
  growing staleness (the sharded analogue of PairUpLight's
  staleness-decay message reuse).
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.errors import SimulationError
from repro.faults.config import FaultConfig
from repro.perf.workers import WorkerPool
from repro.sim.demand import DemandGenerator, Flow
from repro.sim.network import RoadNetwork
from repro.sim.routing import Router
from repro.sim.sharded.partition import Partition, partition_network
from repro.sim.sharded.shard import ShardRuntime, ShardSpec, build_shard_specs
from repro.sim.signal import FixedTimeProgram, PhasePlan

#: Seed-stream tag decorrelating the boundary-fault RNG from engine seeds.
_FAULT_STREAM = 0x5AAD

#: Default cadence (ticks) of aggregated ``shard_handoff`` telemetry.
DEFAULT_HANDOFF_REPORT_EVERY = 100


class _SerialDriver:
    """All shard runtimes in-process — the protocol oracle."""

    def __init__(self, factories) -> None:
        self.runtimes = [factory() for factory in factories]
        self.pids = [None] * len(self.runtimes)

    def tick_all(self, inbounds):
        return [
            runtime.tick(inbound)
            for runtime, inbound in zip(self.runtimes, inbounds)
        ]

    def call_all(self, method, args_list=None):
        if args_list is None:
            return [getattr(runtime, method)() for runtime in self.runtimes]
        return [
            getattr(runtime, method)(*args)
            for runtime, args in zip(self.runtimes, args_list)
        ]

    def close(self) -> None:
        return None


class _PoolDriver:
    """One persistent forked worker per shard."""

    def __init__(self, factories, timeout_s) -> None:
        self.pool = WorkerPool(factories, timeout_s=timeout_s)
        self.pids = list(self.pool.pids)

    def tick_all(self, inbounds):
        return self.pool.call_all("tick", [(inbound,) for inbound in inbounds])

    def call_all(self, method, args_list=None):
        return self.pool.call_all(method, args_list)

    def close(self) -> None:
        self.pool.close()


class ShardedSimulation:
    """A spatially sharded simulation advancing K shards in lockstep.

    Parameters
    ----------
    network, phase_plans:
        The full network and its signal plans (as for ``Simulation``).
    flows:
        Global demand; each flow is assigned to the shard owning its
        origin link, and every shard runs its own seeded
        :class:`~repro.sim.demand.DemandGenerator` over its subset.
    num_shards:
        Partition arity (``1`` reproduces the monolithic engine
        bit-exactly).
    workers:
        ``True`` runs each shard in a persistent forked worker process;
        ``False`` runs all shards serially in-process (same protocol,
        same results).
    controller:
        ``"fixed_time"`` (requires ``programs``; defaults to cycling
        every phase for ``green_time`` seconds) or ``"max_pressure"``.
    faults:
        Optional :class:`~repro.faults.config.FaultConfig`; only
        ``shard_link_loss`` and ``message_delay`` apply here.
    telemetry:
        Optional :class:`repro.obs.Telemetry`; emits ``shard_spawn``,
        aggregated ``shard_handoff`` and per-occurrence
        ``shard_link_loss`` events.  Telemetry never touches any RNG.
    """

    def __init__(
        self,
        network: RoadNetwork,
        phase_plans: dict[str, PhasePlan],
        flows: list[Flow],
        num_shards: int,
        *,
        seed: int = 0,
        stochastic: bool = True,
        workers: bool = False,
        worker_timeout_s: float | None = None,
        controller: str = "fixed_time",
        programs: dict[str, FixedTimeProgram] | None = None,
        green_time: int = 15,
        delta_t: int = 5,
        faults: FaultConfig | None = None,
        telemetry=None,
        handoff_report_every: int = DEFAULT_HANDOFF_REPORT_EVERY,
        engine_kwargs: dict | None = None,
    ) -> None:
        self.partition: Partition = partition_network(network, num_shards)
        self.specs: list[ShardSpec] = build_shard_specs(
            network, phase_plans, self.partition
        )
        self.num_shards = num_shards
        self.seed = seed
        self.telemetry = telemetry
        self.handoff_report_every = max(1, int(handoff_report_every))
        self.time = 0

        if controller == "fixed_time" and programs is None:
            programs = {
                node_id: FixedTimeProgram(
                    [(i, green_time) for i in range(plan.num_phases)]
                )
                for node_id, plan in phase_plans.items()
            }

        # Demand split: each flow belongs to the shard owning its origin
        # link, order-preserving.  One shared router primes the route
        # cache once in the parent; forked workers inherit it for free.
        link_owner = self.partition.link_owner
        router = Router(network)
        for flow in flows:
            if flow.origin_link not in link_owner:
                raise SimulationError(
                    f"flow {flow.name!r} origin {flow.origin_link!r} not in network"
                )
            router.route(flow.origin_link, flow.destination_link)
        flows_by_shard: list[list[Flow]] = [[] for _ in range(num_shards)]
        for flow in flows:
            flows_by_shard[link_owner[flow.origin_link]].append(flow)

        def make_factory(spec: ShardSpec, shard_flows: list[Flow]):
            def factory() -> ShardRuntime:
                demand = None
                if shard_flows:
                    demand = DemandGenerator(
                        shard_flows, router, seed=seed, stochastic=stochastic
                    )
                return ShardRuntime(
                    spec,
                    demand,
                    controller=controller,
                    programs=programs,
                    delta_t=delta_t,
                    engine_kwargs=engine_kwargs,
                )

            return factory

        factories = [
            make_factory(spec, shard_flows)
            for spec, shard_flows in zip(self.specs, flows_by_shard)
        ]
        if workers and num_shards > 1:
            self._driver = _PoolDriver(factories, worker_timeout_s)
        else:
            self._driver = _SerialDriver(factories)

        # Directed shard-graph edges, from the cut links (deterministic
        # order).  Each edge is one boundary channel: handoffs flow along
        # it; the reverse edge carries the cut links' occupancy upstream.
        assignment = self.partition.assignment
        edges: list[tuple[int, int]] = []
        seen = set()
        for link_id in self.partition.cut_links:
            link = network.links[link_id]
            edge = (assignment[link.from_node], assignment[link.to_node])
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        self.edges = edges
        #: channels considered for faults: every directed pair that can
        #: carry any payload (handoffs one way, occupancy/messages both).
        channels = set(edges) | {(b, a) for a, b in edges}
        self._channels = sorted(channels)
        #: entry link id → shard holding its exit stub (the upstream side).
        self._stub_owner: dict[str, int] = {}
        for spec in self.specs:
            for link_id in spec.exit_stubs:
                self._stub_owner[link_id] = spec.index
        self._adjacency: dict[int, list[int]] = {}
        for a, b in self._channels:
            self._adjacency.setdefault(a, []).append(b)

        self._faults = faults
        self._fault_rng = (
            np.random.default_rng([seed, _FAULT_STREAM])
            if faults is not None
            and (faults.shard_link_loss > 0 or faults.message_delay > 0)
            else None
        )
        #: handoff batches held back by link-loss faults, per edge.
        self._held: dict[tuple[int, int], list] = {edge: [] for edge in edges}
        #: handoff batches delivered by the last exchange, sitting in the
        #: inbounds until the next tick consumes them — still "on the
        #: wire" for conservation/trajectory accounting.
        self._wire: dict[tuple[int, int], list] = {edge: [] for edge in edges}
        #: occupancy changes not yet delivered, per channel.  Runtimes
        #: report deltas (changed entry links only); a faulted exchange
        #: keeps the delta pending so the next successful delivery
        #: carries the latest value of everything changed since.
        self._occ_pending: dict[tuple[int, int], dict[str, int]] = {}
        self.handoffs_total = 0
        self.link_losses = 0
        self.message_losses = 0
        self._handoff_window = 0
        self._handoff_window_edges: dict[str, int] = {}
        self._inbounds = [dict() for _ in range(num_shards)]
        #: full-network link ids, for validating capacity/incident hooks.
        self._all_links = frozenset(network.links)
        #: coordinator's view of non-default capacity factors.
        self.capacity_factors: dict[str, float] = {}
        self._incidents = None

        if telemetry is not None:
            for spec, pid in zip(self.specs, self._driver.pids):
                telemetry.shard_spawn(
                    shard=spec.index,
                    nodes=len(spec.network.nodes),
                    links=len(spec.network.links),
                    owned_links=len(spec.owned_links),
                    cut_out=len(spec.exit_stubs),
                    cut_in=len(spec.entry_links),
                    pid=pid,
                )

    # ------------------------------------------------------------------
    # Incident / capacity control surface (mirrors ``Simulation``'s)
    # ------------------------------------------------------------------
    def set_capacity_factor(self, link_id: str, factor: float) -> None:
        """Scale a link's effective storage across the whole city.

        Broadcast to every shard: the owning shard throttles entry onto
        the link, and (for cut links) the upstream shard's exit-stub
        copy blocks discharge against the same reduced storage.  Shards
        whose subnetwork lacks the link skip the write.  Validation
        matches :meth:`repro.sim.engine.Simulation.set_capacity_factor`.
        """
        if link_id not in self._all_links:
            raise SimulationError(f"unknown link {link_id!r}")
        if not 0.0 <= factor <= 1.0:
            raise SimulationError(
                f"capacity factor must lie in [0, 1], got {factor}"
            )
        if factor >= 1.0:
            self.capacity_factors.pop(link_id, None)
        else:
            self.capacity_factors[link_id] = factor
        self._driver.call_all(
            "set_capacity_factor", [(link_id, factor)] * self.num_shards
        )

    @property
    def incidents(self):
        """Optional :class:`~repro.faults.incidents.IncidentSchedule`.

        Setting it broadcasts the schedule to every shard engine, which
        reconciles it at the start of each lockstep tick — closure
        scenarios therefore run at city scale with no extra coordinator
        round trips.
        """
        return self._incidents

    @incidents.setter
    def incidents(self, schedule) -> None:
        self._incidents = schedule
        self._driver.call_all(
            "set_incidents", [(schedule,)] * self.num_shards
        )

    # ------------------------------------------------------------------
    def run(self, ticks: int) -> None:
        """Advance all shards ``ticks`` lockstep ticks."""
        for _ in range(ticks):
            outbounds = self._driver.tick_all(self._inbounds)
            self._inbounds = self._exchange(outbounds)
            self.time += 1
        if self.telemetry is not None:
            self._flush_handoff_report()

    def _draw_losses(self) -> tuple[set, set]:
        """Per-channel Bernoulli draws for this tick's exchange.

        Returns ``(lost_channels, delayed_channels)``: link loss drops
        everything on the channel (handoffs held), message delay drops
        only occupancy/messages.  Draw order is the sorted channel list,
        so serial and worker drivers consume identical streams.
        """
        lost: set = set()
        delayed: set = set()
        rng = self._fault_rng
        if rng is None:
            return lost, delayed
        faults = self._faults
        for channel in self._channels:
            if faults.shard_link_loss > 0 and rng.random() < faults.shard_link_loss:
                lost.add(channel)
            if faults.message_delay > 0 and rng.random() < faults.message_delay:
                delayed.add(channel)
        return lost, delayed

    def _exchange(self, outbounds) -> list[dict]:
        lost, delayed = self._draw_losses()
        # The previous exchange's deliveries were just consumed by
        # tick_all; only this exchange's deliveries remain on the wire.
        self._wire = {edge: [] for edge in self.edges}
        inbounds: list[dict] = [
            {"handoffs": [], "occupancy": {}, "messages": {}}
            for _ in range(self.num_shards)
        ]
        telemetry = self.telemetry

        # Vehicle handoffs: held batches (from earlier lost ticks) are
        # retried first so arrival order is preserved.
        for (src, dst), held in self._held.items():
            fresh = outbounds[src]["handoffs"].get(dst, [])
            pending = held + list(fresh)
            if not pending:
                continue
            if (src, dst) in lost:
                self._held[(src, dst)] = pending
                self.link_losses += 1
                if telemetry is not None:
                    telemetry.shard_link_loss(
                        tick=self.time,
                        src=src,
                        dst=dst,
                        kind="handoff",
                        held=len(pending),
                    )
                continue
            self._held[(src, dst)] = []
            self._wire[(src, dst)] = pending
            inbounds[dst]["handoffs"].extend(pending)
            count = len(pending)
            self.handoffs_total += count
            self._handoff_window += count
            key = f"{src}->{dst}"
            self._handoff_window_edges[key] = (
                self._handoff_window_edges.get(key, 0) + count
            )

        # Occupancy (entry-link owner → stub owner) and neighbour
        # messages (both directions): dropped payloads simply don't
        # arrive, so the receiver's last-delivered values go stale.
        dropped_channels: set = set()
        occ_pending = self._occ_pending
        for src, outbound in enumerate(outbounds):
            occupancy = outbound.get("occupancy") or {}
            for link_id, value in occupancy.items():
                # src owns the entry link; the stub lives upstream.
                dst = self._stub_owner.get(link_id)
                if dst is None or dst == src:
                    continue
                occ_pending.setdefault((src, dst), {})[link_id] = value
        for channel, pending in occ_pending.items():
            if not pending:
                continue
            if channel in lost or channel in delayed:
                dropped_channels.add(channel)
                continue
            inbounds[channel[1]]["occupancy"].update(pending)
            pending.clear()
        for src, outbound in enumerate(outbounds):
            messages = outbound.get("messages") or {}
            if messages:
                for dst in self._adjacency.get(src, ()):
                    channel = (src, dst)
                    if channel in lost or channel in delayed:
                        dropped_channels.add(channel)
                        continue
                    inbounds[dst]["messages"].update(messages)
        for channel in sorted(dropped_channels):
            self._count_message_loss(channel, telemetry)

        if (
            telemetry is not None
            and self.time > 0
            and self.time % self.handoff_report_every == 0
        ):
            self._flush_handoff_report()
        return inbounds

    def _count_message_loss(self, channel, telemetry) -> None:
        self.message_losses += 1
        if telemetry is not None:
            telemetry.shard_link_loss(
                tick=self.time,
                src=channel[0],
                dst=channel[1],
                kind="message",
                held=0,
            )

    def _flush_handoff_report(self) -> None:
        if self._handoff_window == 0:
            return
        self.telemetry.shard_handoff(
            tick=self.time,
            total=self._handoff_window,
            edges=dict(self._handoff_window_edges),
        )
        self._handoff_window = 0
        self._handoff_window_edges = {}

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Vehicles on the wire: held on faulted channels, plus batches
        delivered by the last exchange and not yet consumed by a tick."""
        return sum(len(batch) for batch in self._held.values()) + sum(
            len(batch) for batch in self._wire.values()
        )

    def summary(self) -> dict:
        """Aggregate episode summary across shards (exact sums)."""
        per_shard = self._driver.call_all("summary")
        total = {
            "ticks": self.time,
            "num_shards": self.num_shards,
            "edge_cut": self.partition.edge_cut,
            "shard_sizes": self.partition.shard_sizes(),
            "created": sum(s["created"] for s in per_shard),
            "finished": sum(s["finished"] for s in per_shard),
            "in_network": sum(s["in_network"] for s in per_shard),
            "pending": sum(s["pending"] for s in per_shard),
            "in_flight": self.in_flight(),
            "handoffs": self.handoffs_total,
            "link_losses": self.link_losses,
            "message_losses": self.message_losses,
            "teleports": sum(s["teleports"] for s in per_shard),
            "travel_time_sum": sum(s["travel_time_sum"] for s in per_shard),
            "wait_sum": sum(s["wait_sum"] for s in per_shard),
            "shards": per_shard,
        }
        finished = total["finished"]
        total["avg_travel_time"] = (
            total["travel_time_sum"] / finished if finished else 0.0
        )
        total["avg_wait"] = total["wait_sum"] / finished if finished else 0.0
        return total

    def trajectories(self) -> list[tuple]:
        """All vehicle trajectory tuples, merged across shards and held
        handoff batches, sorted by vehicle id."""
        rows: list[tuple] = []
        for shard_rows in self._driver.call_all("trajectories"):
            rows.extend(tuple(row) for row in shard_rows)
        for channel_map in (self._held, self._wire):
            for (src, dst), batch in sorted(channel_map.items()):
                for record in batch:
                    rows.append(
                        (
                            record.vehicle_id,
                            record.created,
                            None,
                            None,
                            f"in_flight:{src}->{dst}",
                            record.wait_base,
                            record.links_travelled,
                            tuple(record.route),
                            -1,
                        )
                    )
        rows.sort(key=lambda row: row[0])
        return rows

    def check_conservation(self) -> None:
        """Raise unless every created vehicle is accounted for."""
        summary = self.summary()
        accounted = (
            summary["finished"]
            + summary["in_network"]
            + summary["pending"]
            + summary["in_flight"]
        )
        if accounted != summary["created"]:
            raise SimulationError(
                f"vehicle conservation violated: created {summary['created']} "
                f"!= finished {summary['finished']} + in_network "
                f"{summary['in_network']} + pending {summary['pending']} + "
                f"in_flight {summary['in_flight']}"
            )

    def close(self) -> None:
        self._driver.close()

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_sharded(
    network: RoadNetwork,
    phase_plans: dict[str, PhasePlan],
    flows: list[Flow],
    num_shards: int,
    ticks: int,
    **kwargs,
) -> dict:
    """Convenience wrapper: build, run, summarize, close.

    Adds wall-clock throughput (``ticks_per_second``) to the summary.
    """
    with ShardedSimulation(network, phase_plans, flows, num_shards, **kwargs) as sim:
        start = _time.perf_counter()
        sim.run(ticks)
        elapsed = _time.perf_counter() - start
        sim.check_conservation()
        summary = sim.summary()
        summary["elapsed_s"] = elapsed
        summary["ticks_per_second"] = ticks / elapsed if elapsed > 0 else 0.0
        return summary

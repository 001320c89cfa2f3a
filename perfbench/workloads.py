"""The benchmark's three workloads and the output checks they apply.

Every workload is built from the run seed alone, set up, then driven
for a fixed number of work units (episodes or ticks).  ``run.py`` sizes
the unit count from ``--seconds``, so a seed and a duration always give
the same inputs, the same work and the same deterministic outputs.

The train and rollout workloads call the program's own
``repro.eval.batched.train_lockstep`` and ``evaluate_lockstep``, one
episode per call, so that every tick, reset and update runs the
program's code and the benchmark can check each replica-episode's
output between calls.  ``test_perfbench.py`` pins that these calls
give exactly what one multi-episode call gives.

Every phase is timed in this process's CPU time (``process_time``),
which leaves out the time a shared host's hypervisor gives the vCPU to
other guests; the wall-clock figures are recorded beside them.  A
:class:`HostSampler` runs a short fixed probe every fifth of a second
of the timed phase, so that ``run.py`` can scale the times to
the reference host's speed; its clocks leave the probes out.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.agents.pairuplight import PairUpLightSystem
from repro.errors import SimulationError
from repro.eval.batched import LockstepEnvGroup, evaluate_lockstep, train_lockstep
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.faults.config import FaultConfig
from repro.serve import ControlService, PolicyRuntime, ServeConfig


#: Seed of the initial policy parameters, the same in every run: the run
#: seed varies the traffic, not the controller under test.
POLICY_SEED = 7


#: Serve decision budget.  A decision covers 5 simulated seconds, so a
#: tenth of that is still real time, while it stays clear of the 50+ ms
#: stalls a shared 2-vCPU host adds now and then, which would otherwise
#: count as policy failures.
DEADLINE_MS = 500.0

#: Seconds between two host probes in a timed phase.
SAMPLE_EVERY_S = 0.2


@dataclass(frozen=True)
class Size:
    """Problem size of one workload (``run.py`` uses the full sizes)."""

    rows: int
    cols: int
    #: Ticks per episode.
    horizon: int = 300
    #: Lockstep replicas (train/rollout).
    batch: int = 8


@dataclass
class Outcome:
    """What one timed phase did, as the benchmark observed it."""

    #: Simulated seconds advanced, summed over replicas.
    sim_seconds: float = 0.0
    #: CPU seconds the throughput is measured over.
    busy_s: float = 0.0
    #: Wall seconds of the same phase.
    busy_wall_s: float = 0.0
    #: CPU time of every control decision, in seconds.
    decide_s: list = field(default_factory=list)
    #: Wall time of every control decision, in seconds.
    decide_wall_s: list = field(default_factory=list)
    #: Average-wait samples whose mean is the run's ``avg_wait_s``.
    waits: list = field(default_factory=list)
    #: CPU seconds of the host probes run during the phase; they are
    #: not part of ``busy_s`` or ``decide_s``.
    probe_s: list = field(default_factory=list)
    #: PPO update statistics of every trained replica-episode.
    update_stats: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Output-check failures; any entry makes the run incorrect.
    problems: list = field(default_factory=list)
    #: Exact counts, equal between a traced and an untraced run.
    counts: dict = field(default_factory=lambda: {"vehicles_created": 0})

    @property
    def avg_wait_s(self) -> float:
        return float(np.mean(self.waits)) if self.waits else float("nan")


# ----------------------------------------------------------------------
# Output checks (pure functions, so the self-tests can feed bad outputs)
# ----------------------------------------------------------------------
def conservation_problem(
    created: int, finished: int, in_network: int, pending: int
) -> str | None:
    """Vehicle conservation: created = finished + in network + pending."""
    if created != finished + in_network + pending:
        return (
            f"vehicle conservation violated: created {created} != finished "
            f"{finished} + in network {in_network} + pending {pending}"
        )
    return None


def sim_conservation(sim) -> str | None:
    """:func:`conservation_problem` on a simulation's final state."""
    return conservation_problem(
        sim.total_created,
        len(sim.finished_vehicles),
        sim.vehicles_in_network(),
        sim.pending_insertions(),
    )


def episode_problems(
    avg_wait: float, total_reward: float, stats: dict, conservation: str | None
) -> list[str]:
    """Checks on one replica-episode of the train/rollout workloads."""
    problems = []
    if not math.isfinite(avg_wait):
        problems.append(f"non-finite average wait {avg_wait}")
    if not math.isfinite(total_reward):
        problems.append(f"non-finite total reward {total_reward}")
    bad = {k: v for k, v in stats.items() if not math.isfinite(v)}
    if bad:
        problems.append(f"non-finite update statistics {bad}")
    if conservation:
        problems.append(conservation)
    return problems


def unserved(actions: dict, env) -> list[str]:
    """Intersections left without a valid action by one decision."""
    missing = []
    for node_id in env.agent_ids:
        action = actions.get(node_id)
        if action is None or not env.action_spaces[node_id].contains(int(action)):
            missing.append(node_id)
    return missing


def host_probe_s() -> float:
    """CPU seconds of a fixed probe: a pure-Python loop plus a numpy spin.

    About 2.5 ms on the reference host.  Its code never changes and calls
    nothing in ``repro``, so a change in its time is the host's.
    """
    started = process_time()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    # 32 KiB arrays stay below malloc's mmap threshold, so the spin
    # measures arithmetic, not page faults.
    spin = np.arange(4096, dtype=np.float64)
    for _ in range(100):
        spin = np.sqrt(spin * spin + 1.0)
    return process_time() - started


class HostSampler:
    """Runs :func:`host_probe_s` every ``every_s`` seconds.

    A ``SIGALRM`` interval timer interrupts the phase, so the probes
    sample the host's speed evenly over it, however long its work units
    are.  :meth:`cpu` and :meth:`wall` are clocks that leave the probes'
    time out.  The previous ``SIGALRM`` handler is restored on exit.
    (A CPU-time ``ITIMER_PROF`` timer would do, except that while one is
    armed Linux reads process CPU time at scheduler-tick resolution.)
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.probe_s: list[float] = []
        self._spent = 0.0
        self._spent_wall = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        wall = perf_counter()
        took = host_probe_s()
        self.probe_s.append(took)
        self._spent += took
        self._spent_wall += perf_counter() - wall

    def cpu(self) -> float:
        return process_time() - self._spent

    def wall(self) -> float:
        return perf_counter() - self._spent_wall

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.probe_s:
            # A phase shorter than ``every_s`` still gets one reading.
            self._sample(signal.SIGALRM, None)


def _scale(size: Size) -> ExperimentScale:
    # Flow pattern 1 ramps forward demand over [0, 2 t_peak] and reverse
    # demand over [t_peak, 3 t_peak], so t_peak = horizon / 3 keeps
    # traffic arriving for the whole episode.
    return ExperimentScale(
        rows=size.rows,
        cols=size.cols,
        peak_rate=500.0,
        t_peak=size.horizon / 3,
        light_duration=2 * size.horizon / 3,
        horizon_ticks=size.horizon,
        max_ticks=max(size.horizon, 14400),
        train_episodes=1,
    )


# ----------------------------------------------------------------------
# train_6x6_shared_b8 and rollout_6x6_shared_b8
# ----------------------------------------------------------------------
@dataclass
class LockstepRig:
    agents: list
    envs: list
    seeds: list


def setup_lockstep(seed: int, size: Size) -> LockstepRig:
    """B envs and their PairUpLight systems, plus the first engine build.

    The first batched SoA engine is built here and discarded: each
    episode of the timed phase builds its own, as ``train_lockstep``
    does, and set-up carries the one-off cost of the first.
    """
    experiment = GridExperiment(_scale(size), seed=1000 * seed)
    envs = [experiment.train_env(1) for _ in range(size.batch)]
    agents = [
        PairUpLightSystem(env, seed=POLICY_SEED + b) for b, env in enumerate(envs)
    ]
    seeds = [1000 * seed + 100 * b for b in range(size.batch)]
    LockstepEnvGroup(envs).reset_all(seeds)
    return LockstepRig(agents, envs, seeds)


def run_lockstep(rig: LockstepRig, episodes: int, training: bool) -> Outcome:
    """``episodes`` lockstep episodes; one operation per replica-episode.

    Episode ``e`` is one ``train_lockstep`` (or ``evaluate_lockstep``)
    call with demand seeds ``seeds[b] + e``, which is what episode ``e``
    of a single ``episodes``-long call uses.  A "decision" here is one
    lockstep decision for all B·M intersections: its time is the
    episode's CPU time over its decisions, so for training it carries
    the update too.
    """
    out = Outcome()
    with HostSampler() as sampler:
        for episode in range(episodes):
            _lockstep_episode(rig, episode, training, sampler, out)
    out.probe_s = sampler.probe_s
    return out


def _lockstep_episode(
    rig: LockstepRig, episode: int, training: bool, sampler: HostSampler, out: Outcome
) -> None:
    driver = train_lockstep if training else evaluate_lockstep
    envs = rig.envs
    B = len(envs)
    out.attempted += B
    cpu, wall = sampler.cpu(), sampler.wall()
    try:
        logs = driver(
            rig.agents,
            envs,
            1,
            [s + episode for s in rig.seeds],
            batched_policy=True,
            shared_across_replicas=True,
        )
    except SimulationError as error:
        out.failed += B
        out.problems.append(f"episode {episode}: {error}")
        return
    cpu, wall = sampler.cpu() - cpu, sampler.wall() - wall
    decisions = envs[0].sim.time // envs[0].config.delta_t
    out.busy_s += cpu
    out.busy_wall_s += wall
    out.decide_s.append(cpu / decisions)
    out.decide_wall_s.append(wall / decisions)
    out.sim_seconds += B * envs[0].sim.time
    for b, (env, log) in enumerate(zip(envs, logs)):
        if training:
            entry = log.episodes[0]
            avg_wait, reward, stats = entry.avg_wait, entry.total_reward, entry.update_stats
            out.update_stats.append(stats)
        else:
            # Greedy evaluation reports waits and travel times, no reward.
            avg_wait, reward, stats = log.average_wait, 0.0, {}
        problems = episode_problems(avg_wait, reward, stats, sim_conservation(env.sim))
        out.waits.append(avg_wait)
        out.counts["vehicles_created"] += env.sim.total_created
        if problems:
            out.failed += 1
            out.problems.extend(f"episode {episode} replica {b}: {p}" for p in problems)


# ----------------------------------------------------------------------
# serve_6x6_faults
# ----------------------------------------------------------------------
@dataclass
class ServeRig:
    env: object
    service: ControlService
    observations: dict


def setup_serve(seed: int, size: Size) -> ServeRig:
    """One object-engine env under controller deaths and message delay."""
    faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
    env = GridExperiment(_scale(size), seed=1000 * seed).train_env(1, faults=faults)
    runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=POLICY_SEED))
    service = ControlService(env, runtime, ServeConfig(deadline_ms=DEADLINE_MS))
    return ServeRig(env, service, service.start_episode(seed=1000 * seed))


def run_serve(rig: ServeRig, ticks: int) -> Outcome:
    """Closed loop, one caller: each decision waits for the last actuation.

    One operation is one intersection decision.  It fails when the
    intersection gets no valid action, or when it falls back because of
    a policy exception, an invalid action or a missed deadline; falling
    back because of an injected controller death is the service working.
    """
    out = Outcome()
    with HostSampler() as sampler:
        started, started_wall = sampler.cpu(), sampler.wall()
        _serve_loop(rig, ticks, sampler, out)
        out.busy_s = sampler.cpu() - started
        out.busy_wall_s = sampler.wall() - started_wall
    out.probe_s = sampler.probe_s
    env, health = rig.env, rig.service.health
    out.sim_seconds = float(health.ticks * env.config.delta_t)
    out.counts["controller_fault_decisions"] = health.controller_faults
    out.counts["fallback_decisions"] = health.fallback_ticks
    out.counts["deadline_misses"] = health.deadline_misses
    return out


def _serve_loop(rig: ServeRig, ticks: int, sampler: HostSampler, out: Outcome) -> None:
    env, service = rig.env, rig.service
    health = service.health
    M = len(env.agent_ids)
    observations = rig.observations
    episode_decisions = 0

    def tallies():
        return (health.policy_exceptions, health.deadline_misses,
                health.invalid_actions, health.controller_faults)

    for _ in range(ticks):
        before = tallies()
        cpu, wall = sampler.cpu(), sampler.wall()
        actions = service.decide(observations)
        out.decide_s.append(sampler.cpu() - cpu)
        out.decide_wall_s.append(sampler.wall() - wall)
        exceptions, misses, invalid, dead = (
            now - then for now, then in zip(tallies(), before))
        missing = unserved(actions, env)
        policy_failed = M - dead if exceptions or misses else invalid
        out.attempted += M
        out.failed += min(M, len(missing) + policy_failed)
        episode_decisions += M
        if missing:
            # The loop cannot actuate an unserved intersection: the tick
            # and every decision not yet made fail.
            out.problems.append(f"tick {health.ticks}: unserved {missing}")
            out.attempted += M * (ticks - health.ticks)
            out.failed += M * (ticks - health.ticks)
            break
        result = env.step(actions)
        out.waits.append(result.info["average_wait"])
        if result.done:
            gap = sim_conservation(env.sim)
            if gap:
                out.problems.append(gap)
                out.failed += episode_decisions
            episode_decisions = 0
            health.episodes += 1
            out.counts["vehicles_created"] += env.sim.total_created
            observations = service.start_episode()
        else:
            observations = result.observations
    gap = sim_conservation(env.sim)
    if gap:
        out.problems.append(gap)
        out.failed += episode_decisions
    out.counts["vehicles_created"] += env.sim.total_created


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One workload: how to set it up and run it.

    ``run.py`` runs ``round(seconds / unit_s)`` work units, where
    ``unit_s`` is a unit's cost on the reference host (2 vCPUs).
    """

    name: str
    size: Size
    unit_s: float
    setup: object  # (seed, size) -> rig
    run: object  # (rig, units) -> Outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_6x6_shared_b8",
            Size(6, 6, horizon=300, batch=8),
            unit_s=6.5,
            setup=setup_lockstep,
            run=lambda rig, units: run_lockstep(rig, units, True),
        ),
        Workload(
            "rollout_6x6_shared_b8",
            Size(6, 6, horizon=300, batch=8),
            unit_s=0.6,
            setup=setup_lockstep,
            run=lambda rig, units: run_lockstep(rig, units, False),
        ),
        Workload(
            "serve_6x6_faults",
            Size(6, 6, horizon=300),
            unit_s=0.0046,
            setup=setup_serve,
            run=run_serve,
        ),
    )
}

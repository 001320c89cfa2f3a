"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``
    Train one model on a grid scenario, report the training curve, and
    optionally save the learned actor weights and a JSON history.
``evaluate``
    Train briefly (or not at all, for static controllers) and report
    drain-mode average travel time across chosen flow patterns.
``compare``
    Run the Table II / Table III pipelines at a configurable scale.
``overhead``
    Print the Table IV communication-overhead analysis.
``robustness``
    Sweep fault rates (sensing / communication / controller faults) and
    report degradation curves for PairUpLight, its no-fallback ablation
    and the classical baselines.
``multiseed``
    Repeat a train/evaluate pipeline over several seeds (optionally in
    parallel worker processes) and report mean +- std.
``serve``
    Run the fault-tolerant real-time control service: load a policy
    checkpoint, serve every intersection inside a per-tick deadline with
    per-intersection fallback and optional fault injection, hot-reload a
    checkpoint mid-run, and print the health report.
``zoo``
    Scenario-zoo tooling: list the seeded demand-scenario catalogue and
    print or export the spec JSON the ``--scenario`` flags consume
    (``compare``/``multiseed``/``robustness`` also accept ``zoo:<name>``
    references directly).
``obs``
    Telemetry tooling: ``obs report <run_dir>`` re-renders the training
    curve and event summary of a persisted run (written by ``train
    --telemetry-dir``) without re-simulating; ``obs tail <run_dir>``
    pretty-prints the latest events of a (possibly live) run.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.agents.base import AgentSystem
from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError
from repro.errors import (
    CheckpointError,
    DemandError,
    FaultInjectionError,
    NetworkError,
    ScenarioSpecError,
    SimulationError,
)
from repro.eval.comm_overhead import formatted_overhead_table, overhead_table
from repro.eval.comparison import default_model_factories, run_table2, run_table3
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.eval.robustness import (
    formatted_degradation_table,
    run_degradation_comparison,
)
from repro.faults.config import FAULT_KINDS
from repro.faults.controller import FALLBACK_POLICIES
from repro.rl.runner import evaluate, train

MODEL_CHOICES = (
    "PairUpLight",
    "SingleAgent",
    "MA2C",
    "CoLight",
    "IQL",
    "Fixedtime",
    "MaxPressure",
    "LongestQueue",
)


def _build_agent(name: str, env: TrafficSignalEnv, seed: int) -> AgentSystem:
    from repro.agents import (
        CoLightSystem,
        FixedTimeSystem,
        IQLSystem,
        LongestQueueSystem,
        MA2CSystem,
        MaxPressureSystem,
        PairUpLightSystem,
        SingleAgentSystem,
    )

    factories = {
        "PairUpLight": lambda: PairUpLightSystem(env, seed=seed),
        "SingleAgent": lambda: SingleAgentSystem(env, seed=seed),
        "MA2C": lambda: MA2CSystem(env, seed=seed),
        "CoLight": lambda: CoLightSystem(env, seed=seed),
        "IQL": lambda: IQLSystem(env, seed=seed),
        "Fixedtime": lambda: FixedTimeSystem(env),
        "MaxPressure": lambda: MaxPressureSystem(env),
        "LongestQueue": lambda: LongestQueueSystem(),
    }
    try:
        return factories[name]()
    except KeyError:
        raise ConfigError(f"unknown model {name!r}; choose from {MODEL_CHOICES}")


def _grid_shape(args: argparse.Namespace) -> tuple[int, int]:
    """(rows, cols) from ``--grid-size WxH`` if given, else --rows/--cols."""
    if getattr(args, "grid_size", ""):
        from repro.scenarios.grid import parse_grid_size

        return parse_grid_size(args.grid_size)
    return args.rows, args.cols


def _scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    rows, cols = _grid_shape(args)
    return ExperimentScale(
        rows=rows,
        cols=cols,
        peak_rate=args.peak_rate,
        t_peak=args.t_peak,
        light_duration=2 * args.t_peak,
        horizon_ticks=args.horizon,
        max_ticks=args.horizon * 8,
        train_episodes=args.episodes,
    )


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=3)
    parser.add_argument("--cols", type=int, default=3)
    parser.add_argument(
        "--grid-size", type=str, default="",
        help="grid shape as 'WxH' (or 'N' for NxN); overrides --rows/--cols",
    )
    parser.add_argument("--peak-rate", type=float, default=600.0)
    parser.add_argument("--t-peak", type=float, default=150.0)
    parser.add_argument("--horizon", type=int, default=450)
    parser.add_argument("--episodes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)


def cmd_train(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    experiment = GridExperiment(scale, seed=args.seed)
    env = experiment.train_env(args.pattern)
    agent = _build_agent(args.model, env, args.seed)
    telemetry = None
    if args.telemetry_dir:
        from repro.obs import Telemetry

        telemetry = Telemetry(
            args.telemetry_dir,
            config={
                "model": args.model,
                "pattern": args.pattern,
                "episodes": args.episodes,
                "rows": args.rows,
                "cols": args.cols,
                "horizon": args.horizon,
            },
            seed=args.seed,
            agent_name=args.model,
            trace_spans=args.trace_spans,
        )
    try:
        history = train(agent, env, episodes=args.episodes, seed=args.seed,
                        log_every=args.log_every,
                        checkpoint_dir=args.checkpoint_dir or None,
                        checkpoint_every=args.checkpoint_every,
                        resume_from=args.resume_from or None,
                        telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"telemetry written to {telemetry.run_dir}")
    curve = history.wait_curve
    print(f"\n{args.model} trained {args.episodes} episodes on pattern {args.pattern}")
    if history.aborted_episodes or history.rolled_back_episodes:
        print(f"resilience: {len(history.aborted_episodes)} aborted, "
              f"{len(history.rolled_back_episodes)} rolled-back episodes")
    print(f"wait: first-5 {curve[:5].mean():.2f} s, best {curve.min():.2f} s, "
          f"final-5 {curve[-5:].mean():.2f} s")
    if args.history_out:
        payload = {
            "model": args.model,
            "pattern": args.pattern,
            "episodes": args.episodes,
            "wait_curve": curve.tolist(),
            "reward_curve": history.reward_curve.tolist(),
        }
        with open(args.history_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"history written to {args.history_out}")
    if args.weights_out:
        try:
            agent.save(args.weights_out)
            print(f"weights written to {args.weights_out}")
        except ValueError:
            print("model has no saveable networks; skipping --weights-out")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    experiment = GridExperiment(scale, seed=args.seed)
    env = experiment.train_env(args.pattern)
    agent = _build_agent(args.model, env, args.seed)
    if args.episodes > 0:
        train(agent, env, episodes=args.episodes, seed=args.seed)
    print(f"{'Pattern':>8} {'Avg travel time':>16} {'Completion':>11}")
    for pattern in args.eval_patterns:
        result = experiment.evaluate_agent(agent, pattern)
        print(f"{pattern:>8} {result.average_travel_time:>14.1f} s "
              f"{result.completion_rate:>10.0%}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    factories = default_model_factories(seed=args.seed)
    if args.models:
        factories = {k: v for k, v in factories.items() if k in args.models}
        if not factories:
            raise ConfigError(f"no known models among {args.models}")
    scenario = getattr(args, "scenario", "") or None
    if args.table == 2:
        table = run_table2(scale, factories, seed=args.seed, scenario=scenario)
        if scenario is not None:
            title = f"Table II — avg travel time (s), scenario {scenario}"
        else:
            title = "Table II — avg travel time (s), trained on pattern 1"
        print(table.formatted(title))
    else:
        if scenario is not None:
            raise ConfigError("--scenario applies to --table 2 only")
        table = run_table3(scale, factories, seed=args.seed)
        print(table.formatted("Table III — light traffic avg travel time (s)"))
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    curves = run_degradation_comparison(
        scale,
        fault_rates=tuple(args.rates),
        kinds=tuple(args.kinds),
        pattern=args.pattern,
        seed=args.seed,
        train_episodes=args.episodes,
        include_ablation=not args.no_ablation,
        include_baselines=not args.no_baselines,
        fallback=args.fallback,
        scenario=getattr(args, "scenario", "") or None,
    )
    kinds = "+".join(args.kinds)
    print(f"Degradation sweep — {kinds} faults, avg travel time (s) vs fault rate")
    print(formatted_degradation_table(curves))
    return 0


def cmd_multiseed(args: argparse.Namespace) -> int:
    from repro.eval.multiseed import run_multiseed

    scale = _scale_from_args(args)
    result = run_multiseed(
        scale,
        lambda env, seed: _build_agent(args.model, env, seed),
        model_name=args.model,
        seeds=list(args.seeds),
        train_pattern=args.pattern,
        workers=args.workers,
        engine=args.engine,
        scenario=getattr(args, "scenario", "") or None,
        batched_policy=args.batched_policy,
        shared_across_replicas=args.shared_policy,
    )
    print(result.summary())
    for run in result.runs:
        print(
            f"  seed {run.seed}: travel time {run.eval_travel_time:.1f} s, "
            f"completion {run.completion_rate:.0%}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.faults.config import FaultConfig
    from repro.serve import ControlService, PolicyRuntime, ServeConfig

    scale = _scale_from_args(args)
    experiment = GridExperiment(scale, seed=args.seed)
    faults = None
    if args.fault_rate > 0:
        faults = FaultConfig.uniform(args.fault_rate, tuple(args.fault_kinds))
    env = experiment.train_env(args.pattern, faults=faults)
    runtime = PolicyRuntime(
        lambda: _build_agent(args.model, env, args.seed),
        checkpoint=args.checkpoint or None,
    )
    telemetry = None
    if args.telemetry_dir:
        from repro.obs import Telemetry

        telemetry = Telemetry(
            args.telemetry_dir,
            config={
                "model": args.model,
                "pattern": args.pattern,
                "ticks": args.ticks,
                "deadline_ms": args.deadline_ms,
                "fault_rate": args.fault_rate,
                "fault_kinds": list(args.fault_kinds),
            },
            seed=args.seed,
            agent_name=args.model,
        )
    config = ServeConfig(deadline_ms=args.deadline_ms, fallback=args.fallback)
    service = ControlService(env, runtime, config, telemetry=telemetry)
    reload_at = args.reload_at if args.reload_at >= 0 else args.ticks // 2
    try:
        observations = service.start_episode(args.seed)
        for tick in range(args.ticks):
            if args.reload_from and tick == reload_at:
                service.request_reload(args.reload_from)
            actions = service.decide(observations)
            result = env.step(actions)
            if result.done:
                service.health.episodes += 1
                observations = service.start_episode()
            else:
                observations = result.observations
        report = service.health.report(service.fallbacks.snapshot())
        if telemetry is not None:
            telemetry.serve_session(report)
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"telemetry written to {telemetry.run_dir}")
    print(service.health.summary())
    degraded = service.fallbacks.degraded_nodes()
    if degraded:
        print(f"degraded intersections: {', '.join(sorted(degraded))}")
    for result in service.reload_log:
        verdict = "applied" if result.applied else f"rejected ({result.reason})"
        print(f"reload {result.path}: {verdict}")
    return 0 if service.health.healthy else 1


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.report import export_run_csv, render_report, tail_events

    if args.obs_command == "report":
        print(render_report(args.run_dir, width=args.width))
        if args.csv_out:
            export_run_csv(args.run_dir, args.csv_out)
            print(f"episode CSV written to {args.csv_out}")
    else:
        for line in tail_events(args.run_dir, n=args.n):
            print(line)
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    from repro.scenarios.spec import save_spec, spec_digest
    from repro.scenarios.zoo import build_zoo_spec, zoo_catalogue

    if args.zoo_command == "list":
        for name, description in zoo_catalogue().items():
            print(f"{name:20s} {description}")
        return 0
    spec = build_zoo_spec(args.name, seed=args.seed, rows=args.rows, cols=args.cols)
    if args.zoo_command == "show":
        print(json.dumps(spec, indent=2, sort_keys=True))
        return 0
    save_spec(args.out, spec)
    print(
        f"wrote {spec['name']} to {args.out} "
        f"(digest {spec_digest(spec)[:12]})"
    )
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    scale = _scale_from_args(args)
    experiment = GridExperiment(scale, seed=args.seed)
    env = experiment.train_env(1)
    agents = [
        _build_agent(name, env, args.seed)
        for name in ("MA2C", "CoLight", "PairUpLight", "SingleAgent", "Fixedtime")
    ]
    print(formatted_overhead_table(overhead_table(agents, env)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PairUpLight reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_train = subparsers.add_parser("train", help="train one model")
    _add_scale_args(p_train)
    p_train.add_argument("--model", choices=MODEL_CHOICES, default="PairUpLight")
    p_train.add_argument("--pattern", type=int, default=1, choices=range(1, 6))
    p_train.add_argument("--log-every", type=int, default=10)
    p_train.add_argument("--history-out", type=str, default="")
    p_train.add_argument("--weights-out", type=str, default="")
    p_train.add_argument("--checkpoint-dir", type=str, default="",
                         help="write atomic training checkpoints here")
    p_train.add_argument("--checkpoint-every", type=int, default=1)
    p_train.add_argument("--resume-from", type=str, default="",
                         help="checkpoint file or directory to resume from")
    p_train.add_argument("--telemetry-dir", type=str, default="",
                         help="write a structured telemetry run directory "
                              "(events.jsonl + manifest.json + metrics.json)")
    p_train.add_argument("--trace-spans", action="store_true",
                         help="also export phase-timer trace spans "
                              "(trace.json, Chrome trace format)")
    p_train.set_defaults(func=cmd_train)

    p_eval = subparsers.add_parser("evaluate", help="train then evaluate")
    _add_scale_args(p_eval)
    p_eval.add_argument("--model", choices=MODEL_CHOICES, default="PairUpLight")
    p_eval.add_argument("--pattern", type=int, default=1, choices=range(1, 6))
    p_eval.add_argument(
        "--eval-patterns", type=int, nargs="+", default=[1, 2, 3, 4, 5]
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_compare = subparsers.add_parser("compare", help="Table II / III pipelines")
    _add_scale_args(p_compare)
    p_compare.add_argument("--table", type=int, choices=(2, 3), default=2)
    p_compare.add_argument("--models", nargs="*", default=[])
    p_compare.add_argument(
        "--scenario", type=str, default="",
        help="train/evaluate on a scenario spec instead of the paper "
             "patterns: a spec JSON path or 'zoo:<name>[:<seed>]'",
    )
    p_compare.set_defaults(func=cmd_compare)

    p_overhead = subparsers.add_parser("overhead", help="Table IV analysis")
    _add_scale_args(p_overhead)
    p_overhead.set_defaults(func=cmd_overhead)

    p_robust = subparsers.add_parser(
        "robustness", help="fault-rate degradation sweep"
    )
    _add_scale_args(p_robust)
    p_robust.add_argument("--pattern", type=int, default=1, choices=range(1, 6))
    p_robust.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.4]
    )
    p_robust.add_argument(
        "--kinds", nargs="+", choices=FAULT_KINDS, default=["message", "detector"]
    )
    p_robust.add_argument(
        "--fallback", choices=FALLBACK_POLICIES, default="max_pressure"
    )
    p_robust.add_argument("--no-ablation", action="store_true")
    p_robust.add_argument("--no-baselines", action="store_true")
    p_robust.add_argument(
        "--scenario", type=str, default="",
        help="sweep fault rates on a scenario spec (path or 'zoo:<name>')",
    )
    p_robust.set_defaults(func=cmd_robustness)

    p_multi = subparsers.add_parser(
        "multiseed", help="repeat train/evaluate over several seeds"
    )
    _add_scale_args(p_multi)
    p_multi.add_argument("--model", choices=MODEL_CHOICES, default="PairUpLight")
    p_multi.add_argument("--pattern", type=int, default=1, choices=range(1, 6))
    p_multi.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_multi.add_argument(
        "--scenario", type=str, default="",
        help="run all seeds on a scenario spec (path or 'zoo:<name>[:<seed>]')",
    )
    p_multi.add_argument(
        "--workers", type=int, default=0,
        help="forked worker processes (0 = serial; results are identical)",
    )
    p_multi.add_argument(
        "--engine", choices=("object", "soa"), default="object",
        help="'object' (default) runs every seed on its own env, each on "
        "its own one-replica SoA engine; 'soa' batches all seeds into one "
        "structure-of-arrays engine in this process (bit-identical "
        "results; ignores --workers)",
    )
    p_multi.add_argument(
        "--batched-policy", action="store_true", dest="batched_policy",
        help="with --engine soa: one policy forward per tick for all "
        "seeds' agents (PairUpLight only; bit-identical results)",
    )
    p_multi.add_argument(
        "--shared-policy", action="store_true", dest="shared_policy",
        help="with --batched-policy: train one shared policy on all "
        "seeds ((T, B*M) PPO batches; a new training regime, not "
        "bit-identical to per-seed runs)",
    )
    p_multi.set_defaults(func=cmd_multiseed)

    p_serve = subparsers.add_parser(
        "serve", help="run the fault-tolerant real-time control service"
    )
    _add_scale_args(p_serve)
    p_serve.add_argument("--model", choices=MODEL_CHOICES, default="PairUpLight")
    p_serve.add_argument("--pattern", type=int, default=1, choices=range(1, 6))
    p_serve.add_argument("--ticks", type=int, default=200,
                         help="decision ticks to serve (spans episodes)")
    p_serve.add_argument("--checkpoint", type=str, default="",
                         help="policy checkpoint to load before serving")
    p_serve.add_argument("--deadline-ms", type=float, default=50.0,
                         help="per-tick decision deadline in milliseconds")
    p_serve.add_argument(
        "--fallback", choices=FALLBACK_POLICIES, default="max_pressure"
    )
    p_serve.add_argument("--fault-rate", type=float, default=0.0,
                         help="inject faults at this rate while serving")
    p_serve.add_argument(
        "--fault-kinds", nargs="+", choices=FAULT_KINDS,
        default=["controller", "message"],
    )
    p_serve.add_argument("--reload-from", type=str, default="",
                         help="hot-reload this checkpoint mid-run")
    p_serve.add_argument("--reload-at", type=int, default=-1,
                         help="tick at which to hot-reload (-1 = midpoint)")
    p_serve.add_argument("--telemetry-dir", type=str, default="",
                         help="write serve telemetry (events.jsonl) here")
    p_serve.set_defaults(func=cmd_serve)

    p_obs = subparsers.add_parser(
        "obs", help="telemetry run-directory tooling (report / tail)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report", help="render a run directory without re-simulating"
    )
    p_report.add_argument("run_dir", help="telemetry run directory (or events.jsonl)")
    p_report.add_argument("--width", type=int, default=60)
    p_report.add_argument("--csv-out", type=str, default="",
                          help="also export the per-episode series as CSV")
    p_report.set_defaults(func=cmd_obs)
    p_tail = obs_sub.add_parser("tail", help="print the latest events of a run")
    p_tail.add_argument("run_dir", help="telemetry run directory (or events.jsonl)")
    p_tail.add_argument("-n", type=int, default=10)
    p_tail.set_defaults(func=cmd_obs)

    p_zoo = subparsers.add_parser(
        "zoo", help="scenario zoo: list entries, show/export spec JSON"
    )
    zoo_sub = p_zoo.add_subparsers(dest="zoo_command", required=True)
    p_zoo_list = zoo_sub.add_parser("list", help="list the zoo catalogue")
    p_zoo_list.set_defaults(func=cmd_zoo)
    for sub_name, sub_help in (
        ("show", "print a zoo spec as JSON"),
        ("export", "write a zoo spec to a JSON file"),
    ):
        p_zoo_entry = zoo_sub.add_parser(sub_name, help=sub_help)
        p_zoo_entry.add_argument("name", help="zoo scenario name (see 'zoo list')")
        p_zoo_entry.add_argument("--seed", type=int, default=0)
        p_zoo_entry.add_argument("--rows", type=int, default=4)
        p_zoo_entry.add_argument("--cols", type=int, default=4)
        if sub_name == "export":
            p_zoo_entry.add_argument("--out", type=str, required=True)
        p_zoo_entry.set_defaults(func=cmd_zoo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CheckpointError,
        ConfigError,
        DemandError,
        FaultInjectionError,
        NetworkError,
        ScenarioSpecError,
        SimulationError,
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a consumer that stopped reading (e.g.
        # ``repro zoo show ... | head``): exit quietly, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

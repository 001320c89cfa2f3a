#!/usr/bin/env python
"""Robustness study: train on one flow pattern, evaluate on all five.

This reproduces the protocol behind the paper's Table II at laptop
scale: every model is trained ONLY on flow pattern 1, then its frozen
policy is evaluated on patterns 1-4 (congested, different OD structure)
and pattern 5 (light uniform traffic).  The paper's headline claim is
that PairUpLight stays strong across patterns where MARL baselines
degrade badly.

Run:
    python examples/robustness_across_patterns.py [--episodes N] [--fast]
"""

from __future__ import annotations

import argparse

from repro.agents import FixedTimeSystem, PairUpLightConfig, PairUpLightSystem
from repro.eval import ExperimentScale, run_table2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=50)
    parser.add_argument("--rows", type=int, default=3)
    parser.add_argument("--cols", type=int, default=3)
    parser.add_argument("--fast", action="store_true",
                        help="fewer episodes / smaller horizon")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    episodes = 12 if args.fast else args.episodes
    scale = ExperimentScale(
        rows=args.rows,
        cols=args.cols,
        peak_rate=600.0,
        t_peak=150.0,
        light_duration=300.0,
        horizon_ticks=450,
        max_ticks=3600,
        train_episodes=episodes,
    )

    factories = {
        "Fixedtime": lambda env: FixedTimeSystem(env),
        "SingleAgent": lambda env: PairUpLightSystem(
            env,
            PairUpLightConfig(communicate=False, centralized_critic=False),
            seed=args.seed,
        ),
        "PairUpLight": lambda env: PairUpLightSystem(env, seed=args.seed),
    }

    print(f"Training on pattern 1 ({episodes} episodes each), "
          "evaluating on patterns 1-5...\n")
    table = run_table2(scale, factories, seed=args.seed)
    print(table.formatted("Average travel time (s) — trained on pattern 1 only"))
    print()
    for pattern in table.patterns:
        print(f"Pattern {pattern} winner: {table.winner(pattern)}")


if __name__ == "__main__":
    main()

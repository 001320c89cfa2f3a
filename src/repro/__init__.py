"""repro — reproduction of PairUpLight (Du, Li & Wang, ICDCS 2025).

A complete, self-contained stack for coordinated multi-intersection
traffic signal control with multi-agent reinforcement learning:

* :mod:`repro.sim` — mesoscopic traffic simulator (SUMO substitute),
* :mod:`repro.nn` — numpy autograd + layers (PyTorch substitute),
* :mod:`repro.env` — multi-agent Gym-style TSC environment,
* :mod:`repro.rl` — PPO+GAE, A2C, DQN, training runner,
* :mod:`repro.agents` — PairUpLight and the paper's baselines
  (Fixedtime, SingleAgentRL — PairUpLight's no-communication,
  local-critic preset — MA2C, CoLight),
* :mod:`repro.scenarios` — 6x6 grid, flow patterns 1-5, Monaco-style
  heterogeneous network,
* :mod:`repro.eval` — experiment pipelines reproducing the paper's
  tables and figures.

Quickstart::

    from repro.scenarios import build_grid, flow_pattern
    from repro.env import TrafficSignalEnv, EnvConfig
    from repro.agents import PairUpLightSystem
    from repro.rl import train

    grid = build_grid(4, 4)
    flows = flow_pattern(grid, pattern=1, peak_rate=500, t_peak=300)
    env = TrafficSignalEnv(grid.network, grid.phase_plans, flows,
                           EnvConfig(horizon_ticks=900))
    agent = PairUpLightSystem(env)
    history = train(agent, env, episodes=50)
    print(history.best_episode())
"""

from repro.errors import (
    CheckpointError,
    ConfigError,
    DemandError,
    FaultInjectionError,
    NetworkError,
    ReproError,
    SimulationError,
)
from repro.version import __version__

__all__ = [
    "CheckpointError",
    "ConfigError",
    "DemandError",
    "FaultInjectionError",
    "NetworkError",
    "ReproError",
    "SimulationError",
    "__version__",
]

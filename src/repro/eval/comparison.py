"""Table II / Table III pipelines: cross-pattern model comparison.

:func:`run_table2` trains every model on flow pattern 1 and evaluates on
patterns 1-5; :func:`run_table3` trains *and* evaluates on the light
uniform pattern 5.  Both return :class:`ComparisonTable` objects that
print in the paper's row/column layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.base import AgentSystem
from repro.errors import ConfigError
from repro.eval.harness import (
    AgentFactory,
    ExperimentScale,
    GridExperiment,
    make_experiment,
)
from repro.rl.runner import TrainingHistory

ALL_PATTERNS = (1, 2, 3, 4, 5)


@dataclass
class ComparisonTable:
    """Average travel time per (model, column) — the paper's Table II.

    Columns are flow-pattern numbers for the paper tables and scenario
    names for zoo/spec generalisation tables; both can coexist.
    """

    patterns: tuple[int | str, ...]
    rows: dict[str, dict[int | str, float]] = field(default_factory=dict)
    histories: dict[str, TrainingHistory] = field(default_factory=dict)

    def add(self, model: str, pattern: int | str, travel_time: float) -> None:
        self.rows.setdefault(model, {})[pattern] = travel_time

    def value(self, model: str, pattern: int | str) -> float:
        return self.rows[model][pattern]

    def winner(self, pattern: int | str) -> str:
        """Model with the lowest average travel time for a column."""
        return min(self.rows, key=lambda model: self.rows[model].get(pattern, float("inf")))

    @staticmethod
    def _column_label(pattern: int | str) -> str:
        return pattern if isinstance(pattern, str) else f"Pattern {pattern}"

    def formatted(self, title: str = "Average travel time (seconds)") -> str:
        width = max(11, max((len(self._column_label(p)) for p in self.patterns), default=11))
        header = ["Model".ljust(18)] + [
            self._column_label(p).rjust(width) for p in self.patterns
        ]
        lines = [title, " | ".join(header)]
        lines.append("-" * len(lines[1]))
        for model, cells in self.rows.items():
            row = [model.ljust(18)]
            for pattern in self.patterns:
                value = cells.get(pattern)
                row.append("—".rjust(width) if value is None else f"{value:{width}.2f}")
            lines.append(" | ".join(row))
        return "\n".join(lines)


def default_model_factories(seed: int = 0) -> dict[str, AgentFactory]:
    """The paper's five models (Section VI-B), keyed by table row name."""
    from repro.agents.colight import CoLightSystem
    from repro.agents.fixed_time import FixedTimeSystem
    from repro.agents.ma2c import MA2CSystem
    from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem

    return {
        "Fixedtime": lambda env: FixedTimeSystem(env),
        # SingleAgentRL: PairUpLight without communication, local critic.
        "SingleAgent": lambda env: PairUpLightSystem(
            env,
            PairUpLightConfig(communicate=False, centralized_critic=False),
            seed=seed,
        ),
        "MA2C": lambda env: MA2CSystem(env, seed=seed),
        "CoLight": lambda env: CoLightSystem(env, seed=seed),
        "PairUpLight": lambda env: PairUpLightSystem(env, seed=seed),
    }


def run_table2(
    scale: ExperimentScale,
    factories: dict[str, AgentFactory] | None = None,
    seed: int = 0,
    train_pattern: int = 1,
    eval_patterns: tuple[int, ...] = ALL_PATTERNS,
    scenario=None,
) -> ComparisonTable:
    """Train each model on ``train_pattern``, evaluate across patterns.

    With ``scenario`` set (anything
    :func:`repro.scenarios.resolve_scenario` accepts — a spec path,
    ``"zoo:<name>"``, a spec dict or a compiled scenario), the pipeline
    trains and evaluates every model on that scenario instead of the
    paper's patterns; the table then has a single column named after the
    scenario.
    """
    factories = factories or default_model_factories(seed)
    experiment = make_experiment(scale, seed=seed, scenario=scenario)
    if scenario is not None:
        eval_patterns = (experiment.compiled.name,)
    table = ComparisonTable(patterns=eval_patterns)
    for name, factory in factories.items():
        agent, history = experiment.train_agent(factory, pattern=train_pattern)
        table.histories[name] = history
        for pattern in eval_patterns:
            result = experiment.evaluate_agent(agent, pattern)
            table.add(name, pattern, result.average_travel_time)
    return table


def run_scenario_table(
    scale: ExperimentScale,
    scenarios: dict[str, "object"],
    factories: dict[str, AgentFactory] | None = None,
    seed: int = 0,
    train_on: str | None = None,
) -> ComparisonTable:
    """Table-II layout across a set of scenarios instead of patterns.

    ``scenarios`` maps column names to anything
    :func:`repro.scenarios.resolve_scenario` accepts.  Each model trains
    once on ``train_on`` (default: the first scenario) and its frozen
    policy is evaluated on every column — the CoordLight-style
    generalisation protocol.  All scenarios must share the training
    network's agent layout (same intersections, same phase counts), e.g.
    zoo entries on the same grid size; a mismatch raises
    :class:`~repro.errors.ConfigError` naming the offending scenario.
    """
    from repro.scenarios.spec import resolve_scenario

    if not scenarios:
        raise ConfigError("need at least one scenario column")
    factories = factories or default_model_factories(seed)
    experiments = {
        name: make_experiment(scale, seed=seed, scenario=resolve_scenario(source))
        for name, source in scenarios.items()
    }
    train_on = train_on if train_on is not None else next(iter(experiments))
    if train_on not in experiments:
        raise ConfigError(f"train_on {train_on!r} is not a scenario column")
    reference = experiments[train_on]
    ref_env = reference.train_env()
    for name, experiment in experiments.items():
        env = experiment.train_env()
        if (
            env.agent_ids != ref_env.agent_ids
            or any(
                env.action_spaces[a].n != ref_env.action_spaces[a].n
                or env.observation_spaces[a].dim != ref_env.observation_spaces[a].dim
                for a in env.agent_ids
            )
        ):
            raise ConfigError(
                f"scenario {name!r} has a different agent layout than "
                f"{train_on!r}; cross-scenario evaluation needs matching "
                "networks (same grid size / topology)"
            )
    table = ComparisonTable(patterns=tuple(experiments))
    for model_name, factory in factories.items():
        agent, history = reference.train_agent(factory)
        table.histories[model_name] = history
        for column, experiment in experiments.items():
            result = experiment.evaluate_agent(agent, 1)
            table.add(model_name, column, result.average_travel_time)
    return table


def run_table3(
    scale: ExperimentScale,
    factories: dict[str, AgentFactory] | None = None,
    seed: int = 0,
) -> ComparisonTable:
    """Light-traffic study: train and evaluate on pattern 5 only."""
    factories = factories or default_model_factories(seed)
    experiment = GridExperiment(scale, seed=seed)
    table = ComparisonTable(patterns=(5,))
    for name, factory in factories.items():
        agent, history = experiment.train_agent(factory, pattern=5)
        table.histories[name] = history
        result = experiment.evaluate_agent(agent, 5)
        table.add(name, 5, result.average_travel_time)
    return table


def train_agent_on_pattern(
    scale: ExperimentScale,
    factory: AgentFactory,
    pattern: int = 1,
    seed: int = 0,
    episodes: int | None = None,
) -> tuple[AgentSystem, TrainingHistory]:
    """Convenience wrapper used by the figure benchmarks."""
    experiment = GridExperiment(scale, seed=seed)
    return experiment.train_agent(factory, pattern=pattern, episodes=episodes)

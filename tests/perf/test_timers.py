"""Phase timers: sections, external measurements and the runner hooks."""

from __future__ import annotations

import pytest

from repro.perf.timers import PhaseTimers


class TestPhaseTimers:
    def test_disabled_sections_record_nothing(self):
        timers = PhaseTimers()
        with timers.section("work"):
            pass
        assert timers.report() == {}
        assert timers.seconds("work") == 0.0

    def test_enabled_sections_accumulate(self):
        timers = PhaseTimers()
        timers.enable()
        for _ in range(3):
            with timers.section("work"):
                pass
        report = timers.report()
        assert report["work"]["calls"] == 3
        assert report["work"]["seconds"] >= 0.0

    def test_reset_clears(self):
        timers = PhaseTimers()
        timers.enable()
        with timers.section("a"):
            pass
        timers.reset()
        assert timers.report() == {}

    def test_add_external_measurement(self):
        timers = PhaseTimers()
        timers.add("sim_tick", 1.5, calls=600)
        assert timers.seconds("sim_tick") == 1.5
        assert timers.calls("sim_tick") == 600

    def test_section_survives_exception(self):
        timers = PhaseTimers()
        timers.enable()
        with pytest.raises(ValueError):
            with timers.section("bad"):
                raise ValueError("boom")
        assert timers.calls("bad") == 1

    def test_runner_hooks_record_phases(self):
        """train() phases show up in the global registry when enabled."""
        from repro.agents import MaxPressureSystem
        from repro.eval.harness import ExperimentScale, GridExperiment
        from repro.perf.timers import TIMERS
        from repro.rl.runner import train

        scale = ExperimentScale(
            rows=2, cols=2, peak_rate=600.0, t_peak=60.0, light_duration=120.0,
            horizon_ticks=60, max_ticks=3600, train_episodes=1, eval_episodes=1,
        )
        env = GridExperiment(scale, seed=0).train_env(1)
        TIMERS.reset()
        TIMERS.enable()
        try:
            train(MaxPressureSystem(env), env, episodes=1, seed=0)
        finally:
            TIMERS.disable()
        report = TIMERS.report()
        assert report["forward"]["calls"] > 0
        assert report["env_step"]["calls"] > 0
        assert report["update"]["calls"] == 1
        TIMERS.reset()


class TestEngineSections:
    """``SoAEngine._step_once`` times its sub-phases, and timing them
    changes nothing: a serve run and a lockstep run give identical
    results with ``TIMERS`` on and off, and every section is recorded
    once per engine tick."""

    SECTIONS = ("sim/signals", "sim/discharge", "sim/advance", "sim/insert", "sim/demand")
    SCALE = dict(
        rows=3, cols=3, peak_rate=900.0, t_peak=60.0, light_duration=120.0,
        horizon_ticks=100, max_ticks=3600, train_episodes=1, eval_episodes=1,
    )

    def _serve(self):
        from repro.agents import PairUpLightSystem
        from repro.eval.harness import ExperimentScale, GridExperiment
        from repro.faults.config import FaultConfig
        from repro.serve import ControlService, PolicyRuntime, ServeConfig

        faults = FaultConfig(controller_failure=0.25, message_delay=0.25)
        env = GridExperiment(ExperimentScale(**self.SCALE), seed=2).train_env(1, faults=faults)
        runtime = PolicyRuntime(lambda: PairUpLightSystem(env, seed=5))
        service = ControlService(env, runtime, ServeConfig(deadline_ms=500.0, watchdog=False))
        observations = service.start_episode(seed=2)
        out = []
        for _ in range(30):
            actions = service.decide(observations)
            result = env.step(actions)
            out.append((actions, result.info["average_wait"], result.rewards))
            observations = (
                service.start_episode() if result.done else result.observations
            )
        return out, 30 * env.config.delta_t

    def _lockstep(self):
        import numpy as np

        from repro.eval.batched import LockstepEnvGroup
        from repro.eval.harness import ExperimentScale, GridExperiment

        envs = [
            GridExperiment(ExperimentScale(**self.SCALE), seed=s).train_env(1)
            for s in (3, 4)
        ]
        group = LockstepEnvGroup(envs)
        group.reset_all([3, 4])
        rng = np.random.default_rng(0)
        out = []
        for _ in range(12):
            actions = [
                {a: int(rng.integers(env.action_spaces[a].n)) for a in env.agent_ids}
                for env in envs
            ]
            for result in group.step_all(actions):
                out.append((
                    {a: obs.tobytes() for a, obs in result.observations.items()},
                    result.rewards,
                    result.info["average_wait"],
                ))
        return out, 12 * envs[0].config.delta_t

    @pytest.mark.parametrize("run", ["_serve", "_lockstep"])
    def test_timed_run_is_bit_exact_and_records_every_section(self, run):
        from repro.perf.timers import TIMERS

        untimed, ticks = getattr(self, run)()
        TIMERS.reset()
        TIMERS.enable()
        try:
            timed, _ = getattr(self, run)()
        finally:
            TIMERS.disable()
        report = TIMERS.report()
        TIMERS.reset()
        assert timed == untimed
        for name in self.SECTIONS:
            assert report[name]["calls"] == ticks, name
            assert report[name]["seconds"] >= 0.0

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

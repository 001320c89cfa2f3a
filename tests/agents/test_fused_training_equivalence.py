"""End-to-end equivalence of the fused update path (PR 5 tentpole).

Three contracts on a tiny grid:

* fused kernels vs the composed op chains of ``helpers.composed_kernels``
  — the fused LSTM trunk / affine kernels replace composed op chains
  *with the same op order*, so full training episodes must produce
  bit-identical parameters and stats.  The sequence kernel's oracle
  (``helpers.composed_lstm_sequence``) keeps every value and recurrence
  as a per-step chain and forms each trunk weight gradient as one GEMM
  over the sequence's T*N rows, as the kernel does; a per-step unroll
  would agree with the kernel's weight gradients only to rounding.
* ``helpers.evaluate_shared_stepwise`` (the pre-change per-step-heads
  evaluator) vs the sequence-level evaluator — forward outputs are
  row-local and must match bit-exactly; weight gradients reduce over
  (T*M) rows in one GEMM instead of T accumulated GEMMs, so they agree
  only to reduction-order rounding (~1e-15 relative).
* telemetry on vs off — enabling :data:`repro.perf.timers.TIMERS`
  (the PPO epoch/minibatch spans and the evaluate/backward/step
  sections nested in each minibatch) must not perturb training.
"""

from __future__ import annotations

import numpy as np

from helpers import composed_kernels, kernels, use_stepwise_eval
from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.perf.timers import TIMERS
from repro.rl.ppo import PPOConfig

TINY = ExperimentScale(
    rows=2,
    cols=2,
    peak_rate=600.0,
    t_peak=60.0,
    light_duration=120.0,
    horizon_ticks=100,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)


def _rollout_system(stepwise_eval: bool = False, **config_kwargs):
    """Build a system and run one untrained rollout episode."""
    experiment = GridExperiment(TINY, seed=5)
    env = experiment.train_env(1)
    agent = PairUpLightSystem(env, PairUpLightConfig(**config_kwargs), seed=5)
    if stepwise_eval:
        use_stepwise_eval(agent)
    observations = env.reset(seed=21)
    agent.begin_episode(env, True)
    done = False
    while not done:
        actions = agent.act(observations, env, True)
        result = env.step(actions)
        agent.observe(result, env)
        observations = result.observations
        done = result.done
    return env, agent


def _train(episodes: int = 2, fused: bool = True, **config_kwargs):
    """Train on the tiny grid; return (per-episode stats, state_dict)."""
    experiment = GridExperiment(TINY, seed=5)
    env = experiment.train_env(1)
    agent = PairUpLightSystem(env, PairUpLightConfig(**config_kwargs), seed=5)
    all_stats = []
    with kernels(fused):
        for episode in range(episodes):
            observations = env.reset(seed=21 + episode)
            agent.begin_episode(env, True)
            done = False
            while not done:
                actions = agent.act(observations, env, True)
                result = env.step(actions)
                agent.observe(result, env)
                observations = result.observations
                done = result.done
            all_stats.append(agent.end_episode(env, training=True))
    return all_stats, agent.state_dict()


def _assert_identical(run_a, run_b):
    stats_a, state_a = run_a
    stats_b, state_b = run_b
    assert repr(stats_a) == repr(stats_b)
    assert set(state_a) == set(state_b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


def _param_grads(agent) -> dict[str, np.ndarray]:
    grads = {}
    for module_name, module in agent._checkpoint_modules().items():
        for name, param in module.named_parameters():
            if param.grad is not None:
                grads[f"{module_name}.{name}"] = param.grad.copy()
    return grads


class TestFusedTrainingEquivalence:
    def test_fused_matches_composed_bit_exact(self):
        # minibatch_agents=3 on the 4-agent grid gives ragged minibatches
        # (3 + 1 agents), so the grouped trunk kernel's workspace sees
        # its row count change between minibatches.
        for ppo in ({}, {"ppo": PPOConfig(minibatch_agents=3)}):
            _assert_identical(_train(fused=True, **ppo), _train(fused=False, **ppo))


class TestStepwiseEvaluatorEquivalence:
    def test_forward_outputs_bit_exact(self):
        with composed_kernels():
            _, seq_agent = _rollout_system()
            _, step_agent = _rollout_system(stepwise_eval=True)
            data = seq_agent.buffer.stacked()
            step_data = step_agent.buffer.stacked()
            for key in data:
                assert np.array_equal(data[key], step_data[key]), key
            batch = np.arange(seq_agent.num_agents)
            for seq_out, step_out in zip(
                seq_agent._evaluate(data, batch), step_agent._evaluate(step_data, batch)
            ):
                assert np.array_equal(seq_out.data, step_out.data)

    def test_gradients_match_to_reduction_rounding(self):
        grads = {}
        for stepwise in (False, True):
            with composed_kernels():
                _, agent = _rollout_system(stepwise_eval=stepwise)
                data = agent.buffer.stacked()
                batch = np.arange(agent.num_agents)
                logprobs, entropies, values = agent._evaluate(data, batch)
                (logprobs.sum() + entropies.sum() + values.sum()).backward()
            grads[stepwise] = _param_grads(agent)
        assert set(grads[False]) == set(grads[True])
        for key in grads[False]:
            np.testing.assert_allclose(
                grads[False][key], grads[True][key], rtol=1e-10, atol=1e-12,
                err_msg=key,
            )


class TestTelemetryBitExactness:
    def test_timers_enabled_does_not_perturb_training(self):
        baseline = _train(fused=True)
        TIMERS.enable()
        try:
            timed = _train(fused=True)
        finally:
            TIMERS.disable()
            TIMERS.reset()
        _assert_identical(baseline, timed)

    def test_ppo_spans_recorded(self):
        TIMERS.reset()
        TIMERS.enable()
        try:
            _train(episodes=1, fused=True)
        finally:
            TIMERS.disable()
        report = TIMERS.report()
        TIMERS.reset()
        assert "update/epoch" in report
        assert "update/minibatch" in report
        assert report["update/epoch"]["calls"] >= 1
        assert report["update/minibatch"]["calls"] >= report["update/epoch"]["calls"]
        # The minibatch span is attributed by three nested sections, one
        # call each per minibatch, that together fit inside it.
        nested = ("update/evaluate", "update/backward", "update/step")
        for name in nested:
            assert report[name]["calls"] == report["update/minibatch"]["calls"], name
        assert (
            sum(report[name]["seconds"] for name in nested)
            <= report["update/minibatch"]["seconds"]
        )

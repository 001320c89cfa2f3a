"""Shared helpers importable from any test module (see conftest.py)."""

from __future__ import annotations

import sys
import types
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.env.tsc_env import EnvConfig, TrafficSignalEnv
from repro.nn import functional as F
from repro.nn import tensor as tensor_mod
from repro.nn.tensor import Tensor, concat, stack
from repro.scenarios.flows import flow_pattern
from repro.scenarios.grid import GridScenario


def make_env(
    scenario: GridScenario,
    pattern: int = 1,
    peak_rate: float = 500.0,
    t_peak: float = 120.0,
    horizon_ticks: int = 300,
    drain: bool = False,
    seed: int = 0,
    **config_kwargs,
) -> TrafficSignalEnv:
    """Build a small environment over a grid scenario."""
    flows = flow_pattern(
        scenario, pattern, peak_rate=peak_rate, t_peak=t_peak, light_duration=2 * t_peak
    )
    config = EnvConfig(
        horizon_ticks=horizon_ticks,
        max_ticks=max(horizon_ticks * 8, 2400),
        drain=drain,
        **config_kwargs,
    )
    return TrafficSignalEnv(
        scenario.network, scenario.phase_plans, flows, config, seed=seed
    )


def single_agent(env: TrafficSignalEnv, seed: int = 0):
    """The SingleAgentRL baseline: PairUpLight's no-communication,
    local-critic preset."""
    from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem

    config = PairUpLightConfig(communicate=False, centralized_critic=False)
    return PairUpLightSystem(env, config, seed=seed)


def public_engine_snapshot(sim) -> dict:
    """The full public introspection surface of an engine, as one dict.

    Snapshot equality across engines is the cross-engine agreement
    oracle used by the fuzz suites (``tests/sim/test_engine_fuzz.py``
    and ``tests/scenarios/test_fuzz_zoo.py``).
    """
    network = sim.network
    return {
        "time": sim.time,
        "queues": {
            lane.lane_id: (
                sim.queue_length(lane.lane_id),
                sim.head_wait(lane.lane_id),
                sim.discharge_credit(lane.lane_id),
            )
            for link in network.links.values()
            for lane in link.lanes
        },
        "links": {
            link_id: (
                sim.link_occupancy[link_id],
                sim.halting_count(link_id),
                sim.link_head_wait(link_id),
            )
            for link_id in network.links
        },
        "counts": (
            sim.vehicles_in_network(),
            sim.pending_insertions(),
            sim.total_created,
            len(sim.finished_vehicles),
            sim.teleport_count,
        ),
        "drained": sim.is_drained(),
    }


def check_engine_invariants(sim, teleport=None) -> None:
    """Conservation and bounds every engine must satisfy at any tick.

    ``teleport`` is the engine's teleport watchdog (or None): with the
    watchdog on, a teleported head enters its next link ignoring storage,
    so the static occupancy bound is only asserted without it.
    """
    created = sim.total_created
    in_network = sim.vehicles_in_network()
    pending = sim.pending_insertions()
    finished = len(sim.finished_vehicles)
    assert created == in_network + pending + finished
    assert min(in_network, pending, finished) >= 0
    for link_id, link in sim.network.links.items():
        occupancy = sim.link_occupancy[link_id]
        halted = sim.halting_count(link_id)
        assert 0 <= halted <= occupancy
        if teleport is None:
            assert occupancy <= link.storage
        for lane in link.lanes:
            assert sim.queue_length(lane.lane_id) >= 0
            assert sim.head_wait(lane.lane_id) >= 0


# ---------------------------------------------------------------------
# Composed-op oracles for the fused nn kernels
# ---------------------------------------------------------------------
# Each fused kernel in ``repro.nn.tensor`` replaces a chain of generic
# ops with one graph node and a hand-derived backward.  The chains below
# are those generic-op formulations, kept here as the oracles the
# kernels are compared against, bit for bit in forward values and
# accumulated gradients.  ``affine``, ``lstm_cell`` and ``lstm_trunk``
# are plain chains.  ``lstm_sequence`` keeps every value and recurrence
# as a per-step chain, but forms each of the two weight gradients as one
# GEMM over the sequence's T·N rows, as the kernel does; its hidden
# states, input gradient and bias gradients are those of the per-step
# ``lstm_trunk`` unroll, and its weight gradients agree with that
# unroll to reduction-order rounding.


def composed_affine(x, weight, bias=None) -> Tensor:
    """``x @ weight + bias`` as a matmul node and an add node."""
    out = Tensor.ensure(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def composed_lstm_cell(x, h_prev, c_prev, weight, bias, workspace=None):
    """One LSTM step as the ~15-node gate chain; returns ``(h, c)``."""
    gates = concat([Tensor.ensure(x), Tensor.ensure(h_prev)], axis=-1) @ weight + bias
    return _composed_gates(gates, c_prev)


def _composed_gates(gates, c_prev):
    """The gate and state chain of one LSTM step from its ``[i, f, g, o]``
    pre-activations; returns ``(h, c)``."""
    c_prev = Tensor.ensure(c_prev)
    hs = c_prev.shape[-1]
    i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs : 3 * hs].tanh()
    o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * c_new.tanh()
    return h_new, c_new


def composed_lstm_trunk(
    x, h_prev, c_prev, enc_weight, enc_bias, weight, bias, workspace=None
):
    """``tanh(x @ We + be)`` into :func:`composed_lstm_cell`."""
    encoded = composed_affine(x, enc_weight, enc_bias).tanh()
    return composed_lstm_cell(encoded, h_prev, c_prev, weight, bias)


def composed_lstm_sequence(*trunks, workspace=None) -> tuple:
    """Each trunk unrolled step by step from a zero state, then stacked.

    Every step is the composed trunk chain, except that the encoder and
    LSTM weights enter it as constants and a tap on each step's encoder
    and gate pre-activation records the gradient arriving there.  An
    anchor node, created before the unroll so that its backward fires
    after every step's, then forms each weight gradient as one GEMM
    over the ``T·N`` rows in time order: the stacked step inputs,
    transposed, times the stacked pre-activation gradients.  That is
    the row order and operand memory order of ``lstm_sequence``.
    """
    return tuple(_composed_sequence_trunk(*trunk) for trunk in trunks)


def _composed_sequence_trunk(x, enc_weight, enc_bias, weight, bias) -> Tensor:
    x = Tensor.ensure(x)
    params = (Tensor.ensure(enc_weight), Tensor.ensure(weight))
    steps = x.shape[0]
    # Per weight and step: the GEMM input (x_t, then [encoded_t, h_{t-1}])
    # and the pre-activation gradient the weight's GEMM pairs it with.
    inputs = ([None] * steps, [None] * steps)
    dpre = ([None] * steps, [None] * steps)

    def anchor_backward(_) -> None:
        for param, rows, grads in zip(params, inputs, dpre):
            if param.requires_grad:
                param._accumulate(np.concatenate(rows).T @ np.concatenate(grads))

    anchor = Tensor._from_op(np.zeros(()), params, anchor_backward)

    def tapped(pre: Tensor, k: int, t: int) -> Tensor:
        def tap_backward(grad: np.ndarray) -> None:
            dpre[k][t] = grad
            if pre.requires_grad:
                pre._accumulate(grad)
            if anchor.requires_grad:
                anchor._accumulate(np.zeros(()))

        return Tensor._from_op(pre.data, (pre, anchor), tap_backward)

    enc_const, weight_const = (Tensor(p.data) for p in params)
    h = np.zeros((x.shape[1], weight_const.shape[-1] // 4))
    c = np.zeros_like(h)
    hidden = []
    for t in range(steps):
        x_t = x[t]
        inputs[0][t] = x_t.data
        encoded = tapped(composed_affine(x_t, enc_const, enc_bias), 0, t).tanh()
        xh = concat([encoded, Tensor.ensure(h)], axis=-1)
        inputs[1][t] = xh.data
        h, c = _composed_gates(tapped(xh @ weight_const + bias, 1, t), c)
        hidden.append(h)
    return stack(hidden, axis=0)


_COMPOSED = {
    "affine": composed_affine,
    "lstm_cell": composed_lstm_cell,
    "lstm_trunk": composed_lstm_trunk,
    "lstm_sequence": composed_lstm_sequence,
}


@contextmanager
def composed_kernels():
    """Run every loaded ``repro`` module on the composed chains.

    Inside the block, each module that imported a fused kernel from
    ``repro.nn.tensor`` (``Linear``, ``LSTMCell``, the PairUpLight actor,
    critic and PPO evaluator) calls its composed oracle instead.
    """
    swapped = []
    for name, composed in _COMPOSED.items():
        fused = getattr(tensor_mod, name)
        for module in list(sys.modules.values()):
            if (
                module is not tensor_mod
                and getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, name, None) is fused
            ):
                setattr(module, name, composed)
                swapped.append((module, name, fused))
    try:
        yield
    finally:
        for module, name, fused in swapped:
            setattr(module, name, fused)


def kernels(fused: bool):
    """The fused kernels as they are, or the composed oracle chains."""
    return nullcontext() if fused else composed_kernels()


def evaluate_shared_stepwise(agent, data, batch):
    """Per-step PPO re-evaluation of a parameter-shared PairUpLight agent.

    The pre-fusion evaluator: every head (policy, message, value,
    log-softmax, entropy, gather) runs inside the unroll, one step at a
    time.  Its forward outputs match ``_evaluate_shared`` bit for bit
    (every head op is position-wise); its weight gradients reduce over
    ``T`` per-step GEMMs instead of one, so they agree to rounding.
    """
    from repro.agents.pairuplight.agent import _gaussian_logprob

    cfg = agent.config
    actor = agent.shared_actor
    critic = agent.shared_critic
    batch = np.asarray(batch, dtype=np.int64)
    a_state = actor.initial_state(len(batch))
    c_state = critic.initial_state(len(batch))
    logprob_steps, entropy_steps, value_steps = [], [], []
    for t in range(data["obs"].shape[0]):
        msg_in = data["msg_in"][t, batch] if cfg.communicate else None
        logits, msg_mean, a_state = actor(data["obs"][t, batch], msg_in, a_state)
        log_probs = F.log_softmax(logits)
        probs = F.softmax(logits)
        step_logprob = F.gather(log_probs, data["action"][t, batch])
        if cfg.communicate:
            step_logprob = step_logprob + _gaussian_logprob(
                data["raw_msg"][t, batch], msg_mean, cfg.sigma
            )
        logprob_steps.append(step_logprob)
        entropy_steps.append(F.entropy(probs))
        value, c_state = critic(data["critic_feat"][t, batch], c_state)
        value_steps.append(value)
    return (
        stack(logprob_steps, axis=0),
        stack(entropy_steps, axis=0),
        stack(value_steps, axis=0),
    )


def use_stepwise_eval(agent):
    """Make ``agent`` re-evaluate with :func:`evaluate_shared_stepwise`."""
    agent._evaluate_shared = types.MethodType(evaluate_shared_stepwise, agent)
    return agent


# ----------------------------------------------------------------------
# Per-agent / per-node oracles of the serving layer's array passes
# ----------------------------------------------------------------------
def reference_message_faults(schedule, agent_ids, messages, own, prev, last,
                             staleness, degrade_on_loss, decay, max_staleness,
                             sink_ticks=None):
    """One receiver at a time: the channel's deliver, then the resilient
    reader's receive (or zeros for a loss without it), on dict state.

    ``prev``/``last``/``staleness`` are per-agent dicts, updated in
    place; returns the ``(M, D)`` resolved messages.  The scalar
    schedule draws run in receiver order — drop, then delay, then
    corrupt and its payload — and activations go to the schedule's sink
    with ``sink_ticks`` as their tick.
    """
    config = schedule.config
    out = np.zeros_like(messages, dtype=np.float64)
    for i, agent_id in enumerate(agent_ids):
        message = np.asarray(messages[i], dtype=np.float64)
        kind = None
        if config.message_drop and schedule.message_dropped():
            kind, delivered = "message_drop", None
        elif config.message_delay and schedule.message_delayed():
            kind, delivered = "message_delay", prev[agent_id].copy()
        elif config.message_corrupt and schedule.message_corrupted():
            kind, delivered = "message_corrupt", schedule.corrupt(message)
        else:
            delivered = message
        if kind is not None and schedule.event_sink is not None:
            schedule.emit_activation(kind, agent_id, tick=sink_ticks)
        if delivered is not None:
            prev[agent_id] = delivered.copy()
        if not degrade_on_loss:
            out[i] = 0.0 if delivered is None else delivered
        elif delivered is not None:
            last[agent_id] = delivered.copy()
            staleness[agent_id] = 0
            out[i] = last[agent_id]
        else:
            staleness[agent_id] += 1
            if staleness[agent_id] > max_staleness:
                out[i] = own[i]
            else:
                out[i] = last[agent_id] * (decay ** staleness[agent_id])
    return out


class ReferenceFallbackManager:
    """The per-node fallback state machine: one ``decide`` per
    intersection and tick, on :class:`NodeHealth` records."""

    def __init__(self, node_ids, config) -> None:
        from repro.serve.fallback import NodeHealth

        self.config = config
        self.states = {
            node_id: NodeHealth(backoff_ticks=config.backoff_base_ticks)
            for node_id in node_ids
        }

    def decide(self, node_id: str, tick: int, policy_healthy: bool):
        """``(use_fallback, transition)`` of one intersection."""
        from repro.serve.fallback import BACKOFF, PRIMARY, PROBATION

        cfg = self.config
        state = self.states[node_id]
        if not policy_healthy:
            transition = None
            if state.mode == PRIMARY:
                state.backoff_ticks = max(state.backoff_ticks, cfg.backoff_base_ticks)
                state.resume_tick = tick + state.backoff_ticks
                transition = "demoted"
                state.demotions += 1
            elif state.mode == PROBATION or tick >= state.resume_tick:
                state.backoff_ticks = min(
                    max(
                        int(state.backoff_ticks * cfg.backoff_factor),
                        state.backoff_ticks + 1,
                    ),
                    cfg.backoff_max_ticks,
                )
                state.resume_tick = tick + state.backoff_ticks
            state.mode = BACKOFF
            state.healthy_streak = 0
            state.failures += 1
            state.fallback_ticks += 1
            return True, transition
        if state.mode == PRIMARY:
            state.healthy_streak += 1
            if state.healthy_streak >= cfg.reset_backoff_after:
                state.backoff_ticks = cfg.backoff_base_ticks
            return False, None
        if state.mode == BACKOFF and tick < state.resume_tick:
            state.fallback_ticks += 1
            return True, None
        state.mode = PROBATION
        state.healthy_streak += 1
        if state.healthy_streak >= cfg.promote_after:
            state.mode = PRIMARY
            state.promotions += 1
            return False, "promoted"
        return False, None


def reference_decide(service, observations) -> dict:
    """``ControlService.decide`` one intersection at a time.

    Per node, in agent order: the failure verdict (with the injected
    controller death queried from the schedule right there), the
    per-node arbitration of ``service.fallbacks`` (a
    :class:`ReferenceFallbackManager`) and, on fallback, that node's
    ``FallbackController.action``.  Telemetry events and health counters
    follow the same order.
    """
    from repro.serve.deadline import DeadlineBudget

    env = service.env
    tick = service.tick_index
    service.tick_index += 1
    budget = DeadlineBudget(service.config.deadline_s, clock=service._clock)
    failure = None
    raw_actions = {}
    try:
        raw_actions = service.runtime.act(observations, env)
    except Exception as error:
        failure = f"{type(error).__name__}: {error}"
    deadline_missed = budget.exceeded()
    if failure is not None:
        service.health.policy_exceptions += 1
    schedule = env.fault_schedule
    actions = {}
    fallback_count = 0
    for node_id in env.agent_ids:
        verdict = None
        if failure is not None:
            verdict = "policy_exception"
        elif deadline_missed:
            verdict = "deadline_miss"
        else:
            action = raw_actions.get(node_id)
            try:
                valid = action is not None and env.action_spaces[node_id].contains(
                    int(action)
                )
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                verdict = "invalid_action"
                service.health.invalid_actions += 1
        if (
            schedule is not None
            and schedule.config.any_controller_faults
            and schedule.controller_dead(node_id)
        ):
            schedule.emit_activation(
                "controller_death", node_id, tick=env.sim.time, scope="episode"
            )
            verdict = "controller_fault"
            service.health.controller_faults += 1
        use_fallback, transition = service.fallbacks.decide(
            node_id, tick, verdict is None
        )
        if service.telemetry is not None:
            if transition == "demoted":
                service.telemetry.serve_fallback(
                    node_id=node_id,
                    tick=tick,
                    reason=verdict,
                    backoff_ticks=service.fallbacks.states[node_id].backoff_ticks,
                )
            elif transition == "promoted":
                service.telemetry.serve_promotion(node_id=node_id, tick=tick)
        if use_fallback:
            actions[node_id] = service.fallback_controller.action(env, node_id)
            fallback_count += 1
        else:
            actions[node_id] = int(raw_actions[node_id])
    service.health.observe_tick(
        latency_s=budget.elapsed(),
        served=len(actions),
        expected=len(env.agent_ids),
        fallback_count=fallback_count,
        deadline_missed=deadline_missed,
    )
    return actions

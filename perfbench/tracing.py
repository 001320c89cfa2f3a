"""Benchmark-side span tracing of the program's layer boundaries.

Nothing under ``src/repro`` knows about this module.  :func:`installed`
replaces each boundary method in :data:`BOUNDARIES` on its class with a
timing wrapper for the duration of a ``with`` block and puts the
original function object back on exit, so an untraced run executes
exactly the program's own code.

Each call of a wrapped method records one span ``[name, start, end,
parent]``, where ``parent`` is the index of the innermost span open when
the call began (``-1`` at top level).  Spans stay in memory until the
run ends; :meth:`Tracer.write` then dumps them as JSON.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans plus ``other`` (wall time covered by no span)
add up to the traced phase's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from contextlib import contextmanager
from time import perf_counter

#: ``(metric name, module, class, method)`` of every traced boundary.
#: The metric name is the module path under ``repro`` plus the method,
#: which stays within the 64-character metric-name limit once the
#: ``.calls``/``.self_s``/``.share`` suffix is added.
BOUNDARIES = (
    ("rl.ppo.update", "repro.rl.ppo", "PPOUpdater", "update"),
    ("nn.tensor.backward", "repro.nn.tensor", "Tensor", "backward"),
    ("nn.optim.step", "repro.nn.optim", "Adam", "step"),
    ("agents.pairuplight.batched.act_all",
     "repro.agents.pairuplight.batched", "BatchedPolicyGroup", "act_all"),
    ("agents.pairuplight.batched.observe_all",
     "repro.agents.pairuplight.batched", "BatchedPolicyGroup", "observe_all"),
    ("agents.pairuplight.batched.end_episode_all",
     "repro.agents.pairuplight.batched", "BatchedPolicyGroup",
     "end_episode_all"),
    ("sim.soa.step", "repro.sim.soa", "SoAEngine", "step"),
    ("eval.batched_obs.finish_all",
     "repro.eval.batched_obs", "BatchedStepExtractor", "finish_all"),
    ("eval.batched.reset_all", "repro.eval.batched", "LockstepEnvGroup",
     "reset_all"),
    ("eval.batched.step_all", "repro.eval.batched", "LockstepEnvGroup",
     "step_all"),
    ("serve.service.decide", "repro.serve.service", "ControlService",
     "decide"),
    ("serve.runtime.act", "repro.serve.runtime", "PolicyRuntime", "act"),
    ("faults.controller.action", "repro.faults.controller",
     "FallbackController", "action"),
    ("agents.pairuplight.agent.act", "repro.agents.pairuplight.agent",
     "PairUpLightSystem", "act"),
    ("env.tsc_env.step", "repro.env.tsc_env", "TrafficSignalEnv", "step"),
    ("env.tsc_env.reset", "repro.env.tsc_env", "TrafficSignalEnv", "reset"),
    ("sim.engine.step", "repro.sim.engine", "Simulation", "step"),
)

class Tracer:
    """In-memory span recorder for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.perfbench_span = name
        return traced

    def layers(self, wall_s: float) -> dict[str, dict]:
        """Per-name ``calls``/``self_s``/``share`` plus ``other``."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table = {name: {"calls": 0, "self_s": 0.0} for name, *_ in BOUNDARIES}
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[index]
            if parent < 0:
                covered += end - start
        table["other"] = {"calls": 0, "self_s": wall_s - covered}
        for row in table.values():
            row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        return table

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start_s, end_s, parent]`` JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _boundary_methods():
    for name, module, cls_name, method in BOUNDARIES:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__.get(method)
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{cls_name}.{method} is not a plain method")
        yield name, cls, method, original


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the block; restore the originals after."""
    originals = []
    try:
        for name, cls, method, original in _boundary_methods():
            originals.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, original))
        yield tracer
    finally:
        for cls, method, original in reversed(originals):
            setattr(cls, method, original)


def wrapped_boundaries() -> list[str]:
    """Boundaries whose class currently holds a tracing wrapper."""
    return [
        name
        for name, _, _, function in _boundary_methods()
        if hasattr(function, "perfbench_span")
    ]

"""Per-intersection fallback state machine with exponential backoff.

Each intersection is in one of three modes:

* ``primary`` — serving the learned policy's action,
* ``backoff`` — serving the classical fallback for a dwell period after
  a failure (deadline miss, policy exception, invalid/NaN action, or an
  injected controller fault),
* ``probation`` — the dwell expired and the policy looks healthy again;
  its actions are served but not yet trusted.  After ``promote_after``
  consecutive healthy ticks the intersection returns to ``primary``.

A failure during probation (or a controller fault persisting past the
dwell) doubles the backoff up to ``backoff_max_ticks``, so a
persistently broken policy is probed ever more rarely instead of
flapping between modes.  The escalated backoff only resets to the base
dwell after ``reset_backoff_after`` consecutive healthy primary ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.config import ServeConfig

#: Intersection modes (exposed for assertions and reports).
PRIMARY = "primary"
BACKOFF = "backoff"
PROBATION = "probation"
#: Mode names by the integer code :class:`FallbackManager` stores.
MODES = (PRIMARY, BACKOFF, PROBATION)
_PRIMARY, _BACKOFF, _PROBATION = range(3)


@dataclass
class NodeHealth:
    """Fallback bookkeeping for one intersection."""

    mode: str = PRIMARY
    backoff_ticks: int = 0
    resume_tick: int = 0
    healthy_streak: int = 0
    failures: int = 0
    fallback_ticks: int = 0
    demotions: int = 0
    promotions: int = 0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "failures": self.failures,
            "fallback_ticks": self.fallback_ticks,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "backoff_ticks": self.backoff_ticks,
        }


class FallbackManager:
    """Arbitrates policy vs. fallback for every intersection, every tick.

    The state of intersection ``node_ids[i]`` is row ``i`` of int
    arrays: ``mode_codes`` (an index into :data:`MODES`), ``backoff_ticks``,
    ``resume_tick``, ``healthy_streak`` and the ``failures``,
    ``fallback_ticks``, ``demotions`` and ``promotions`` counters.  One
    :meth:`decide` call runs every intersection's transition for a tick
    on those arrays; :meth:`state` reads one row back as a
    :class:`NodeHealth`.
    """

    def __init__(self, node_ids: list[str], config: ServeConfig) -> None:
        self.config = config
        self.node_ids = list(node_ids)
        self._row = {node_id: i for i, node_id in enumerate(self.node_ids)}
        num = len(self.node_ids)
        self.mode_codes = np.full(num, _PRIMARY, dtype=np.int8)
        self.backoff_ticks = np.full(num, config.backoff_base_ticks, dtype=np.int64)
        self.resume_tick = np.zeros(num, dtype=np.int64)
        self.healthy_streak = np.zeros(num, dtype=np.int64)
        self.failures = np.zeros(num, dtype=np.int64)
        self.fallback_ticks = np.zeros(num, dtype=np.int64)
        self.demotions = np.zeros(num, dtype=np.int64)
        self.promotions = np.zeros(num, dtype=np.int64)

    # ------------------------------------------------------------------
    def decide(
        self, tick: int, healthy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arbitrate every intersection for one tick.

        ``healthy`` is this tick's ``(M,)`` verdict mask, False where a
        deadline miss, policy exception, invalid action or injected
        controller fault hit the intersection.  Returns the ``(M,)``
        masks ``(use_fallback, demoted, promoted)``.

        A failure demotes a primary intersection, keeping an escalated
        dwell from recent instability (anti-flap: it shrinks back to the
        base dwell only after ``reset_backoff_after`` healthy primary
        ticks).  A failure while probing, or past the dwell, escalates
        the backoff; a failure inside the dwell keeps the existing probe
        schedule, so a permanently broken policy is probed at
        exponentially growing intervals instead of never (or every
        tick).  A healthy intersection past its dwell is probed, and
        promoted after ``promote_after`` healthy probes.
        """
        cfg = self.config
        healthy = np.asarray(healthy, dtype=bool)
        failed = ~healthy
        mode, backoff, streak = self.mode_codes, self.backoff_ticks, self.healthy_streak
        primary = mode == _PRIMARY
        expired = self.resume_tick <= tick
        dwelling = (mode == _BACKOFF) & ~expired
        dwelling &= healthy
        use_fallback = failed | dwelling
        probing = ~(primary | use_fallback)
        demoted = failed & primary
        escalated = (mode == _PROBATION) | expired
        escalated &= failed
        escalated &= ~primary

        # Transitions are rare: count_nonzero is the cheapest emptiness test.
        if np.count_nonzero(demoted):
            np.maximum(backoff, cfg.backoff_base_ticks, out=backoff, where=demoted)
            np.add(backoff, tick, out=self.resume_tick, where=demoted)
        if np.count_nonzero(escalated):
            # Capped before the cast, which leaves the capped result of
            # the integer form min(max(int(b * f), b + 1), cap) intact.
            product = np.minimum(backoff * cfg.backoff_factor, cfg.backoff_max_ticks)
            grown = np.maximum(product.astype(np.int64), backoff + 1)
            np.minimum(grown, cfg.backoff_max_ticks, out=backoff, where=escalated)
            np.add(backoff, tick, out=self.resume_tick, where=escalated)

        # Healthy primary and probing intersections extend their streak;
        # a failure clears it; a dwelling intersection keeps it.
        streak += ~use_fallback
        streak *= healthy
        reset = primary & healthy
        reset &= streak >= cfg.reset_backoff_after
        np.copyto(backoff, cfg.backoff_base_ticks, where=reset)
        mode[failed] = _BACKOFF
        promoted = probing & (streak >= cfg.promote_after)
        if np.count_nonzero(probing):
            mode[probing] = _PROBATION
            mode[promoted] = _PRIMARY
            self.promotions += promoted

        self.failures += failed
        self.fallback_ticks += use_fallback
        self.demotions += demoted
        return use_fallback, demoted, promoted

    # ------------------------------------------------------------------
    def mode(self, node_id: str) -> str:
        return MODES[self.mode_codes[self._row[node_id]]]

    def state(self, node_id: str) -> NodeHealth:
        """A copy of one intersection's bookkeeping."""
        i = self._row[node_id]
        return NodeHealth(
            mode=MODES[self.mode_codes[i]],
            backoff_ticks=int(self.backoff_ticks[i]),
            resume_tick=int(self.resume_tick[i]),
            healthy_streak=int(self.healthy_streak[i]),
            failures=int(self.failures[i]),
            fallback_ticks=int(self.fallback_ticks[i]),
            demotions=int(self.demotions[i]),
            promotions=int(self.promotions[i]),
        )

    def degraded_nodes(self) -> list[str]:
        """Intersections currently not in primary mode."""
        rows = np.flatnonzero(self.mode_codes != _PRIMARY)
        return sorted(self.node_ids[i] for i in rows)

    def total_transitions(self) -> int:
        """Demotions + promotions across all intersections (flap metric)."""
        return int(self.demotions.sum() + self.promotions.sum())

    def snapshot(self) -> dict[str, dict]:
        """Per-intersection health, JSON-safe."""
        return {node: self.state(node).as_dict() for node in self.node_ids}

"""Seeded fault schedule: the single source of fault randomness.

A :class:`FaultSchedule` owns one RNG stream per episode, deterministic in
``(seed, episode_seed)``, so a faulty run is exactly reproducible: the
same seeds produce the same dropped readings, corrupted messages and dead
controllers regardless of which agent is being evaluated.

Per-episode faults (stuck detectors, dead controllers) are decided
lazily, on the first query for each key within an episode, from a
dedicated sub-stream — so they do not depend on how often the per-event
faults are sampled.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.config import FaultConfig


#: Message fault kinds by :meth:`FaultSchedule.message_faults` code
#: (0 is a clean delivery).
MESSAGE_FAULTS = (None, "message_drop", "message_delay", "message_corrupt")
MESSAGE_DROP, MESSAGE_DELAY, MESSAGE_CORRUPT = 1, 2, 3


class FaultSchedule:
    """Samples fault events for one simulation run."""

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        if not isinstance(config, FaultConfig):
            raise FaultInjectionError("FaultSchedule needs a FaultConfig")
        self.config = config
        self._seed = seed
        self._episode = -1
        self._rng = np.random.default_rng(seed)
        self._episode_rng = np.random.default_rng(seed)
        self._stuck: dict[str, bool] = {}
        self._frozen: dict[str, float] = {}
        self._dead: dict[str, bool] = {}
        self._dead_mask: tuple[tuple, np.ndarray] | None = None
        #: Optional telemetry sink (:class:`repro.obs.telemetry.Telemetry`)
        #: receiving one activation per (fault kind, target) per episode.
        #: Never consulted by the sampling paths, so attaching it cannot
        #: change any RNG draw.
        self.event_sink = None
        self._activated: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    def begin_episode(self, episode_seed: int | None = None) -> None:
        """Re-key the fault streams for a new episode."""
        self._episode += 1
        if episode_seed is None:
            episode_seed = self._episode
        self._rng = np.random.default_rng((self._seed, episode_seed))
        self._episode_rng = np.random.default_rng((self._seed, episode_seed, 1))
        self._stuck.clear()
        self._frozen.clear()
        self._dead.clear()
        self._dead_mask = None
        self._activated.clear()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def emit_activation(
        self,
        kind: str,
        fault_id: str,
        tick: int | None = None,
        scope: str = "event",
    ) -> None:
        """Report the first firing of fault ``kind`` on ``fault_id``.

        Deduplicated per (kind, target) per episode: each fault family
        produces exactly one activation event per target per episode, no
        matter how many individual readings/messages it corrupts.  No-op
        without an attached :attr:`event_sink`.
        """
        if self.event_sink is None:
            return
        key = (kind, str(fault_id))
        if key in self._activated:
            return
        self._activated.add(key)
        self.event_sink.fault_activation(
            kind, fault_id, max(self._episode, 0), tick, scope
        )

    # ------------------------------------------------------------------
    # Detector faults
    # ------------------------------------------------------------------
    def detector_stuck(self, key: str) -> bool:
        """Whether detector ``key`` is frozen for this whole episode."""
        if self.config.detector_stuck <= 0:
            return False
        stuck = self._stuck.get(key)
        if stuck is None:
            stuck = bool(self._episode_rng.random() < self.config.detector_stuck)
            self._stuck[key] = stuck
        return stuck

    def frozen_value(self, key: str, current: float) -> float:
        """Stuck-at value: the first reading seen this episode."""
        return self._frozen.setdefault(key, current)

    def detector_dropped(self, key: str) -> bool:
        """Whether this particular detector query is lost."""
        if self.config.detector_dropout <= 0:
            return False
        return bool(self._rng.random() < self.config.detector_dropout)

    def detector_noise(self) -> float:
        """Additive noise sample for one detector count."""
        if self.config.detector_noise <= 0:
            return 0.0
        return float(self._rng.normal(0.0, self.config.detector_noise))

    # ------------------------------------------------------------------
    # Communication faults
    # ------------------------------------------------------------------
    def message_dropped(self) -> bool:
        if self.config.message_drop <= 0:
            return False
        return bool(self._rng.random() < self.config.message_drop)

    def message_corrupted(self) -> bool:
        if self.config.message_corrupt <= 0:
            return False
        return bool(self._rng.random() < self.config.message_corrupt)

    def message_delayed(self) -> bool:
        if self.config.message_delay <= 0:
            return False
        return bool(self._rng.random() < self.config.message_delay)

    def corrupt(self, message: np.ndarray) -> np.ndarray:
        """Channel garbage with the payload's shape (uniform in [0, 1],
        the codomain of the logistic-squashed messages)."""
        return self._rng.uniform(0.0, 1.0, size=np.shape(message))

    def message_faults(self, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Faults of ``count`` messages of width ``dim``, in order.

        Returns ``(codes, payloads)``: an ``(count,)`` index into
        :data:`MESSAGE_FAULTS` and the ``(k, dim)`` channel garbage of
        the ``k`` corrupted messages.  The draws are those of ``count``
        per-message sequences — :meth:`message_dropped`, then
        :meth:`message_delayed`, then :meth:`message_corrupted` and its
        :meth:`corrupt` payload, each only if the one before missed.
        With one per-message flag (drop or delay alone) that is one
        draw per message, taken with a single ``random(count)`` call.
        """
        config = self.config
        drop, delay, corrupt = (
            config.message_drop, config.message_delay, config.message_corrupt
        )
        codes = np.zeros(count, dtype=np.int8)
        payloads: list[np.ndarray] = []
        if corrupt or (drop and delay):
            random, uniform = self._rng.random, self._rng.uniform
            for i in range(count):
                if drop and random() < drop:
                    codes[i] = MESSAGE_DROP
                elif delay and random() < delay:
                    codes[i] = MESSAGE_DELAY
                elif corrupt and random() < corrupt:
                    codes[i] = MESSAGE_CORRUPT
                    payloads.append(uniform(0.0, 1.0, size=dim))
        elif drop or delay:
            hits = self._rng.random(count) < (drop or delay)
            codes[hits] = MESSAGE_DROP if drop else MESSAGE_DELAY
        return codes, np.array(payloads) if payloads else np.empty((0, dim))

    # ------------------------------------------------------------------
    # Controller faults
    # ------------------------------------------------------------------
    def controller_dead(self, agent_id: str) -> bool:
        """Whether ``agent_id``'s RL controller is down this episode."""
        if self.config.controller_failure <= 0:
            return False
        dead = self._dead.get(agent_id)
        if dead is None:
            dead = bool(self._episode_rng.random() < self.config.controller_failure)
            self._dead[agent_id] = dead
        return dead

    def controller_dead_mask(self, agent_ids: list[str]) -> np.ndarray:
        """``(M,)`` :meth:`controller_dead` of ``agent_ids``, queried in
        that order on the first call of the episode and kept until the
        next :meth:`begin_episode` (the deaths are per episode)."""
        key = tuple(agent_ids)
        if self._dead_mask is None or self._dead_mask[0] != key:
            dead = np.array([self.controller_dead(a) for a in key], dtype=bool)
            self._dead_mask = (key, dead)
        return self._dead_mask[1]

    def dead_controllers(self) -> list[str]:
        """Agents already determined dead this episode (diagnostics)."""
        return sorted(a for a, dead in self._dead.items() if dead)

"""Fault-model configuration.

One :class:`FaultConfig` describes every failure mode the injection layer
can exercise, each with an independent occurrence probability:

* **Detector faults** (applied to :class:`repro.sim.detectors.DetectorSuite`
  readings): per-query *dropout* (the detector returns nothing this
  decision step), per-episode *stuck-at* (the detector freezes at its
  first reading of the episode), and additive Gaussian *noise* on counts.
* **Communication faults** (applied to the PairUpLight message channel):
  per-read *drop*, *corruption* (the payload is replaced by channel
  garbage), and one-step *delay* (the previous delivery is repeated).
* **Controller faults**: per-episode probability that an intersection's
  RL controller dies for the rest of the episode, after which
  :class:`repro.faults.controller.ControllerFaultWrapper` substitutes a
  classical fallback policy.

All probabilities are per-event Bernoulli rates so a single scalar sweep
(:meth:`FaultConfig.uniform`) produces the degradation curves reported by
:mod:`repro.eval.robustness`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import FaultInjectionError

#: Fault families accepted by :meth:`FaultConfig.uniform`.
FAULT_KINDS = ("detector", "message", "controller")


@dataclass(frozen=True)
class FaultConfig:
    """Occurrence rates of every injectable fault (all default off)."""

    #: Probability a detector query returns nothing this decision step.
    detector_dropout: float = 0.0
    #: Probability (per detector, per episode) of freezing at its first reading.
    detector_stuck: float = 0.0
    #: Standard deviation (vehicles) of additive noise on detector counts.
    detector_noise: float = 0.0
    #: Probability an inter-agent message is lost in transit.
    message_drop: float = 0.0
    #: Probability a delivered message payload is corrupted.
    message_corrupt: float = 0.0
    #: Probability a delivery repeats the previous step's payload instead.
    message_delay: float = 0.0
    #: Probability (per agent, per episode) the RL controller dies.
    controller_failure: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "detector_dropout",
            "detector_stuck",
            "message_drop",
            "message_corrupt",
            "message_delay",
            "controller_failure",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(f"{name} must lie in [0, 1], got {rate}")
        if self.detector_noise < 0:
            raise FaultInjectionError("detector_noise must be non-negative")

    # ------------------------------------------------------------------
    @property
    def any_detector_faults(self) -> bool:
        return (
            self.detector_dropout > 0
            or self.detector_stuck > 0
            or self.detector_noise > 0
        )

    @property
    def any_message_faults(self) -> bool:
        return (
            self.message_drop > 0
            or self.message_corrupt > 0
            or self.message_delay > 0
        )

    @property
    def any_controller_faults(self) -> bool:
        return self.controller_failure > 0

    @property
    def active(self) -> bool:
        return (
            self.any_detector_faults
            or self.any_message_faults
            or self.any_controller_faults
        )

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, rate: float, kinds: tuple[str, ...] = ("detector", "message")
    ) -> "FaultConfig":
        """One fault rate applied across the chosen fault families.

        ``"detector"`` sets the dropout rate, ``"message"`` the drop
        rate and ``"controller"`` the per-episode failure rate — the
        sweep axes of the robustness evaluations.
        """
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise FaultInjectionError(
                f"unknown fault kinds {sorted(unknown)}; choose from {FAULT_KINDS}"
            )
        config = cls()
        if "detector" in kinds:
            config = replace(config, detector_dropout=rate)
        if "message" in kinds:
            config = replace(config, message_drop=rate)
        if "controller" in kinds:
            config = replace(config, controller_failure=rate)
        return config

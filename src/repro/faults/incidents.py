"""Deterministic mid-episode incidents: lane and link closures.

Unlike the stochastic fault families in :mod:`repro.faults.config`
(seeded Bernoulli rates), incidents are *scheduled* events — "link
``I1_1->I1_2`` closes at t = 300 s for 200 s" — the workload axis the
scenario zoo uses for its incident scenarios.  They act on the engines
through one knob, ``sim.set_capacity_factor(link_id, factor)``:

* ``link_closure`` — factor 0.0: nothing may enter the link for the
  window; vehicles already on it keep moving and drain out, and
  spillback develops upstream through the normal storage checks.
* ``lane_closure`` — ``(num_lanes - lanes_closed) / num_lanes``: a
  partial capacity reduction, the mesoscopic rendering of losing one
  lane of a multi-lane approach.
* ``capacity`` — an explicit factor in ``[0, 1]``.

The schedule itself is stateless: every tick the engine asks
:meth:`IncidentSchedule.apply` for the desired factor per link and only
changed links are written, so the same schedule object can be attached
to any number of engines (object, SoA, batched replicas) and to
repeated episodes without a reset.  Every link must exist in the
engine's network: the scenario compiler and ``TrafficSignalEnv`` check
the schedule's links when they are built, and an engine rejects an
unknown link when the schedule first writes it.  Both engines consult
effective storage on every entry attempt, so trajectories under
incidents stay bit-exact between the reference object engine and the
SoA engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultInjectionError

INCIDENT_KINDS = ("link_closure", "lane_closure", "capacity")


@dataclass(frozen=True)
class Incident:
    """One capacity-reduction window on one link.

    ``factor`` is the effective storage multiplier while the incident is
    active; the named constructors compute it from the incident kind.
    The window is ``[start, start + duration)`` in simulation ticks.
    """

    link: str
    start: int
    duration: int
    factor: float
    kind: str = "capacity"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise FaultInjectionError(
                f"incident on {self.link!r}: start must be >= 0, got {self.start}"
            )
        if self.duration <= 0:
            raise FaultInjectionError(
                f"incident on {self.link!r}: duration must be positive, "
                f"got {self.duration}"
            )
        if not 0.0 <= self.factor <= 1.0:
            raise FaultInjectionError(
                f"incident on {self.link!r}: factor must lie in [0, 1], "
                f"got {self.factor}"
            )
        if self.kind not in INCIDENT_KINDS:
            raise FaultInjectionError(
                f"incident kind must be one of {INCIDENT_KINDS}, got {self.kind!r}"
            )

    @property
    def end(self) -> int:
        return self.start + self.duration

    def active_at(self, t: int) -> bool:
        return self.start <= t < self.end

    @staticmethod
    def link_closure(link: str, start: int, duration: int) -> "Incident":
        """Full closure: nothing enters the link during the window."""
        return Incident(link, start, duration, 0.0, kind="link_closure")

    @staticmethod
    def lane_closure(
        link: str, start: int, duration: int, num_lanes: int, lanes_closed: int = 1
    ) -> "Incident":
        """Close ``lanes_closed`` of the link's ``num_lanes`` lanes."""
        if num_lanes <= 0:
            raise FaultInjectionError(
                f"incident on {link!r}: num_lanes must be positive"
            )
        if not 0 < lanes_closed <= num_lanes:
            raise FaultInjectionError(
                f"incident on {link!r}: lanes_closed must lie in "
                f"[1, {num_lanes}], got {lanes_closed}"
            )
        factor = (num_lanes - lanes_closed) / num_lanes
        return Incident(link, start, duration, factor, kind="lane_closure")


class IncidentSchedule:
    """A fixed timeline of incidents, applied to an engine each tick.

    Attach with ``sim.incidents = schedule``; the engine calls
    :meth:`apply` at the start of every tick.  Overlapping incidents on
    one link compose by taking the *minimum* factor (the most severe
    closure wins).  Validate link ids against the network at build
    time, as the scenario compiler and ``TrafficSignalEnv`` do.
    """

    def __init__(self, incidents: list[Incident] | tuple[Incident, ...]) -> None:
        self.incidents: tuple[Incident, ...] = tuple(
            sorted(incidents, key=lambda inc: (inc.start, inc.link))
        )
        self._links: tuple[str, ...] = tuple(
            sorted({inc.link for inc in self.incidents})
        )

    def __len__(self) -> int:
        return len(self.incidents)

    def __bool__(self) -> bool:
        return bool(self.incidents)

    @property
    def links(self) -> tuple[str, ...]:
        """Links touched by at least one incident."""
        return self._links

    @property
    def end_time(self) -> int:
        """Tick after which every incident has cleared."""
        return max((inc.end for inc in self.incidents), default=0)

    def factors_at(self, t: int) -> dict[str, float]:
        """Desired capacity factor per touched link at time ``t``.

        Links with no active incident map to 1.0 (healthy) so that
        :meth:`apply` restores capacity when a window ends.
        """
        factors = {link: 1.0 for link in self._links}
        for incident in self.incidents:
            if incident.active_at(t):
                factors[incident.link] = min(
                    factors[incident.link], incident.factor
                )
        return factors

    def apply(self, sim) -> None:
        """Reconcile the engine's capacity factors with time ``sim.time``.

        Idempotent: only links whose desired factor differs from the
        engine's current factor are written, so repeated application at
        the same tick (or across engines sharing the schedule) is safe.
        """
        current = sim.capacity_factors
        for link, factor in self.factors_at(sim.time).items():
            if current.get(link, 1.0) != factor:
                sim.set_capacity_factor(link, factor)

    def to_payload(self) -> list[dict]:
        """JSON-compatible form (the scenario spec ``incidents`` list)."""
        return [
            {
                "kind": "capacity",
                "link": inc.link,
                "start": inc.start,
                "duration": inc.duration,
                "factor": inc.factor,
            }
            for inc in self.incidents
        ]

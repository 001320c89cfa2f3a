"""Message channel: regularizer and partner selection.

Two pieces of PairUpLight's communication protocol live here:

* **Message regularizer** (Algorithm 1 line 16): the actor emits a raw
  real-valued message ``m``; the channel transmits
  ``Logistic(N(m, sigma))`` during training and the deterministic
  ``Logistic(m)`` during execution.  We treat the noisy draw as a
  *continuous action*: the Gaussian is the exploration distribution and
  its log-density joins the phase log-probability in the PPO objective,
  which is how the message head receives learning signal.
* **Partner selection** (Section V-B): each intersection pairs up with
  the *most congested upstream* neighbouring intersection — the one whose
  congestion will arrive next — falling back to itself when no upstream
  neighbour is congested.

:func:`select_partner` is the per-agent reference.  The array path
picks every partner of B replicas at once instead — the batched
lockstep group with B replicas, the serial system at B=1: a static
``(M, K)`` candidate table (:func:`candidate_table`, rows
``[self, upstream...]`` padded with self) indexes a ``(B, M)``
congestion matrix, and :func:`select_partner_rows` takes the first
maximum per row — the scalar scan's result, ties included.
:class:`MessageRouter` holds both paths, so the serial and batched
systems share one implementation of each.

Each :class:`MessageBoard` stores its messages as one ``(M, D)`` array
(row ``i`` for agent ``i``), optionally a slice of a caller-owned
``(B, M, D)`` block.  Per-agent ``read``/``post`` keep their semantics;
``gather``/``post_rows`` move whole rows, so a tick's routing is one
gather and its posting one assignment.
"""

from __future__ import annotations

import math

import numpy as np

from repro.env.tsc_env import TrafficSignalEnv
from repro.errors import ConfigError
from repro.faults.schedule import (
    MESSAGE_CORRUPT,
    MESSAGE_DELAY,
    MESSAGE_DROP,
    MESSAGE_FAULTS,
)

_LOG_2PI = math.log(2.0 * math.pi)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Single shared exp(-|x|): equals 1/(1+exp(-x)) for x >= 0 and
    # exp(x)/(1+exp(x)) for x < 0, same values as the two-branch form.
    e = np.exp(-np.abs(np.clip(x, -500, 500)))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class MessageRegularizer:
    """Noisy-logistic message channel (DIAL-style discretisation noise)."""

    def __init__(self, sigma: float = 0.25, seed: int = 0) -> None:
        if sigma <= 0:
            raise ConfigError("message noise sigma must be positive")
        self.sigma = sigma
        self._rng = np.random.default_rng(seed)

    def transmit(
        self, message_mean: np.ndarray, training: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Produce the transmitted message.

        Returns ``(m_hat, raw_sample, logprob)`` where ``m_hat`` is the
        squashed message handed to the partner, ``raw_sample`` is the
        pre-squash Gaussian draw (stored for PPO re-evaluation), and
        ``logprob`` is the per-message Gaussian log-density summed over
        message dimensions.
        """
        mean = np.asarray(message_mean, dtype=np.float64)
        if training:
            raw = self._rng.normal(mean, self.sigma)
        else:
            raw = mean.copy()
        logprob = self.logprob(raw, mean)
        return _sigmoid(raw), raw, logprob

    def logprob(self, raw: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Gaussian log-density of ``raw`` under ``N(mean, sigma)``,
        summed over the trailing (message-dim) axis."""
        z = (np.asarray(raw) - np.asarray(mean)) / self.sigma
        per_dim = -0.5 * (z**2) - math.log(self.sigma) - 0.5 * _LOG_2PI
        return per_dim.sum(axis=-1)


def select_partner(
    env: TrafficSignalEnv,
    node_id: str,
    strategy: str = "upstream",
    rng: np.random.Generator | None = None,
) -> str:
    """Choose the communication partner for ``node_id``.

    ``strategy`` selects between the paper's design and its ablations:

    * ``"upstream"`` (paper, Section V-B) — the most congested *upstream*
      neighbour; congestion is ranked by observed halted/approaching
      vehicles on each candidate's incoming links.  When every upstream
      neighbour is calmer than the agent itself, the agent listens to its
      own previous message (self-loop), matching the paper's "from either
      the current agent itself or one of its neighbouring agents".
    * ``"self"`` — always the self-loop (no inter-agent information).
    * ``"random"`` — a uniformly random upstream neighbour each step
      (requires ``rng``); isolates the value of congestion-aware pairing.
    * ``"fixed"`` — the first upstream neighbour in topological order,
      i.e. a static pairing that never reacts to traffic.
    """
    if strategy == "self":
        return node_id
    upstream = env.upstream_neighbours(node_id)
    if not upstream:
        return node_id
    if strategy == "random":
        if rng is None:
            raise ConfigError("random partner strategy requires an rng")
        return upstream[int(rng.integers(len(upstream)))]
    if strategy == "fixed":
        return upstream[0]
    if strategy != "upstream":
        raise ConfigError(f"unknown partner strategy {strategy!r}")
    best = node_id
    best_score = env.congestion_score(node_id)
    for neighbour in upstream:
        score = env.congestion_score(neighbour)
        if score > best_score:
            best, best_score = neighbour, score
    return best


def candidate_table(env: TrafficSignalEnv, agent_ids: list[str]) -> np.ndarray:
    """``(M, K)`` agent rows ``[self, upstream...]``, padded with self.

    Row ``i`` lists the partner candidates of ``agent_ids[i]`` in
    :func:`select_partner`'s scan order; ``K`` is one plus the largest
    upstream count.  Padding with self never changes a first-maximum
    pick, because self is already scanned first.
    """
    row = {agent_id: i for i, agent_id in enumerate(agent_ids)}
    upstream = [
        [row[u] for u in env.upstream_neighbours(agent_id)] for agent_id in agent_ids
    ]
    width = 1 + max((len(u) for u in upstream), default=0)
    table = np.empty((len(agent_ids), width), dtype=np.intp)
    for i, ups in enumerate(upstream):
        table[i] = [i, *ups] + [i] * (width - 1 - len(ups))
    return table


def select_partner_rows(
    table: np.ndarray,
    strategy: str,
    congestion: np.ndarray,
    live_rows: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """:func:`select_partner` for every agent of ``B`` replicas at once.

    ``table`` comes from :func:`candidate_table`; ``congestion`` is the
    ``(B, M)`` score matrix in agent order.  Returns ``(B, M)`` partner
    rows.  ``"upstream"`` takes ``argmax`` over the candidates, which
    picks the first maximum exactly as the scalar strict-``>`` scan
    with self first.  ``"random"`` draws ``rng.integers`` per agent
    with upstream neighbours, for the replicas in ``live_rows`` only, in
    ``(b, i)`` order — the scalar call sequence, so the stream is
    unchanged.
    """
    batch, num_agents = congestion.shape
    agents = np.arange(num_agents)
    if strategy == "upstream":
        picks = congestion[:, table].argmax(axis=2)
        return table[agents, picks]
    if strategy == "self":
        return np.broadcast_to(agents, (batch, num_agents))
    if strategy == "fixed":
        first = table[:, min(1, table.shape[1] - 1)]
        return np.broadcast_to(first, (batch, num_agents))
    if strategy != "random":
        raise ConfigError(f"unknown partner strategy {strategy!r}")
    if rng is None:
        raise ConfigError("random partner strategy requires an rng")
    # Upstream neighbours are never the agent itself, so the non-self
    # entries of a row are exactly its upstream candidates.
    num_up = (table[:, 1:] != agents[:, None]).sum(axis=1).tolist()
    rows = np.broadcast_to(agents, (batch, num_agents)).copy()
    for b in live_rows:
        for i, n in enumerate(num_up):
            if n:
                rows[b, i] = table[i, 1 + int(rng.integers(n))]
    return rows


class MessageRouter:
    """Partner selection and message delivery, serial and batched alike.

    One instance serves one agent-id layout and one strategy: the serial
    system routes its single board as the ``B = 1`` case of the batched
    group's ``B`` boards.  :meth:`route` is the array path; the per-agent
    :meth:`route_reference` is the oracle, and the only path when
    congestion scores must be read through the (possibly fault-injecting)
    detectors one agent at a time.
    """

    def __init__(
        self,
        env: TrafficSignalEnv,
        agent_ids: list[str],
        strategy: str,
        message_dim: int,
        degrade_on_loss: bool,
    ) -> None:
        self.agent_ids = list(agent_ids)
        self.table = candidate_table(env, self.agent_ids)
        self.strategy = strategy
        self.message_dim = message_dim
        self.degrade_on_loss = degrade_on_loss

    def route(
        self,
        incoming: np.ndarray,
        messages: np.ndarray,
        congestion: np.ndarray,
        live_rows: np.ndarray,
        rng: np.random.Generator,
        channels: list,
        readers: list,
    ) -> None:
        """Fill ``incoming[b]`` (``(B, M, D)``) for every ``b`` in
        ``live_rows`` from the ``(B, M, D)`` boards ``messages``.

        Partners come from the ``(B, M)`` ``congestion`` matrix and are
        read with one gather.  A replica without a faulty channel needs
        nothing more: its resilient reader is a pass-through whose state
        is never read.  A replica with one (``channels[b]``) passes the
        gathered rows through :meth:`FaultyMessageChannel.deliver_rows`
        and resolves the losses on arrays.
        """
        partners = select_partner_rows(
            self.table, self.strategy, congestion, live_rows, rng=rng
        )
        incoming[live_rows] = messages[live_rows[:, None], partners[live_rows]]
        for b in live_rows:
            channel = channels[b]
            if channel is None:
                continue
            delivered, lost = channel.deliver_rows(incoming[b])
            if self.degrade_on_loss:
                readers[b].receive_rows(delivered, lost, messages[b], out=incoming[b])
            else:
                delivered[lost] = 0.0
                incoming[b] = delivered

    def route_reference(
        self,
        env: TrafficSignalEnv,
        incoming_b: np.ndarray,
        board: "MessageBoard",
        channel: "FaultyMessageChannel | None",
        reader: "ResilientMessageReader",
        rng: np.random.Generator,
    ) -> None:
        """Per-agent :func:`select_partner` and delivery into ``incoming_b``.

        Selection and delivery interleave per agent: with faulty
        detectors and a faulty channel, both draw from the env's one
        fault-schedule RNG, so the read order is part of the result.
        """
        for i, agent_id in enumerate(self.agent_ids):
            partner = select_partner(env, agent_id, strategy=self.strategy, rng=rng)
            message = board.read(partner)
            if channel is not None:
                message = channel.deliver(agent_id, message)
            if self.degrade_on_loss:
                message = reader.receive(agent_id, message, board.read(agent_id))
            incoming_b[i] = 0.0 if message is None else message


class MessageBoard:
    """Per-step mailbox holding each agent's latest outgoing message.

    Backed by one ``(M, D)`` array, row ``i`` holding ``agent_ids[i]``'s
    message.  ``messages`` may be passed in — a slice of a larger
    ``(B, M, D)`` block — so a batched driver can read every replica's
    board with one gather; the board only ever writes into it in place.
    """

    def __init__(
        self,
        agent_ids: list[str],
        message_dim: int,
        messages: np.ndarray | None = None,
    ) -> None:
        if message_dim <= 0:
            raise ConfigError("message_dim must be positive")
        self.message_dim = message_dim
        self._row = {agent_id: i for i, agent_id in enumerate(agent_ids)}
        shape = (len(self._row), message_dim)
        if messages is None:
            messages = np.zeros(shape)
        elif messages.shape != shape:
            raise ConfigError(f"message storage shape {messages.shape} != {shape}")
        self.messages = messages

    def post(self, agent_id: str, message: np.ndarray) -> None:
        message = np.asarray(message, dtype=np.float64)
        if message.shape != (self.message_dim,):
            raise ConfigError(
                f"message shape {message.shape} != ({self.message_dim},)"
            )
        self.messages[self._row[agent_id]] = message

    def read(self, agent_id: str) -> np.ndarray:
        return self.messages[self._row[agent_id]].copy()

    def post_rows(self, messages: np.ndarray) -> None:
        """Post every agent's message at once, rows in agent order."""
        messages = np.asarray(messages, dtype=np.float64)
        if messages.shape != self.messages.shape:
            raise ConfigError(
                f"message shape {messages.shape} != {self.messages.shape}"
            )
        self.messages[...] = messages

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Copies of the messages in board rows ``rows`` (agent order)."""
        return self.messages[rows]

    def reset(self) -> None:
        self.messages.fill(0.0)


class FaultyMessageChannel:
    """Lossy transport between the board and a receiving agent.

    Applies the communication faults of a
    :class:`repro.faults.schedule.FaultSchedule` to every read: the
    message may be *dropped* (``deliver`` returns ``None``), *delayed*
    (the previous successful delivery to this receiver is repeated), or
    *corrupted* (the payload is replaced by channel garbage).  What the
    receiver does about a drop is the agent's graceful-degradation
    policy, not the channel's — see :class:`ResilientMessageReader`.

    The previous deliveries are one ``(M, D)`` array, row ``i`` for
    ``agent_ids[i]``.  :meth:`deliver` transports one receiver's
    message; :meth:`deliver_rows` transports every receiver's at once
    with the same draws in the same order.
    """

    def __init__(
        self,
        schedule,
        agent_ids: list[str],
        message_dim: int,
        clock=None,
    ) -> None:
        self.schedule = schedule
        self.message_dim = message_dim
        #: Optional zero-arg callable returning the current simulation
        #: tick; only invoked when the schedule has a telemetry sink.
        self.clock = clock
        self.agent_ids = list(agent_ids)
        self._row = {agent_id: i for i, agent_id in enumerate(self.agent_ids)}
        self._prev_delivered = np.zeros((len(self.agent_ids), message_dim))

    def reset(self) -> None:
        self._prev_delivered.fill(0.0)

    def deliver(self, receiver: str, message: np.ndarray) -> np.ndarray | None:
        """Transport ``message`` to ``receiver``; ``None`` means lost."""
        row = self._row[receiver]
        delivered, lost = self._transport(
            np.array(message, dtype=np.float64, ndmin=2), slice(row, row + 1)
        )
        return None if lost[0] else delivered[0]

    def deliver_rows(self, messages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transport ``messages[i]`` (``(M, D)``) to every receiver ``i``.

        Returns ``(delivered, lost)``: a fresh ``(M, D)`` array and the
        ``(M,)`` drop mask (a dropped row of ``delivered`` holds its
        input).  Draws and results are those of ``M`` :meth:`deliver`
        calls in receiver order.
        """
        return self._transport(np.array(messages, dtype=np.float64), slice(None))

    def _transport(
        self, delivered: np.ndarray, rows: slice
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply this tick's faults to ``delivered`` (receivers ``rows``,
        in order) in place.  The schedule draws the per-message fault
        flags; the rest is masked array writes."""
        codes, payloads = self.schedule.message_faults(*delivered.shape)
        lost = codes == MESSAGE_DROP
        delayed = codes == MESSAGE_DELAY
        if len(payloads):
            delivered[codes == MESSAGE_CORRUPT] = payloads
        previous = self._prev_delivered[rows]  # a view
        np.copyto(delivered, previous, where=delayed[:, None])
        # A drop keeps the receiver's previous delivery.
        np.copyto(previous, delivered, where=~lost[:, None])
        if self.schedule.event_sink is not None:
            receivers = self.agent_ids[rows]
            for i in np.flatnonzero(codes):
                self._emit(MESSAGE_FAULTS[codes[i]], receivers[i])
        return delivered, lost

    def _emit(self, kind: str, receiver: str) -> None:
        """First-activation telemetry (no-op without an attached sink)."""
        if self.schedule.event_sink is None:
            return
        tick = self.clock() if self.clock is not None else None
        self.schedule.emit_activation(kind, receiver, tick=tick)


class ResilientMessageReader:
    """Receive-side graceful degradation under message loss.

    On a successful delivery the message is stored and passed through.
    On a loss the reader reuses the **last received message**, attenuated
    by ``decay ** staleness`` so stale coordination information fades
    rather than being trusted forever; once ``staleness`` exceeds
    ``max_staleness`` the reader falls back to *self-pairing* — it listens
    to the agent's own previous outgoing message, the same degradation
    the paper prescribes for intersections with no congested upstream
    neighbour.

    State is an ``(M, D)`` last-received array and an ``(M,)`` staleness
    count, row ``i`` for ``agent_ids[i]``.  :meth:`receive` resolves one
    agent's delivery, :meth:`receive_rows` every agent's at once.
    """

    def __init__(
        self,
        agent_ids: list[str],
        message_dim: int,
        decay: float = 0.5,
        max_staleness: int = 3,
    ) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ConfigError("message decay must lie in [0, 1]")
        if max_staleness < 0:
            raise ConfigError("max_staleness must be non-negative")
        self.message_dim = message_dim
        self.decay = decay
        self.max_staleness = max_staleness
        self._row = {agent_id: i for i, agent_id in enumerate(agent_ids)}
        self._last = np.zeros((len(self._row), message_dim))
        self._staleness = np.zeros(len(self._row), dtype=np.int64)
        # decay ** s for s <= max_staleness, as Python float powers.
        self._decay_pow = np.array([decay**s for s in range(max_staleness + 1)])

    def reset(self) -> None:
        self._last.fill(0.0)
        self._staleness.fill(0)

    def staleness(self, agent_id: str) -> int:
        return int(self._staleness[self._row[agent_id]])

    def receive(
        self,
        agent_id: str,
        message: np.ndarray | None,
        own_message: np.ndarray,
    ) -> np.ndarray:
        """Resolve one (possibly lost) delivery into a usable message."""
        row = self._row[agent_id]
        out = np.zeros((1, self.message_dim))
        delivered = out if message is None else np.array(message, dtype=np.float64, ndmin=2)
        self._resolve(
            delivered,
            np.array([message is None]),
            np.array(own_message, dtype=np.float64, ndmin=2),
            out,
            slice(row, row + 1),
        )
        return out[0]

    def receive_rows(
        self,
        delivered: np.ndarray,
        lost: np.ndarray,
        own_messages: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """:meth:`receive` for every agent: row ``i`` of ``out`` resolves
        ``delivered[i]``, lost where ``lost[i]``, against
        ``own_messages[i]``.  ``out`` may alias ``delivered``."""
        self._resolve(delivered, lost, own_messages, out, slice(None))

    def _resolve(self, delivered, lost, own_messages, out, rows: slice) -> None:
        """Resolve the deliveries of receivers ``rows`` into ``out``."""
        last = self._last[rows]  # views
        staleness = self._staleness[rows]
        if not np.count_nonzero(lost):
            last[...] = delivered
            staleness.fill(0)
            out[...] = delivered
            return
        kept = ~lost[:, None]
        np.copyto(last, delivered, where=kept)
        staleness += 1
        staleness *= lost
        resolved = last * self._decay_pow[np.minimum(staleness, self.max_staleness), None]
        np.copyto(resolved, own_messages, where=(staleness > self.max_staleness)[:, None])
        np.copyto(resolved, delivered, where=kept)
        out[...] = resolved

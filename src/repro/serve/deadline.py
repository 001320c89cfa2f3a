"""Deadline accounting and hung-evaluation watchdog.

A :class:`DeadlineBudget` is a one-shot stopwatch started at tick entry;
the service reads it after the policy evaluation to classify the tick.
The clock is injectable so deadline behaviour is deterministic under
test (a fake clock advances exactly as scripted).

A :class:`Watchdog` covers the failure the budget cannot: a policy
evaluation that never returns.  It sets a deadline before the
evaluation; one persistent watcher thread (started on first use, one
per watchdog) sleeps until that deadline and, if the evaluation is
still running when it expires, reports the stall (telemetry + counters)
from its own thread while the main thread is still stuck — the ops
plane sees the hang even though the service thread cannot preempt it.
Arming costs a lock and an assignment, not a thread per tick.  The
thread holds its watchdog weakly and exits once the watchdog (and with
it the owning service) is garbage-collected.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable

from repro.errors import ConfigError


class DeadlineBudget:
    """One tick's decision budget, measured from construction."""

    def __init__(
        self,
        deadline_s: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if deadline_s <= 0:
            raise ConfigError("deadline must be positive")
        self.deadline_s = deadline_s
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds since the budget was opened."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left before the deadline (negative once missed)."""
        return self.deadline_s - self.elapsed()

    def exceeded(self) -> bool:
        """Whether the deadline has been missed."""
        return self.elapsed() > self.deadline_s


class Watchdog:
    """Side-thread detector for hung policy evaluations.

    ``arm(tick)`` sets a deadline ``threshold_s`` from now; ``disarm()``
    clears it and reports whether the watchdog fired.  One daemon watcher
    thread, started lazily on the first ``arm``, serves every tick: it
    sleeps on a condition until the armed deadline and, if the deadline
    is still set when it expires, records the stall and calls the
    optional ``on_stall(tick, threshold_s)`` from its own thread — while
    the evaluation is still running.  The callback must therefore only do
    thread-safe reporting (the telemetry event log append qualifies).

    Arming and disarming only take the lock and set or clear the
    deadline; the watcher is woken only when it sleeps without one.
    The thread holds the watchdog weakly, so it never keeps its owner
    (and the owner's ``on_stall`` target) alive, and it exits once the
    watchdog is garbage-collected.
    """

    def __init__(
        self,
        threshold_s: float,
        on_stall: Callable[[int, float], None] | None = None,
    ) -> None:
        if threshold_s <= 0:
            raise ConfigError("watchdog threshold must be positive")
        self.threshold_s = threshold_s
        self.on_stall = on_stall
        self._state = _WatchState(threshold_s)
        self._thread: threading.Thread | None = None
        weakref.finalize(self, self._state.close)

    @property
    def stalls(self) -> int:
        """Evaluations that outlived the threshold so far."""
        return self._state.stalls

    @property
    def last_stall_tick(self) -> int | None:
        return self._state.last_stall_tick

    @property
    def _fired(self) -> bool:
        """Whether the current (or last disarmed) arm has fired."""
        return self._state.fired

    def arm(self, tick: int) -> None:
        """Start watching one policy evaluation."""
        state = self._state
        with state.cond:
            state.tick = tick
            state.fired = False
            state.deadline = time.monotonic() + self.threshold_s
            if state.idle:
                state.cond.notify()
        if self._thread is None:
            self._thread = threading.Thread(
                target=_watch,
                args=(state, weakref.ref(self)),
                name="serve-watchdog",
                daemon=True,
            )
            self._thread.start()

    def disarm(self) -> bool:
        """Stop watching; returns whether the watchdog fired."""
        state = self._state
        with state.cond:
            state.deadline = None
            fired, state.fired = state.fired, False
        return fired


class _WatchState:
    """What the watcher thread shares with its :class:`Watchdog`: no
    reference back to the watchdog, so the thread cannot keep it alive."""

    def __init__(self, threshold_s: float) -> None:
        self.threshold_s = threshold_s
        self.cond = threading.Condition()
        self.deadline: float | None = None
        self.tick = 0
        self.fired = False
        self.stalls = 0
        self.last_stall_tick: int | None = None
        #: The watcher is waiting without a deadline (``arm`` notifies).
        self.idle = False
        self.closed = False

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify()

    def wait_for_stall(self) -> int | None:
        """Block until an armed deadline expires undisarmed; record the
        stall and return its tick.  ``None`` once closed.  Call with
        ``cond`` held."""
        while not self.closed:
            if self.deadline is None:
                self.idle = True
                self.cond.wait()
                self.idle = False
                continue
            remaining = self.deadline - time.monotonic()
            if remaining > 0:
                # A later arm only pushes the deadline back, so sleeping
                # to this one and re-checking never misses a stall.
                self.cond.wait(remaining)
                continue
            self.deadline = None
            self.fired = True
            self.stalls += 1
            self.last_stall_tick = self.tick
            return self.tick
        return None


def _watch(state: _WatchState, owner: "weakref.ref[Watchdog]") -> None:
    """Watcher thread body: report each stall through the (weakly held)
    watchdog's ``on_stall``, outside the lock."""
    while True:
        with state.cond:
            tick = state.wait_for_stall()
        if tick is None:
            return
        watchdog = owner()
        if watchdog is None:
            return
        callback = watchdog.on_stall
        del watchdog
        if callback is not None:
            callback(tick, state.threshold_s)
        del callback

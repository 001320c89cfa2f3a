"""The persistent watchdog thread behind ``ControlService.decide``.

One lazily started daemon thread per :class:`Watchdog` serves every
tick.  Pinned here: a hung evaluation is still reported from that
thread while it hangs, ticks do not spawn threads, a dropped service is
collected and its thread exits, and a disarm racing the threshold never
carries a fired flag into the next tick.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest

from helpers import make_env
from repro.serve import ControlService, PolicyRuntime, ServeConfig, Watchdog

pytestmark = pytest.mark.serve


class BlockingPolicy:
    """Healthy policy whose ``act`` can be made to hang until released."""

    name = "Blocking"

    def __init__(self) -> None:
        self.hang = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def begin_episode(self, env, training: bool) -> None:
        pass

    def act(self, observations, env, training: bool):
        if self.hang:
            self.entered.set()
            assert self.release.wait(timeout=5.0), "never released"
        return {node: 0 for node in env.agent_ids}

    def state_dict(self):
        return {}

    def load_state_dict(self, state) -> None:
        pass


def _service(env, policy, **config):
    config.setdefault("deadline_ms", 500.0)
    return ControlService(
        env, PolicyRuntime(lambda: policy), ServeConfig(**config)
    )


class TestStallReporting:
    def test_hung_evaluation_reported_while_it_hangs(self, tiny_grid):
        env = make_env(tiny_grid)
        policy = BlockingPolicy()
        # Threshold = 5 ms * 10 = 50 ms.
        service = _service(env, policy, deadline_ms=5.0)
        stalls: list[int] = []
        reported = threading.Event()

        def on_stall(tick, threshold_s):
            stalls.append(tick)
            reported.set()

        service.watchdog.on_stall = on_stall
        observations = service.start_episode(seed=0)
        service.decide(observations)  # a healthy tick starts the thread
        policy.hang = True
        worker = threading.Thread(target=service.decide, args=(observations,))
        worker.start()
        try:
            assert policy.entered.wait(timeout=5.0)
            # Reported from the watcher thread, the evaluation still hung.
            assert reported.wait(timeout=5.0), "stall never reported"
            assert worker.is_alive()
            assert stalls == [1]
        finally:
            policy.release.set()
            worker.join(timeout=5.0)
        assert service.health.watchdog_stalls == 1


class TestThreadLifetime:
    def test_thread_count_flat_across_decisions(self, tiny_grid):
        env = make_env(tiny_grid)
        service = _service(env, BlockingPolicy())
        observations = service.start_episode(seed=0)
        service.decide(observations)
        watcher = service.watchdog._thread
        # Compare thread identities, not counts: watchers of services
        # that earlier tests dropped may exit at any point of the loop.
        before = set(threading.enumerate())
        for _ in range(1000):
            service.decide(observations)
        spawned = [t for t in threading.enumerate() if t not in before]
        assert spawned == []
        assert service.watchdog._thread is watcher and watcher.is_alive()

    def test_dropped_service_is_collected_and_thread_exits(self, tiny_grid):
        env = make_env(tiny_grid)
        service = _service(env, BlockingPolicy())
        observations = service.start_episode(seed=0)
        service.decide(observations)
        thread = service.watchdog._thread
        assert thread is not None and thread.is_alive()
        service_ref = weakref.ref(service)
        del service
        gc.collect()
        assert service_ref() is None
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestDisarmRace:
    def test_disarm_at_threshold_never_leaks_fired(self):
        """Whichever of disarm and the watcher wins the lock at the
        threshold, the next tick starts unfired, and every stall the
        watcher records is reported by exactly one disarm.  Four
        watchdogs race on more threads than cores with a short switch
        interval."""
        failures: list[str] = []

        def race(dog: Watchdog) -> None:
            reported = 0
            for tick in range(150):
                dog.arm(tick)
                time.sleep(0.002)
                reported += dog.disarm()
                if dog._fired:
                    failures.append(f"fired left set after tick {tick}")
            if reported != dog.stalls:
                failures.append(f"{dog.stalls} stalls, {reported} reported")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dogs = [Watchdog(threshold_s=0.002) for _ in range(4)]
            threads = [threading.Thread(target=race, args=(dog,)) for dog in dogs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        assert sum(dog.stalls for dog in dogs) > 0  # the race was exercised

    def test_rearm_after_stall_fires_again(self):
        dog = Watchdog(threshold_s=0.05)
        dog.arm(0)
        time.sleep(0.2)
        assert dog.disarm()
        dog.arm(1)
        assert not dog.disarm()
        dog.arm(2)
        time.sleep(0.2)
        assert dog.disarm()
        assert (dog.stalls, dog.last_stall_tick) == (2, 2)

"""Discrete-event kernel: time, events, processes, determinism."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Kernel, ProcessKilled, Timeout, all_of


def test_timeout_advances_simulated_time():
    kernel = Kernel()
    seen = []

    def proc():
        yield Timeout(5.0)
        seen.append(kernel.now)
        yield Timeout(2.5)
        seen.append(kernel.now)

    kernel.spawn(proc())
    kernel.run()
    assert seen == [5.0, 7.5]


def test_process_result_available_after_run():
    kernel = Kernel()

    def proc():
        yield Timeout(1)
        return "answer"

    handle = kernel.spawn(proc())
    kernel.run()
    assert handle.result == "answer"
    assert not handle.alive


def test_result_before_completion_raises():
    kernel = Kernel()

    def proc():
        yield Timeout(10)

    handle = kernel.spawn(proc())
    with pytest.raises(SimulationError):
        handle.result


def test_event_wait_and_trigger_passes_value():
    kernel = Kernel()
    event = kernel.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    def firer():
        yield Timeout(3)
        event.trigger("payload")

    kernel.spawn(waiter())
    kernel.spawn(firer())
    kernel.run()
    assert got == ["payload"]


def test_waiting_on_settled_event_resumes_immediately():
    kernel = Kernel()
    event = kernel.event()
    event.trigger(99)

    def waiter():
        value = yield event
        return value

    handle = kernel.spawn(waiter())
    kernel.run()
    assert handle.result == 99


def test_failed_event_throws_into_waiter():
    kernel = Kernel()
    event = kernel.event()

    def waiter():
        try:
            yield event
        except ValueError as error:
            return f"caught {error}"

    handle = kernel.spawn(waiter())
    kernel.schedule(1, lambda: event.fail(ValueError("bad")))
    kernel.run()
    assert handle.result == "caught bad"


def test_event_cannot_settle_twice():
    kernel = Kernel()
    event = kernel.event()
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_join_returns_child_result():
    kernel = Kernel()

    def child():
        yield Timeout(2)
        return 7

    def parent():
        handle = kernel.spawn(child())
        value = yield handle.join()
        return value + 1

    handle = kernel.spawn(parent())
    kernel.run()
    assert handle.result == 8


def test_yielding_process_handle_joins_it():
    kernel = Kernel()

    def child():
        yield Timeout(1)
        return "c"

    def parent():
        value = yield kernel.spawn(child())
        return value

    handle = kernel.spawn(parent())
    kernel.run()
    assert handle.result == "c"


def test_process_failure_propagates_to_joiner():
    kernel = Kernel()

    def child():
        yield Timeout(1)
        raise RuntimeError("child blew up")

    def parent():
        try:
            yield kernel.spawn(child()).join()
        except RuntimeError as error:
            return str(error)

    handle = kernel.spawn(parent())
    kernel.run()
    assert handle.result == "child blew up"


def test_kill_runs_finally_blocks_and_fails_joiners():
    kernel = Kernel()
    cleaned = []

    def victim():
        try:
            yield Timeout(100)
        finally:
            cleaned.append(True)

    def killer(handle):
        yield Timeout(5)
        handle.kill()

    def joiner(handle):
        try:
            yield handle.join()
        except ProcessKilled:
            return "saw kill"

    victim_handle = kernel.spawn(victim())
    kernel.spawn(killer(victim_handle))
    join_handle = kernel.spawn(joiner(victim_handle))
    kernel.run()
    assert cleaned == [True]
    assert victim_handle.killed
    assert join_handle.result == "saw kill"


def test_kill_finished_process_is_noop():
    kernel = Kernel()

    def quick():
        yield Timeout(1)
        return "done"

    handle = kernel.spawn(quick())
    kernel.run()
    handle.kill()
    assert handle.result == "done"
    assert not handle.killed


def test_run_until_limit_stops_early():
    kernel = Kernel()
    fired = []
    kernel.schedule(10, lambda: fired.append(10))
    kernel.schedule(50, lambda: fired.append(50))
    kernel.run(until=20)
    assert fired == [10]
    assert kernel.now == 20
    kernel.run()
    assert fired == [10, 50]


def test_same_instant_events_fire_fifo():
    kernel = Kernel()
    order = []
    for label in "abc":
        kernel.schedule(5, lambda l=label: order.append(l))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_all_of_collects_all_values():
    kernel = Kernel()
    events = [kernel.event() for _ in range(3)]
    for i, event in enumerate(events):
        kernel.schedule(i + 1, lambda e=event, i=i: e.trigger(i * 10))

    def proc():
        values = yield all_of(kernel, events)
        return values

    handle = kernel.spawn(proc())
    kernel.run()
    assert handle.result == [0, 10, 20]


def test_spawn_requires_a_generator():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.spawn(lambda: None)  # type: ignore[arg-type]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1)


def test_run_until_settled_raises_if_drained():
    kernel = Kernel()
    event = kernel.event()
    with pytest.raises(SimulationError):
        kernel.run_until_settled(event)


def test_determinism_two_identical_runs():
    def build():
        kernel = Kernel()
        trace = []

        def worker(label, delay):
            yield Timeout(delay)
            trace.append((kernel.now, label))
            yield Timeout(delay)
            trace.append((kernel.now, label))

        for i in range(5):
            kernel.spawn(worker(f"w{i}", 1 + i * 0.5))
        kernel.run()
        return trace

    assert build() == build()


def test_every_immediate_fires_at_the_current_instant():
    kernel = Kernel()
    firings = []

    def keep_alive():
        yield Timeout(25.0)

    kernel.spawn(keep_alive())
    timer = kernel.every(10.0, lambda: firings.append(kernel.now),
                         immediate=True)
    kernel.run()
    # first firing at t=0, then one interval apart; the timer is a daemon,
    # so nothing fires once the last real process is gone
    assert firings == [0.0, 10.0, 20.0]
    timer.cancel()


def test_every_without_immediate_waits_one_interval():
    kernel = Kernel()
    firings = []

    def keep_alive():
        yield Timeout(25.0)

    kernel.spawn(keep_alive())
    kernel.every(10.0, lambda: firings.append(kernel.now))
    kernel.run()
    assert firings == [10.0, 20.0]


def test_schedule_passes_its_arguments():
    kernel = Kernel()
    calls = []
    kernel.schedule(2.0, lambda a, b: calls.append((kernel.now, a, b)), "x", 3)
    kernel.run()
    assert calls == [(2.0, "x", 3)]

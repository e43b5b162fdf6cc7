"""Asyncio backend: kernel surface semantics on a real event loop.

These tests pin the edge cases the backend contract (docs/BACKENDS.md)
promises are backend-independent: ``every(immediate=True)`` daemon timer
semantics, ``settle_all`` fan-out completion, the fault-RNG stream
independence the sim network guarantees (the PR-2 drop/duplicate
entanglement bug must not regress on the real-time transport), the
drain / watchdog behaviour of ``run`` / ``run_until_settled``, how close
to its due time an idle timer wakes, and that wakes hand the loop back to
native tasks.

Wall-clock scales are kept tiny (0.5–2 ms per unit) so the whole module
runs in a few seconds of host time.
"""

import asyncio
import random
import statistics

import pytest

from repro.backend import AsyncioKernel
from repro.cluster.cluster import Cluster
from repro.cluster.message import Message
from repro.cluster.network import Network, NetworkConfig
from repro.errors import ClusterError, SimulationError
from repro.sim.kernel import Kernel, ProcessKilled, Timeout, settle_all
from repro.util.rng import SplitRandom


def make_kernel(time_scale=0.001):
    return AsyncioKernel(time_scale=time_scale)


# -- clock and construction ---------------------------------------------------


def test_clock_advances_with_wall_time():
    kernel = make_kernel()
    try:
        first = kernel.now
        ticks = []
        kernel.spawn(_sleeper(2.0, ticks))
        kernel.run()
        assert kernel.now >= first + 2.0
        assert ticks == ["done"]
    finally:
        kernel.close()


def test_time_scale_must_be_positive():
    with pytest.raises(SimulationError):
        AsyncioKernel(time_scale=0.0)
    with pytest.raises(SimulationError):
        AsyncioKernel(time_scale=-1.0)


def test_spawn_rejects_non_generator():
    kernel = make_kernel()
    try:
        with pytest.raises(SimulationError):
            kernel.spawn(lambda: None)
    finally:
        kernel.close()


def _sleeper(duration, log):
    yield Timeout(duration)
    log.append("done")


# -- run / drain semantics ----------------------------------------------------


def test_run_returns_immediately_when_drained():
    kernel = make_kernel()
    try:
        before = kernel.now
        kernel.run()
        assert kernel.now - before < 100.0  # no blocking wait happened
    finally:
        kernel.close()


def test_run_until_stops_clock_and_leaves_work_scheduled():
    kernel = make_kernel()
    try:
        log = []
        kernel.spawn(_sleeper(50.0, log))
        kernel.schedule(1.0, log.append, "early")
        kernel.schedule(20.0, log.append, "late")
        kernel.run(until=kernel.now + 5.0)
        assert log == ["early"]  # nothing due after the horizon ran
        kernel.run()  # resumes the remaining entries to completion
        assert log == ["early", "late", "done"]
    finally:
        kernel.close()


def test_equal_due_times_run_in_post_order_on_both_kernels():
    """The ``(when, seq)`` tie-break is the sim kernel's on both backends."""
    wall = make_kernel()
    try:
        for kernel in (Kernel(), wall):
            log = []
            when = kernel.now + 1.0
            for index in range(20):
                kernel._post_at(when, log.append, index)
            kernel.run()
            assert log == list(range(20))
    finally:
        wall.close()


def test_run_until_settled_raises_when_drained():
    kernel = make_kernel()
    try:
        event = kernel.event("never")
        with pytest.raises(SimulationError, match="drained"):
            kernel.run_until_settled(event)
    finally:
        kernel.close()


def test_run_until_settled_enforces_time_limit():
    kernel = make_kernel()
    try:
        log = []
        kernel.spawn(_sleeper(10_000.0, log))
        event = kernel.event("never")
        with pytest.raises(SimulationError, match="limit"):
            kernel.run_until_settled(event, limit=kernel.now + 5.0)
    finally:
        kernel.close()


def test_run_until_settled_returns_value_and_raises_failure():
    kernel = make_kernel()
    try:
        ok = kernel.event("ok")
        kernel.schedule(1.0, lambda: ok.trigger("payload"))
        assert kernel.run_until_settled(ok) == "payload"
        bad = kernel.event("bad")
        kernel.schedule(1.0, lambda: bad.fail(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            kernel.run_until_settled(bad)
    finally:
        kernel.close()


def test_close_is_idempotent_and_injected_loops_survive():
    kernel = make_kernel()
    kernel.close()
    kernel.close()
    loop = asyncio.new_event_loop()
    try:
        injected = AsyncioKernel(time_scale=0.001, loop=loop)
        injected.close()
        assert not loop.is_closed()
    finally:
        loop.close()


# -- processes, kill, timeout_event ------------------------------------------


def test_process_kill_runs_finally_blocks():
    kernel = make_kernel()
    try:
        log = []

        def victim():
            try:
                yield Timeout(1_000.0)
            finally:
                log.append("cleanup")

        process = kernel.spawn(victim())
        kernel.schedule(2.0, process.kill)
        kernel.run()
        assert log == ["cleanup"]
        assert not process.alive
    finally:
        kernel.close()


def test_timeout_event_triggers_once():
    kernel = make_kernel()
    try:
        event = kernel.timeout_event(2.0, value="fired")
        assert kernel.run_until_settled(event) == "fired"
        assert event.settled and not event.failed
    finally:
        kernel.close()


def test_join_propagates_result():
    kernel = make_kernel()
    try:

        def child():
            yield Timeout(1.0)
            return 42

        def parent(out):
            value = yield kernel.spawn(child())
            out.append(value)

        results = []
        kernel.spawn(parent(results))
        kernel.run()
        assert results == [42]
    finally:
        kernel.close()


# -- every(immediate=) daemon timer semantics --------------------------------


def test_every_immediate_fires_now_then_periodically():
    kernel = make_kernel()
    try:
        fired = []
        log = []
        timer = kernel.every(1.0, lambda: fired.append(kernel.now),
                             immediate=True)
        kernel.spawn(_sleeper(4.5, log))
        kernel.run()
        timer.cancel()
        assert log == ["done"]
        # immediate first firing, then roughly one per unit while alive
        assert len(fired) >= 3
        assert fired[0] < 1.0
    finally:
        kernel.close()


def test_every_without_immediate_waits_one_interval():
    kernel = make_kernel()
    try:
        fired = []
        log = []
        start = kernel.now
        timer = kernel.every(2.0, lambda: fired.append(kernel.now))
        kernel.spawn(_sleeper(5.0, log))
        kernel.run()
        timer.cancel()
        assert fired and fired[0] >= start + 2.0
    finally:
        kernel.close()


def test_periodic_timer_alone_never_keeps_backend_alive():
    """Daemon entries must not count as pending work: a kernel whose only
    scheduled entry is a periodic timer is drained, exactly as on sim —
    both before any work and once the last real work has run."""
    kernel = make_kernel()
    try:
        fired = []
        kernel.every(1.0, lambda: fired.append(kernel.now), immediate=True)
        before = kernel.now
        kernel.run()
        assert kernel.now - before < 100.0  # returned without blocking
        log = []
        kernel.spawn(_sleeper(3.0, log))
        kernel.run()
        assert log == ["done"]
        assert kernel.now - before < 100.0  # returned once the sleeper ended
        seen = len(fired)
        kernel.run()  # only the timer's daemon entry is queued
        assert len(fired) == seen
    finally:
        kernel.close()


def test_cancelled_timer_stops_firing():
    kernel = make_kernel()
    try:
        fired = []
        log = []
        timer = kernel.every(1.0, lambda: fired.append(kernel.now))
        cancelled = []

        def cancel():
            timer.cancel()
            cancelled.append(kernel.now)

        kernel.schedule(2.5, cancel)
        kernel.spawn(_sleeper(8.0, log))
        kernel.run()
        # no firing after the cancel, however late the host ran the wakes
        assert fired and all(t <= cancelled[0] for t in fired)
        assert timer.fires == len(fired) <= 3 and log == ["done"]
    finally:
        kernel.close()


def test_idle_timeouts_wake_within_a_fraction_of_a_millisecond():
    """Wake-up precision: an idle ``Timeout`` resumes, at the median, less
    than 0.3 ms after its due time (a selector that rounds each wait up to
    a whole millisecond reads about 0.5 ms)."""
    kernel = make_kernel(time_scale=0.001)
    try:
        delays = random.Random(1)
        lateness = []

        def sleeper():
            for _ in range(200):
                delay = delays.uniform(0.5, 2.0)
                due = kernel.now + delay
                yield Timeout(delay)
                lateness.append((kernel.now - due) * kernel.time_scale)

        kernel.spawn(sleeper())
        kernel.run()
        assert len(lateness) == 200
        assert statistics.median(lateness) < 0.3e-3, sorted(lateness)[100]
    finally:
        kernel.close()


# -- settle_all fan-out -------------------------------------------------------


def test_settle_all_waits_for_every_branch_including_failures():
    kernel = make_kernel()
    try:

        def ok(duration, out):
            yield Timeout(duration)
            out.append(duration)

        def bad():
            yield Timeout(1.0)
            raise RuntimeError("branch failed")

        done = []
        branches = [kernel.spawn(ok(3.0, done)), kernel.spawn(ok(1.0, done)),
                    kernel.spawn(bad())]

        def waiter(out):
            outcomes = yield settle_all(kernel, [b.join() for b in branches])
            out.append((sorted(done), [ok for ok, _value in outcomes]))

        observed = []
        kernel.spawn(waiter(observed))
        kernel.run()
        # the waiter resumed only after the slowest branch finished, and
        # the failing branch did not abort the fan-in
        assert observed == [([1.0, 3.0], [True, True, False])]
        assert isinstance(branches[2].error, RuntimeError)
    finally:
        kernel.close()


# -- native asyncio bridge ----------------------------------------------------


def test_run_coroutine_result_flows_into_generator_world():
    kernel = AsyncioKernel(time_scale=0.001)
    try:

        async def native():
            await asyncio.sleep(0.002)
            return "from-asyncio"

        results = []

        def consumer():
            value = yield kernel.run_coroutine(native())
            results.append(value)

        kernel.spawn(consumer())
        kernel.run()
        assert results == ["from-asyncio"]
    finally:
        kernel.close()


def test_run_coroutine_keeps_backend_alive_and_propagates_errors():
    kernel = AsyncioKernel(time_scale=0.001)
    try:

        async def native():
            await asyncio.sleep(0.002)
            raise ValueError("native failure")

        event = kernel.run_coroutine(native())
        with pytest.raises(ValueError, match="native failure"):
            kernel.run_until_settled(event)
    finally:
        kernel.close()


def test_run_coroutine_cancellation_fails_event_with_process_killed():
    kernel = AsyncioKernel(time_scale=0.001)
    try:
        started = []

        async def native():
            started.append(True)
            await asyncio.sleep(60.0)

        event = kernel.run_coroutine(native())
        failures = []
        event.on_settle(lambda ev: failures.append(ev.value))

        def canceller():
            yield Timeout(2.0)
            for task in asyncio.all_tasks(kernel.loop):
                task.cancel()

        kernel.spawn(canceller())
        kernel.run()
        assert started == [True]
        assert len(failures) == 1 and isinstance(failures[0], ProcessKilled)
    finally:
        kernel.close()


def test_wakes_hand_the_loop_back_to_native_tasks():
    """A bridged coroutine that only ever yields to the loop finishes while
    generator processes are still exchanging messages: wakes return to the
    loop between due entries instead of holding it until the heap drains."""
    kernel = AsyncioKernel(time_scale=0.001)
    try:
        network = Network(kernel, SplitRandom(3), NetworkConfig())
        rounds = 40
        mailbox = {}
        received = []

        def attach(name):
            mailbox[name] = kernel.event(name)

            def deliver(message):
                event, mailbox[name] = mailbox[name], kernel.event(name)
                event.trigger(message.payload["i"])

            network.attach(name, deliver)

        def player(me, peer, serve):
            if serve:
                network.send(Message(me, peer, "ping", {"i": 0}))
            while True:
                index = yield mailbox[me]
                received.append(index)
                if index >= rounds:
                    return
                network.send(Message(me, peer, "ping", {"i": index + 1}))

        async def spinner():
            for _ in range(200):
                await asyncio.sleep(0)
            return len(received)

        attach("a")
        attach("b")
        kernel.spawn(player("a", "b", serve=True))
        kernel.spawn(player("b", "a", serve=False))
        spun = kernel.run_coroutine(spinner())
        kernel.run()
        assert received == list(range(rounds + 1))
        assert spun.triggered and spun.value < rounds
    finally:
        kernel.close()


# -- fault-RNG stream independence on the real-time transport -----------------


def run_fault_pattern_aio(config, seed=7, count=150):
    """Deliver ``count`` messages on an AsyncioKernel-backed network.

    All sends happen inside one callback, so the per-send fault draws are
    consumed in index order regardless of loop scheduling; the resulting
    drop/duplicate fate sets are therefore comparable across knob
    settings and against the sim backend.
    """
    kernel = AsyncioKernel(time_scale=0.0005)
    try:
        network = Network(kernel, SplitRandom(seed), config)
        inbox = []
        network.attach("b", inbox.append)
        network.attach("a", lambda m: None)

        def blast():
            for i in range(count):
                network.send(Message("a", "b", "ping", {"i": i}))

        kernel.schedule(0.0, blast)
        kernel.run()
        seen = {}
        for m in inbox:
            seen[m.payload["i"]] = seen.get(m.payload["i"], 0) + 1
        dropped = {i for i in range(count) if i not in seen}
        duplicated = {i for i, n in seen.items() if n == 2}
        return dropped, duplicated
    finally:
        kernel.close()


def run_fault_pattern_sim(config, seed=7, count=150):
    kernel = Kernel()
    network = Network(kernel, SplitRandom(seed), config)
    inbox = []
    network.attach("b", inbox.append)
    network.attach("a", lambda m: None)
    for i in range(count):
        network.send(Message("a", "b", "ping", {"i": i}))
    kernel.run()
    seen = {}
    for m in inbox:
        seen[m.payload["i"]] = seen.get(m.payload["i"], 0) + 1
    dropped = {i for i in range(count) if i not in seen}
    duplicated = {i for i, n in seen.items() if n == 2}
    return dropped, duplicated


def test_drop_fates_independent_of_duplicate_knob_on_asyncio():
    """PR-2 regression guard, real-time edition: toggling duplication must
    not reshuffle which messages the asyncio-backed network drops."""
    plain, _ = run_fault_pattern_aio(NetworkConfig(drop_probability=0.3))
    entangled, _ = run_fault_pattern_aio(
        NetworkConfig(drop_probability=0.3, duplicate_probability=0.5))
    assert plain == entangled


def test_fault_fates_match_sim_exactly():
    """Same seed, same knobs, same per-index drop and duplicate fate sets
    on both backends: the fault RNG streams are backend-independent."""
    config = NetworkConfig(drop_probability=0.25, duplicate_probability=0.3)
    sim_dropped, sim_dup = run_fault_pattern_sim(config)
    aio_dropped, aio_dup = run_fault_pattern_aio(config)
    assert aio_dropped == sim_dropped
    assert aio_dup == sim_dup


# -- the backend argument and kernel lifecycle --------------------------------


def test_cluster_backend_names_its_kernel():
    for spec in (None, "sim"):
        cluster = Cluster(backend=spec)
        assert type(cluster.kernel) is Kernel and not cluster.kernel.wall_clock
    for spec in ("asyncio", "aio"):
        cluster = Cluster(backend=spec)
        assert isinstance(cluster.kernel, AsyncioKernel)
        assert cluster.kernel.wall_clock
        cluster.close()


def test_cluster_takes_a_kernel_instance_unchanged():
    kernel = Kernel()
    cluster = Cluster(backend=kernel)
    assert cluster.kernel is kernel and cluster.backend is cluster.kernel
    assert cluster.network.kernel is kernel


def test_cluster_rejects_an_unknown_backend():
    for spec in ("threads", 42):
        with pytest.raises(ClusterError):
            Cluster(backend=spec)


def test_kernel_context_manager_closes_only_an_owned_loop():
    with AsyncioKernel(time_scale=0.001) as kernel:
        loop = kernel.loop
        assert not loop.is_closed()
    assert loop.is_closed()

    def worker():
        yield Timeout(1.0)
        return "done"

    with Kernel() as kernel:  # the simulation holds nothing to release
        handle = kernel.spawn(worker())
    assert kernel.run() == 1.0 and handle.result == "done"

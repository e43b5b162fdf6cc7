"""The threaded local runtime under real concurrency."""

import threading
import time

import pytest

from repro.errors import DeadlockDetected
from repro.locking.modes import LockMode
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Account, Counter


def run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not any(t.is_alive() for t in threads), "worker thread hung"


def test_concurrent_increments_serialize():
    runtime = LocalRuntime()
    counter = Counter(runtime, value=0)
    per_thread, thread_count = 25, 4

    def worker():
        for _ in range(per_thread):
            with runtime.top_level():
                counter.increment(1)

    run_threads([worker] * thread_count)
    assert counter.value == per_thread * thread_count


def test_transfer_between_accounts_preserves_total():
    """Classic bank invariant under concurrent transfers with aborts."""
    runtime = LocalRuntime()
    accounts = [Account(runtime, f"acc{i}", balance=100) for i in range(4)]
    errors = []

    def worker(seed):
        import random
        rng = random.Random(seed)
        for _ in range(20):
            src, dst = rng.sample(range(4), 2)
            try:
                with runtime.top_level(name=f"xfer{seed}"):
                    accounts[src].withdraw(5)
                    accounts[dst].deposit(5)
                    if rng.random() < 0.3:
                        raise RuntimeError("change of mind")
            except (RuntimeError, DeadlockDetected):
                continue
            except Exception as error:  # noqa: BLE001
                errors.append(error)

    run_threads([lambda s=s: worker(s) for s in range(4)])
    assert errors == []
    assert sum(a.balance for a in accounts) == 400


def test_reader_blocks_until_writer_commits():
    runtime = LocalRuntime()
    counter = Counter(runtime, value=0)
    writer_holding = threading.Event()
    release_writer = threading.Event()
    observed = []

    def writer():
        with runtime.top_level(name="writer"):
            counter.increment(10)
            writer_holding.set()
            release_writer.wait(10)

    def reader():
        writer_holding.wait(10)
        with runtime.top_level(name="reader"):
            observed.append(counter.get())

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    writer_holding.wait(10)
    assert observed == []         # reader still blocked
    release_writer.set()
    writer_thread.join(10)
    reader_thread.join(10)
    assert observed == [10]       # reader saw the committed value only


def test_aborted_writer_invisible_to_reader():
    runtime = LocalRuntime()
    counter = Counter(runtime, value=0)
    holding = threading.Event()
    release = threading.Event()
    observed = []

    def writer():
        try:
            with runtime.top_level(name="writer"):
                counter.increment(99)
                holding.set()
                release.wait(10)
                raise RuntimeError("abort")
        except RuntimeError:
            pass

    def reader():
        holding.wait(10)
        with runtime.top_level(name="reader"):
            observed.append(counter.get())

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    holding.wait(10)
    release.set()
    for t in threads:
        t.join(10)
    assert observed == [0]


def test_cross_thread_deadlock_detected_and_victim_aborted():
    runtime = LocalRuntime()
    a = Counter(runtime, value=0)
    b = Counter(runtime, value=0)
    barrier = threading.Barrier(2, timeout=10)
    outcomes = []

    def worker(first, second, label):
        try:
            with runtime.top_level(name=label):
                first.increment(1)
                barrier.wait()
                second.increment(1)
            outcomes.append((label, "committed"))
        except DeadlockDetected:
            outcomes.append((label, "deadlock"))

    run_threads([
        lambda: worker(a, b, "t1"),
        lambda: worker(b, a, "t2"),
    ])
    results = dict(outcomes)
    assert sorted(results.values()) == ["committed", "deadlock"]


def test_victim_can_retry_and_succeed():
    runtime = LocalRuntime()
    a = Counter(runtime, value=0)
    b = Counter(runtime, value=0)
    barrier = threading.Barrier(2, timeout=10)
    done = []

    def worker(first, second, label):
        for attempt in range(3):
            try:
                with runtime.top_level(name=f"{label}#{attempt}"):
                    first.increment(1)
                    if attempt == 0:
                        try:
                            barrier.wait()
                        except threading.BrokenBarrierError:
                            pass
                    second.increment(1)
                done.append(label)
                return
            except DeadlockDetected:
                continue

    run_threads([
        lambda: worker(a, b, "t1"),
        lambda: worker(b, a, "t2"),
    ])
    assert sorted(done) == ["t1", "t2"]
    assert a.value == 2 and b.value == 2


def test_concurrent_independent_objects_no_interference():
    runtime = LocalRuntime()
    counters = [Counter(runtime, value=0) for _ in range(4)]

    def worker(index):
        for _ in range(50):
            with runtime.top_level():
                counters[index].increment(1)

    run_threads([lambda i=i: worker(i) for i in range(4)])
    assert [c.value for c in counters] == [50] * 4


def test_a_cycle_closed_by_lock_inheritance_is_broken():
    """§5.2: C's commit passes its lock on x to its parent P, which waits
    for y behind T, while T waits for x.  No request queues as the cycle
    T -> P -> T closes; the commit breaks it, refusing T, the youngest."""
    runtime = LocalRuntime()
    x = Counter(runtime, value=0)
    y = Counter(runtime, value=0)
    parent = runtime.new_action([runtime.fresh_colour("p")], parent=None,
                                name="P")
    child = runtime.new_action(parent.colours, parent=parent, name="C")
    other = runtime.new_action([runtime.fresh_colour("t")], parent=None,
                               name="T")
    x.increment(1, action=child)
    y.increment(1, action=other)
    outcomes = {}

    def other_body():
        try:
            x.increment(1, action=other)
            outcomes["T"] = "granted"
        except DeadlockDetected:
            runtime.abort_action(other)
            outcomes["T"] = "deadlock"

    def parent_body():
        y.increment(1, action=parent)
        outcomes["P"] = "granted"

    def queued(action):
        deadline = time.monotonic() + 10
        while not runtime.locks.pending_requests_of(action.uid):
            assert time.monotonic() < deadline, f"{action.name} never queued"
            time.sleep(0.001)

    threads = [threading.Thread(target=other_body, daemon=True),
               threading.Thread(target=parent_body, daemon=True)]
    threads[0].start()
    queued(other)
    threads[1].start()
    queued(parent)
    runtime.commit_action(child)
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads), \
        "the inherited cycle was never broken"
    assert outcomes == {"T": "deadlock", "P": "granted"}
    assert runtime.deadlock_victims() == [other.uid]
    runtime.commit_action(parent)
    assert (x.value, y.value) == (1, 1)

"""Type-specific concurrency control and recovery (§2): the semantic layer."""

import threading

import pytest

from repro.errors import LockTimeout, LockingError
from repro.locking.semantic import SemanticSpec
from repro.objects.semantic import RETAIN_GROUP, with_retain_group
from repro.stdobjects.commuting import CommutingCounter
from repro.structures import SerializingAction


# -- SemanticSpec ------------------------------------------------------------

def test_spec_build_validates_groups():
    with pytest.raises(LockingError):
        SemanticSpec.build(groups={"a"}, compatible_pairs=[("a", "ghost")])


def test_spec_compatibility_is_symmetric():
    spec = SemanticSpec.build(groups={"a", "b"}, compatible_pairs=[("a", "b")])
    assert spec.is_compatible("a", "b")
    assert spec.is_compatible("b", "a")
    assert not spec.is_compatible("a", "a")


def test_with_retain_group_adds_conflicting_pin():
    spec = SemanticSpec.build(groups={"a"}, compatible_pairs=[("a", "a")])
    extended = with_retain_group(spec)
    assert RETAIN_GROUP in extended.groups
    assert not extended.is_compatible(RETAIN_GROUP, "a")
    assert not extended.is_compatible(RETAIN_GROUP, RETAIN_GROUP)


# -- commuting counter: concurrency ----------------------------------------------

def test_concurrent_updates_do_not_block(runtime):
    counter = CommutingCounter(runtime, value=0)
    scope1 = runtime.top_level(name="u1")
    u1 = scope1.__enter__()
    counter.add(1, action=u1)
    # a second, unrelated action updates concurrently — no wait
    with runtime.top_level(name="u2") as u2:
        counter.add(10, action=u2)
    assert counter.value == 11
    runtime.commit_action(u1)
    scope1.__exit__(None, None, None)
    assert counter.value == 11


def test_observer_blocks_while_updater_active(runtime):
    counter = CommutingCounter(runtime, value=0)
    scope = runtime.top_level(name="u")
    updater = scope.__enter__()
    counter.add(1, action=updater)
    with runtime.top_level(name="r") as reader:
        with pytest.raises(LockTimeout):
            runtime.acquire(reader, counter, "observe", timeout=0.05)
        runtime.abort_action(reader)
    runtime.commit_action(updater)
    scope.__exit__(None, None, None)
    with runtime.top_level(name="r2") as reader:
        assert counter.get(action=reader) == 1


def test_updater_blocks_while_observer_active(runtime):
    counter = CommutingCounter(runtime, value=0)
    scope = runtime.top_level(name="r")
    reader = scope.__enter__()
    counter.get(action=reader)
    with runtime.top_level(name="u") as updater:
        with pytest.raises(LockTimeout):
            runtime.acquire(updater, counter, "update", timeout=0.05)
        runtime.abort_action(updater)
    runtime.commit_action(reader)
    scope.__exit__(None, None, None)


def test_same_action_may_update_then_observe(runtime):
    """Ancestry (here: self) overrides group conflicts, as with modes."""
    counter = CommutingCounter(runtime, value=0)
    with runtime.top_level() as action:
        counter.add(5, action=action)
        assert counter.get(action=action) == 5


def test_nested_child_compatible_with_parent(runtime):
    counter = CommutingCounter(runtime, value=0)
    with runtime.top_level() as parent:
        counter.add(1, action=parent)
        with runtime.atomic() as child:
            assert counter.get(action=child) == 1
            counter.add(2, action=child)
    assert counter.value == 3


# -- commuting counter: type-specific recovery ---------------------------------------

def test_abort_compensates_instead_of_restoring(runtime):
    """The §2 scenario: A and B add concurrently; A's abort subtracts only
    its own contribution — a before-image restore would wipe B's too."""
    counter = CommutingCounter(runtime, value=100)
    scope_a = runtime.top_level(name="A")
    a = scope_a.__enter__()
    counter.add(1, action=a)
    with runtime.top_level(name="B") as b:
        counter.add(10, action=b)       # B commits its +10
    assert counter.value == 111
    runtime.abort_action(a)             # A aborts: compensate only the +1
    scope_a.__exit__(None, None, None)
    assert counter.value == 110


def test_multiple_operations_each_compensated(runtime):
    counter = CommutingCounter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level():
            counter.add(5)
            counter.subtract(2)
            counter.add(7)
            raise RuntimeError
    assert counter.value == 0


def test_committed_operations_not_compensated(runtime):
    counter = CommutingCounter(runtime, value=0)
    with runtime.top_level():
        counter.add(5)
    assert counter.value == 5
    assert runtime.store.read_committed(counter.uid).payload == counter.snapshot()


def test_child_commit_transfers_compensations_to_parent(runtime):
    counter = CommutingCounter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level():
            with runtime.atomic():
                counter.add(3)
            assert counter.value == 3
            raise RuntimeError("parent aborts; child's op compensated via parent")
    assert counter.value == 0


def test_interleaved_compensation_order(runtime):
    """Image undo and operation undo interleave correctly by recency."""
    from repro.stdobjects import Counter
    plain = Counter(runtime, value=0)
    commuting = CommutingCounter(runtime, value=0)
    with pytest.raises(RuntimeError):
        with runtime.top_level():
            commuting.add(1)
            plain.increment(10)
            commuting.add(100)
            raise RuntimeError
    assert plain.value == 0
    assert commuting.value == 0


def test_concurrent_threads_commuting_updates():
    """Real threads adding concurrently, some aborting; the final value is
    the sum of committed deltas."""
    from repro.runtime.runtime import LocalRuntime
    runtime = LocalRuntime()
    counter = CommutingCounter(runtime, value=0)
    committed_total = []

    def worker(seed):
        import random
        rng = random.Random(seed)
        local_sum = 0
        for i in range(20):
            amount = rng.randint(1, 9)
            doomed = rng.random() < 0.4
            try:
                with runtime.top_level(name=f"w{seed}-{i}"):
                    counter.add(amount)
                    if doomed:
                        raise RuntimeError
                local_sum += amount
            except RuntimeError:
                pass
        committed_total.append(local_sum)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert counter.value == sum(committed_total)


# -- interaction with structures -----------------------------------------------------

def test_serializing_constituent_pins_semantic_object(runtime):
    """The companion mechanism shadows group locks with the retain group."""
    counter = CommutingCounter(runtime, value=0)
    ser = SerializingAction(runtime, name="ser")
    with ser.constituent(name="B") as b:
        counter.add(1, action=b)
    # retained: an outside updater is blocked even though update/update is
    # normally compatible — the control action holds the pin.
    with runtime.top_level(name="out") as outsider:
        with pytest.raises(LockTimeout):
            runtime.acquire(outsider, counter, "update", timeout=0.05)
        runtime.abort_action(outsider)
    ser.close()
    with runtime.top_level(name="after") as after:
        counter.add(1, action=after)
    assert counter.value == 2


def test_unknown_group_refused(runtime):
    from repro.errors import LockRefused
    counter = CommutingCounter(runtime, value=0)
    with runtime.top_level() as action:
        with pytest.raises(LockRefused):
            runtime.acquire(action, counter, "no-such-group", timeout=0.05)
        runtime.abort_action(action)


def test_mode_of_the_other_kind_refused(runtime):
    """A data mode on a group-locked object, or a group on a plain one, is
    the rule set's refusal, not an error from inside the table."""
    from repro.errors import LockRefused
    from repro.locking.modes import LockMode
    from repro.stdobjects import Counter
    counter, plain = CommutingCounter(runtime, value=0), Counter(runtime, value=0)
    with runtime.top_level() as action:
        with pytest.raises(LockRefused, match="unknown operation group 'write'"):
            runtime.acquire(action, counter, LockMode.WRITE, timeout=0.05)
        with pytest.raises(LockRefused, match="not by operation group 'update'"):
            runtime.acquire(action, plain, "update", timeout=0.05)
        counter.add(1, action=action)
        plain.increment(1, action=action)
    assert (counter.value, plain.value) == (1, 1)


def test_group_grants_are_reported_to_an_attached_hub(runtime):
    """One blocking acquire: a group grant reaches the hub like a mode
    grant — the counter, the wait histogram, the action span's event
    (spans are built once the history layer keeps them)."""
    from repro.obs import History, Observability
    hub = Observability()
    hub.bind(History())
    runtime.attach_observability(hub)
    counter = CommutingCounter(runtime, value=0)
    with runtime.top_level(name="u") as action:
        counter.add(1, action=action)
        span = action._obs_span
    assert {labels["mode"]: instrument.value for labels, instrument
            in hub.metrics.series("lock_grants_total")} == {"update": 1}
    assert [instrument.count for _labels, instrument
            in hub.metrics.series("lock_wait_seconds")] == [1]
    assert [(name, attrs["mode"]) for _tick, name, attrs in span.events] == [
        ("lock.granted", "update")]

"""Serializing actions: §3.1's three outcomes and lock retention (figs. 3/11).

The outcomes, the retention between constituents and the closed check are
the colouring scheme's doing (:class:`repro.structures.schemes.Serializing`),
so those cases run over both runtimes (``tests/stages.py``); the rest pin
the local calling convention, ``with`` scopes.
"""

import pytest

from repro.errors import InvalidActionState
from repro.locking.modes import LockMode
from repro.structures import SerializingAction
from repro.stdobjects import Counter
from tests.stages import stages


def test_outcome_ii_both_commit(runtime):
    """(ii) Effects from B and C become permanent."""
    for stage in stages(runtime):
        b_objects, shared = stage.counter(), stage.counter()
        ser = stage.serializing("ser")
        b = stage.constituent(ser, "B")
        stage.increment(b, b_objects, 10)
        stage.increment(b, shared, 1)
        stage.end(b, "commit")
        c = stage.constituent(ser)
        assert (ser.control.name, c.name) == ("ser.A", "ser.c2")
        assert ser.constituents == ser.members == [b, c]
        stage.increment(c, shared, 100)
        stage.end(c, "commit")
        stage.close(ser)
        assert stage.permanent(b_objects) == 10
        assert stage.permanent(shared) == 101
        stage.finish()


def test_outcome_i_b_aborts_no_effects(runtime):
    """(i) No effects are produced (because B aborts)."""
    for stage in stages(runtime):
        counter = stage.counter()
        ser = stage.serializing("ser")
        b = stage.constituent(ser, "B")
        stage.increment(b, counter, 10)
        stage.end(b, "abort")
        stage.cancel(ser)
        assert stage.value(counter) == stage.permanent(counter) == 0
        stage.finish()


def test_outcome_iii_b_survives_c_abort(runtime):
    """(iii) Effects of B only become permanent (B commits, C aborts)."""
    for stage in stages(runtime):
        counter = stage.counter()
        ser = stage.serializing("ser")
        b = stage.constituent(ser, "B")
        stage.increment(b, counter, 10)
        stage.end(b, "commit")
        c = stage.constituent(ser, "C")
        stage.increment(c, counter, 100)
        stage.end(c, "abort")
        stage.close(ser)
        assert stage.value(counter) == stage.permanent(counter) == 10
        stage.finish()


def test_outcome_iii_in_with_blocks(runtime):
    """Outcome (iii) in the local calling convention: an exception leaving
    a constituent's ``with`` block aborts it, the structure's block closes."""
    counter = Counter(runtime, value=0)
    with SerializingAction(runtime, name="ser") as ser:
        with ser.constituent(name="B"):
            counter.increment(10)
        with pytest.raises(RuntimeError):
            with ser.constituent(name="C"):
                counter.increment(100)
                raise RuntimeError("C fails")
    assert counter.value == 10
    assert ser.control.status.value == "committed"


def test_b_effects_survive_serializing_action_abort(runtime):
    """The §3 requirement nesting cannot give: A aborts after B completed,
    yet B's effects survive (relaxed failure atomicity)."""
    counter = Counter(runtime, value=0)
    ser = SerializingAction(runtime, name="ser")
    with ser.constituent(name="B"):
        counter.increment(10)
    ser.cancel()   # A aborts
    assert counter.value == 10
    assert runtime.store.read_committed(counter.uid).payload == counter.snapshot()


def test_b_updates_permanent_at_b_commit_not_a_commit(runtime):
    """Constituents are top-level w.r.t. permanence: the store is updated at
    B's commit, before A ends."""
    counter = Counter(runtime, value=0)
    with SerializingAction(runtime, name="ser") as ser:
        with ser.constituent(name="B"):
            counter.increment(10)
        assert runtime.store.read_committed(counter.uid).payload == counter.snapshot()


def test_control_retains_locks_between_constituents(runtime):
    """Objects touched by B stay inaccessible to outsiders until A ends."""
    for stage in stages(runtime):
        written, read_only = stage.counter(), stage.counter()
        ser = stage.serializing("ser")
        b = stage.constituent(ser, "B")
        stage.increment(b, written, 10)
        stage.get(b, read_only)
        stage.end(b, "commit")
        # written: retained as EXCLUSIVE_READ -> outsiders cannot even read
        assert not stage.lockable(written, LockMode.READ)
        # read_only: retained as READ -> outsiders may read but not write
        assert stage.lockable(read_only, LockMode.READ)
        assert not stage.lockable(read_only, LockMode.WRITE)
        stage.close(ser)
        # after A ends everything is free
        assert stage.lockable(written, LockMode.WRITE)
        stage.finish()


def test_later_constituent_acquires_earlier_ones_objects(runtime):
    """C picks up the locks A retained from B (fig. 3's hand-off)."""
    counter = Counter(runtime, value=0)
    with SerializingAction(runtime, name="ser") as ser:
        with ser.constituent(name="B"):
            counter.increment(1)
        with ser.constituent(name="C") as c:
            # no outsider could have intervened; C sees B's value
            assert counter.get(action=c) == 1
            counter.increment(1, action=c)
    assert counter.value == 2


def test_control_action_performs_no_writes_abort_undoes_nothing(runtime):
    counter = Counter(runtime, value=0)
    ser = SerializingAction(runtime, name="ser")
    with ser.constituent(name="B"):
        counter.increment(5)
    before = counter.value
    ser.cancel()
    assert counter.value == before
    assert ser.control.written_objects() == {}


def test_constituents_refused_after_close(runtime):
    for stage in stages(runtime):
        for end in (stage.close, stage.cancel):
            ser = stage.serializing("ser")
            end(ser)
            with pytest.raises(InvalidActionState,
                               match="ser: structure already closed"):
                stage.constituent(ser)
            assert ser.members == []
        stage.finish()


def test_nested_serializing_inside_top_level(runtime):
    """A serializing action may itself be nested inside an atomic action."""
    counter = Counter(runtime, value=0)
    with runtime.top_level(name="outer") as outer:
        with SerializingAction(runtime, parent=outer, name="ser") as ser:
            with ser.constituent(name="B"):
                counter.increment(4)
    assert counter.value == 4

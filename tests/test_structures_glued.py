"""Glued actions: hand-over pins, early release, cascade-abort freedom
(figs. 5/6/12 and the §3.2 diary-style requirements).

Hand-over and what a cancelled group keeps are the colouring scheme's doing
(:class:`repro.structures.schemes.ControlStructure`), so those cases run
over both runtimes (``tests/stages.py``); the rest pin the local calling
convention, ``with`` scopes.
"""

import pytest

from repro.locking.modes import LockMode
from repro.structures import GluedGroup
from repro.stdobjects import Counter
from tests.stages import stages


def test_member_effects_permanent_at_member_commit(runtime):
    counter = Counter(runtime, value=0)
    with GluedGroup(runtime, name="g") as glue:
        with glue.member(name="A") as m:
            counter.increment(5, action=m.action)
        assert runtime.store.read_committed(counter.uid).payload == counter.snapshot()
    assert counter.value == 5


def test_unhanded_objects_released_at_member_commit(runtime):
    """§3.2: objects in O - P must be free once A commits — the advantage
    over a serializing action."""
    for stage in stages(runtime):
        kept, released = stage.counter(), stage.counter()
        glue = stage.glued("g")
        a = stage.member(glue, "A")
        stage.increment(a, kept)
        stage.increment(a, released)
        stage.hand_over(glue, a, kept)
        stage.end(a, "commit")
        assert stage.lockable(released, LockMode.WRITE)   # free
        assert not stage.lockable(kept, LockMode.WRITE)   # pinned
        stage.close(glue)
        assert stage.lockable(kept, LockMode.WRITE)
        stage.finish()


def test_handed_over_objects_unchanged_between_members(runtime):
    """Objects in P remain unchanged between the end of A and start of B."""
    for stage in stages(runtime):
        p = stage.counter()
        glue = stage.glued("g")
        a = stage.member(glue, "A")
        stage.increment(a, p, 1)
        stage.hand_over(glue, a, p)
        stage.end(a, "commit")
        assert stage.permanent(p) == 1   # a top-level action's commit
        b = stage.member(glue)
        assert (glue.control.name, b.name) == ("g.G", "g.A2")
        assert glue.members == [a, b]
        assert stage.get(b, p) == 1
        stage.increment(b, p, 10)
        stage.end(b, "commit")
        stage.close(glue)
        assert stage.permanent(p) == 11
        stage.finish()


def test_a_effects_not_recovered_if_b_fails(runtime):
    """§3.2: 'The effects of A on P should not be recovered if B fails.'"""
    p = Counter(runtime, value=0)
    glue = GluedGroup(runtime, name="g")
    with glue.member(name="A") as m:
        p.increment(1, action=m.action)
        m.hand_over(p)
    with pytest.raises(RuntimeError):
        with glue.member(name="B") as m2:
            p.increment(100, action=m2.action)
            raise RuntimeError("B fails")
    glue.close()
    assert p.value == 1  # A's effect intact, B's undone


def test_group_cancel_preserves_committed_members(runtime):
    for stage in stages(runtime):
        p = stage.counter()
        glue = stage.glued("g")
        a = stage.member(glue, "A")
        stage.increment(a, p)
        stage.hand_over(glue, a, p)
        stage.end(a, "commit")
        stage.cancel(glue)
        assert stage.value(p) == stage.permanent(p) == 1
        # pin dropped: outsiders may now lock it
        assert stage.lockable(p, LockMode.WRITE)
        stage.finish()


def test_group_cancel_aborts_active_member(runtime):
    for stage in stages(runtime):
        p = stage.counter()
        glue = stage.glued("g")
        a = stage.member(glue, "A")
        stage.increment(a, p)
        stage.cancel(glue)
        assert a.status.value == "aborted"
        assert stage.value(p) == stage.permanent(p) == 0
        stage.finish()


def test_group_cancel_inside_member_block(runtime):
    """The local calling convention: a member's ``with`` block that finds
    its action already aborted (the group was cancelled) just reports it."""
    p = Counter(runtime, value=0)
    glue = GluedGroup(runtime, name="g")
    member = glue.member(name="A")
    with member as m:
        assert m is member
        p.increment(1, action=m.action)
        glue.cancel()
    assert member.action.status.value == "aborted"
    assert member.outcome.value == "aborted"
    assert p.value == 0


def test_concurrent_glued_members_fig6(runtime):
    """Fig. 6(a): several members glued under one control concurrently."""
    objects = [Counter(runtime, value=0) for _ in range(3)]
    shared_pin = Counter(runtime, value=0)
    glue = GluedGroup(runtime, name="g")
    scopes = [glue.member(name=f"A{i}") for i in range(3)]
    members = [scope.__enter__() for scope in scopes]
    for i, member in enumerate(members):
        objects[i].increment(i + 1, action=member.action)
    members[0].hand_over(shared_pin)
    for scope in scopes:
        scope.__exit__(None, None, None)
    with glue.member(name="B") as b:
        assert shared_pin.get(action=b.action) == 0
    glue.close()
    assert [o.value for o in objects] == [1, 2, 3]


def test_chain_of_glued_members_fig9_style(runtime):
    """I1 -> I2 -> ... -> In, shrinking the pinned set each round."""
    slots = [Counter(runtime, value=0) for _ in range(4)]
    glue = GluedGroup(runtime, name="rounds")
    survivors = list(slots)
    round_no = 0
    while len(survivors) > 1:
        round_no += 1
        with glue.member(name=f"I{round_no}") as m:
            for slot in survivors:
                slot.increment(1, action=m.action)
            survivors = survivors[:-1]          # narrow the choice
            m.hand_over(*survivors)             # keep only survivors pinned
    glue.close()
    assert [s.value for s in slots] == [3, 3, 2, 1]


def test_pin_passes_through_multiple_members(runtime):
    p = Counter(runtime, value=0)
    glue = GluedGroup(runtime, name="g")
    for i in range(3):
        with glue.member(name=f"I{i}") as m:
            p.increment(1, action=m.action)
            m.hand_over(p)
    glue.close()
    assert p.value == 3


def test_member_abort_releases_its_pins(runtime):
    """An aborted member's ER pins are discarded with its other locks."""
    p = Counter(runtime, value=0)
    glue = GluedGroup(runtime, name="g")
    with pytest.raises(RuntimeError):
        with glue.member(name="A") as m:
            p.increment(1, action=m.action)
            m.hand_over(p)
            raise RuntimeError("A fails before handing over")
    with runtime.top_level(name="bystander") as by:
        runtime.acquire(by, p, LockMode.WRITE, timeout=0.05)
        runtime.abort_action(by)
    glue.close()
    assert p.value == 0

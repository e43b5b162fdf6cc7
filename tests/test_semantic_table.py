"""Direct unit tests of the LockTable under SemanticRules (group grants, FIFO, transfer)."""

from repro.colours.colour import Colour
from repro.locking.owner import StubOwner
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.semantic import SemanticRules, SemanticSpec
from repro.locking.table import LockTable
from repro.util.uid import UidGenerator

auids = UidGenerator("a")
cuids = UidGenerator("c")
ouids = UidGenerator("o")
ruids = UidGenerator("r")

RED = Colour(cuids.fresh(), "red")
BLUE = Colour(cuids.fresh(), "blue")

SPEC = SemanticSpec.build(
    groups={"observe", "update", "admin"},
    compatible_pairs=[("observe", "observe"), ("update", "update")],
)


def owner(path_owners=(), colours=(RED, BLUE)):
    uid = auids.fresh()
    path = tuple(p.uid for p in path_owners) + (uid,)
    return StubOwner(uid=uid, path=path, colours=frozenset(colours))


def request(req_owner, group, colour=RED):
    return LockRequest(ruids.fresh(), req_owner, ouids.fresh(), group, colour)


def table():
    return LockTable(ouids.fresh(), SemanticRules(SPEC))


def test_compatible_groups_granted_concurrently():
    t = table()
    r1, r2 = request(owner(), "update"), request(owner(), "update")
    t.request(r1)
    t.request(r2)
    assert r1.status is RequestStatus.GRANTED
    assert r2.status is RequestStatus.GRANTED
    assert len(t.holders) == 2


def test_incompatible_groups_queue():
    t = table()
    t.request(request(owner(), "update"))
    blocked = request(owner(), "observe")
    t.request(blocked)
    assert blocked.status is RequestStatus.PENDING


def test_ancestry_overrides_incompatibility():
    t = table()
    parent = owner()
    child = owner(path_owners=(parent,))
    t.request(request(parent, "update"))
    r = request(child, "observe")
    t.request(r)
    assert r.status is RequestStatus.GRANTED


def test_admin_conflicts_with_everything_even_itself():
    t = table()
    t.request(request(owner(), "admin"))
    for group in ("admin", "observe", "update"):
        r = request(owner(), group)
        t.request(r)
        assert r.status is RequestStatus.PENDING, group


def test_unknown_group_refused():
    t = table()
    r = request(owner(), "ghost")
    t.request(r)
    assert r.status is RequestStatus.REFUSED


def test_foreign_colour_refused():
    t = table()
    lone = owner(colours=(RED,))
    r = request(lone, "update", colour=BLUE)
    t.request(r)
    assert r.status is RequestStatus.REFUSED


def test_reentrant_grant_keeps_one_record():
    t = table()
    me = owner()
    t.request(request(me, "update"))
    t.request(request(me, "update"))
    assert len(t.records_of(me.uid)) == 1


def test_queued_reentrant_requests_wake_into_one_record():
    """Two queued requests of one owner for one group and colour, released
    together, are one grant of the group: one record, not one per wake."""
    t = table()
    holder, me = owner(), owner()
    t.request(request(holder, "admin"))
    queued = [request(me, "update"), request(me, "update")]
    for r in queued:
        t.request(r)
    t.route(holder.uid, lambda colour: None, withdrawn=True)
    assert all(r.status is RequestStatus.GRANTED for r in queued)
    assert [r.describe() for r in t.holders] == [f"{me.uid}:update:red"]


def test_release_wakes_fifo():
    t = table()
    holder = owner()
    t.request(request(holder, "admin"))
    w1 = request(owner(), "update")
    w2 = request(owner(), "update")
    t.request(w1)
    t.request(w2)
    t.route(holder.uid, lambda colour: None, withdrawn=True)
    assert w1.status is RequestStatus.GRANTED
    assert w2.status is RequestStatus.GRANTED  # update/update compatible


def test_fifo_no_overtaking_of_incompatible_front():
    t = table()
    t.request(request(owner(), "update"))
    front = request(owner(), "observe")   # blocked
    t.request(front)
    late = request(owner(), "update")     # would be compatible, but FIFO
    t.request(late)
    assert late.status is RequestStatus.PENDING


def test_transfer_routes_by_colour_and_merges_counts():
    t = table()
    parent = owner(colours=(RED,))
    child = owner(path_owners=(parent,), colours=(RED, BLUE))
    r_red = request(child, "update", colour=RED)
    r_blue = request(child, "update", colour=BLUE)
    t.request(r_red)
    t.request(r_blue)
    routed = t.route(child.uid,
                     lambda colour: parent if colour == RED else None)
    assert routed == [parent, None]   # per record, in holder order
    records = t.records_of(parent.uid)
    assert len(records) == 1 and records[0].colour == RED


def test_blocked_on_reports_blockers_and_fifo_predecessors():
    t = table()
    holder = owner()
    t.request(request(holder, "admin"))
    first = request(owner(), "update")
    second = request(owner(), "update")
    t.request(first)
    t.request(second)
    assert t.blocked_on(first) == [holder.uid]
    assert set(t.blocked_on(second)) == {holder.uid, first.owner.uid}


def test_cancel_owner_and_idle():
    t = table()
    holder = owner()
    t.request(request(holder, "admin"))
    waiter = owner()
    t.request(request(waiter, "update"))
    assert t.cancel_owner(waiter.uid, "abort") == 1
    t.route(holder.uid, lambda colour: None, withdrawn=True)
    assert t.is_idle()

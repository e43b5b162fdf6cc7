"""LockTable: grants, FIFO queueing, upgrades, termination routing."""

from repro.colours.colour import Colour
from repro.locking.modes import LockMode
from repro.locking.owner import StubOwner
from repro.locking.request import LockRequest, RequestStatus
from repro.locking.rules import ColouredRules
from repro.locking.semantic import SemanticRules, SemanticSpec
from repro.locking.table import KEEP, LockTable
from repro.util.uid import UidGenerator

auids = UidGenerator("a")
cuids = UidGenerator("colour")
ouids = UidGenerator("obj")
ruids = UidGenerator("req")

RED = Colour(cuids.fresh(), "red")
BLUE = Colour(cuids.fresh(), "blue")


def owner(path_owners=(), colours=(RED, BLUE)):
    uid = auids.fresh()
    path = tuple(p.uid for p in path_owners) + (uid,)
    return StubOwner(uid=uid, path=path, colours=frozenset(colours))


def make_request(req_owner, mode, colour=RED):
    return LockRequest(ruids.fresh(), req_owner, ouids.fresh(), mode, colour)


def fresh_table():
    return LockTable(ouids.fresh(), ColouredRules())


#: The queue is the table's own code, whatever the rule set: its cases run
#: under each, given a mode that shares with itself and one that excludes
#: every other holder.
RULE_SETS = [
    (ColouredRules(), LockMode.READ, LockMode.WRITE),
    (SemanticRules(SemanticSpec.build(
        groups={"shared", "exclusive"},
        compatible_pairs=[("shared", "shared")])), "shared", "exclusive"),
]


def under_each_rule_set(case):
    """Run ``case(table, shared, exclusive)`` once per rule set.  A loop
    rather than ``parametrize``, so the cases keep their test ids."""
    def test():
        for rules, shared, exclusive in RULE_SETS:
            case(LockTable(ouids.fresh(), rules), shared, exclusive)
    test.__name__ = case.__name__
    test.__doc__ = case.__doc__
    return test


def test_grant_on_unlocked_object():
    table = fresh_table()
    req = make_request(owner(), LockMode.WRITE)
    table.request(req)
    assert req.status is RequestStatus.GRANTED
    assert len(table.holders) == 1


@under_each_rule_set
def test_conflicting_request_queues(table, shared, exclusive):
    table.request(make_request(owner(), exclusive))
    blocked = make_request(owner(), exclusive)
    table.request(blocked)
    assert blocked.status is RequestStatus.PENDING
    assert len(table.queue) == 1


@under_each_rule_set
def test_release_wakes_fifo_in_order(table, shared, exclusive):
    first = owner()
    req = make_request(first, exclusive)
    table.request(req)
    waiters = [make_request(owner(), exclusive) for _ in range(3)]
    for waiter in waiters:
        table.request(waiter)
    table.route(first.uid, lambda colour: None, withdrawn=True)
    # only the front writer is granted; the rest stay FIFO
    assert waiters[0].status is RequestStatus.GRANTED
    assert waiters[1].status is RequestStatus.PENDING


@under_each_rule_set
def test_readers_granted_together_on_release(table, shared, exclusive):
    writer = owner()
    table.request(make_request(writer, exclusive))
    readers = [make_request(owner(), shared) for _ in range(3)]
    for reader in readers:
        table.request(reader)
    table.route(writer.uid, lambda colour: None, withdrawn=True)
    assert all(r.status is RequestStatus.GRANTED for r in readers)


@under_each_rule_set
def test_strict_fifo_no_reader_overtaking(table, shared, exclusive):
    """A read compatible with holders still queues behind an earlier writer."""
    reader_holder = owner()
    table.request(make_request(reader_holder, shared))
    blocked_writer = make_request(owner(), exclusive)
    table.request(blocked_writer)
    late_reader = make_request(owner(), shared)
    table.request(late_reader)
    assert late_reader.status is RequestStatus.PENDING


@under_each_rule_set
def test_granted_request_has_left_the_queue_when_its_callback_runs(
        table, shared, exclusive):
    """A completion callback re-enters the table (companion locks, the
    operation body, the next redo lock): whether ``request`` or a wake-up
    granted it, it must not find its own settled request still queued."""
    holder, me = owner(), owner()
    queued_at_grant = []

    def settled(request):
        queued_at_grant.append(request in table.queue)
        # the companion lock: granted past the queue, its owner holds here
        companion = make_request(me, shared, colour=BLUE)
        table.request(companion)
        assert companion.status is RequestStatus.GRANTED

    immediate = make_request(me, exclusive)
    immediate.on_complete = settled
    table.request(immediate)            # granted by request()
    table.route(me.uid, lambda colour: None, withdrawn=True)
    table.request(make_request(holder, exclusive))
    woken = make_request(me, exclusive)
    woken.on_complete = settled
    table.request(woken)
    behind = make_request(owner(), shared)
    table.request(behind)
    # `woken` is granted by the wake-up
    table.route(holder.uid, lambda colour: None, withdrawn=True)
    assert immediate.status is woken.status is RequestStatus.GRANTED
    assert queued_at_grant == [False, False]
    assert list(table.queue) == [behind]
    assert len(table.records_of(me.uid)) == 2


def test_holder_upgrade_jumps_queue_when_rules_allow():
    """An existing holder's upgrade is a continuation, not a new access."""
    table = fresh_table()
    holder = owner()
    table.request(make_request(holder, LockMode.READ))
    stranger_write = make_request(owner(), LockMode.WRITE)
    table.request(stranger_write)  # queues behind holder's READ
    upgrade = make_request(holder, LockMode.WRITE)
    table.request(upgrade)
    assert upgrade.status is RequestStatus.GRANTED
    records = table.records_of(holder.uid)
    assert len(records) == 1 and records[0].mode is LockMode.WRITE


def test_idempotent_reacquisition_granted_without_new_record():
    table = fresh_table()
    holder = owner()
    table.request(make_request(holder, LockMode.WRITE))
    again = make_request(holder, LockMode.READ)  # weaker, same colour
    table.request(again)
    assert again.status is RequestStatus.GRANTED
    assert len(table.records_of(holder.uid)) == 1


def test_reacquisition_waits_for_a_childs_write():
    """A parent's READ is no licence past its child's WRITE (§5.2: READ
    only if every holder holds READ or is an ancestor)."""
    table = fresh_table()
    parent = owner(colours=(RED,))
    child = owner(path_owners=(parent,), colours=(RED,))
    table.request(make_request(parent, LockMode.READ))
    table.request(make_request(child, LockMode.WRITE))
    again = make_request(parent, LockMode.READ)
    table.request(again)
    assert again.status is RequestStatus.PENDING
    table.route(child.uid, lambda colour: parent)
    assert again.status is RequestStatus.GRANTED
    records = table.records_of(parent.uid)
    assert len(records) == 1 and records[0].mode is LockMode.WRITE


def test_same_owner_different_colours_two_records():
    table = fresh_table()
    holder = owner(colours=(RED, BLUE))
    r1 = make_request(holder, LockMode.WRITE, colour=RED)
    table.request(r1)
    r2 = make_request(holder, LockMode.EXCLUSIVE_READ, colour=BLUE)
    table.request(r2)
    assert r2.status is RequestStatus.GRANTED
    assert len(table.records_of(holder.uid)) == 2


def test_rule_violation_refused_not_queued():
    table = fresh_table()
    req = make_request(owner(colours=(RED,)), LockMode.WRITE, colour=BLUE)
    table.request(req)
    assert req.status is RequestStatus.REFUSED
    assert not table.queue


@under_each_rule_set
def test_cancel_removes_from_queue_and_wakes(table, shared, exclusive):
    holder = owner()
    table.request(make_request(holder, exclusive))
    doomed = make_request(owner(), exclusive)
    table.request(doomed)
    behind = make_request(owner(), shared)
    table.request(behind)
    assert table.cancel(doomed.request_uid)
    assert doomed.status is RequestStatus.CANCELLED
    table.route(holder.uid, lambda colour: None, withdrawn=True)
    assert behind.status is RequestStatus.GRANTED


@under_each_rule_set
def test_cancel_owner_cancels_all_their_requests(table, shared, exclusive):
    table.request(make_request(owner(), exclusive))
    victim = owner()
    reqs = [make_request(victim, exclusive) for _ in range(2)]
    for req in reqs:
        table.request(req)
    assert table.cancel_owner(victim.uid, "abort") == 2
    assert all(r.status is RequestStatus.CANCELLED for r in reqs)


def test_transfer_routes_by_colour():
    """Commit: red released (outermost), blue inherited by the ancestor.

    The fig. 11 pattern: WRITE in the data colour plus EXCLUSIVE_READ in
    the control colour (a second WRITE in another colour would rightly be
    refused — write responsibility must be single-coloured).
    """
    table = fresh_table()
    parent = owner(colours=(BLUE,))
    child = owner(path_owners=(parent,), colours=(RED, BLUE))
    table.request(make_request(child, LockMode.WRITE, colour=RED))
    table.request(make_request(child, LockMode.EXCLUSIVE_READ, colour=BLUE))

    def router(colour):
        return parent if colour == BLUE else None

    routed = table.route(child.uid, router)
    assert routed == [None, parent]   # per record, in holder order
    assert not table.records_of(child.uid)
    parent_records = table.records_of(parent.uid)
    assert len(parent_records) == 1 and parent_records[0].colour == BLUE


def test_transfer_merges_with_parent_keeping_stronger_mode():
    table = fresh_table()
    parent = owner(colours=(BLUE,))
    child = owner(path_owners=(parent,), colours=(BLUE,))
    table.request(make_request(parent, LockMode.READ, colour=BLUE))
    table.request(make_request(child, LockMode.WRITE, colour=BLUE))
    table.route(child.uid, lambda colour: parent)
    records = table.records_of(parent.uid)
    assert len(records) == 1 and records[0].mode is LockMode.WRITE


def test_transfer_wakes_waiters_for_released_colour():
    table = fresh_table()
    child = owner(colours=(RED,))
    table.request(make_request(child, LockMode.WRITE, colour=RED))
    waiter = make_request(owner(), LockMode.WRITE, colour=RED)
    table.request(waiter)
    table.route(child.uid, lambda colour: None)  # outermost: release
    assert waiter.status is RequestStatus.GRANTED


def test_route_keeps_what_the_router_keeps_and_counts_only_withdrawals():
    """The vote-time release of one colour: RED goes, BLUE (KEEP) stays the
    same record; neither it nor a commit counts as a withdrawal, an abort
    counts each record it drops."""
    table = fresh_table()
    holder = owner(colours=(RED, BLUE))
    table.request(make_request(holder, LockMode.WRITE, colour=RED))
    table.request(make_request(holder, LockMode.EXCLUSIVE_READ, colour=BLUE))
    kept = table.records_of(holder.uid)[1]
    waiter = make_request(owner(), LockMode.READ, colour=RED)
    table.request(waiter)
    assert table.route(holder.uid, lambda colour: KEEP) == [KEEP, KEEP]
    assert waiter.status is RequestStatus.PENDING
    routed = table.route(holder.uid,
                         lambda colour: None if colour == RED else KEEP)
    assert routed == [None, KEEP]
    [left] = table.records_of(holder.uid)
    assert left is kept
    assert waiter.status is RequestStatus.PENDING   # BLUE's EXCLUSIVE_READ
    assert table.withdrawals == 0
    assert table.route(holder.uid, lambda colour: None, withdrawn=True) == [None]
    assert waiter.status is RequestStatus.GRANTED
    assert table.withdrawals == 1


def test_abort_release_keeps_ancestor_locks():
    table = fresh_table()
    parent = owner(colours=(RED,))
    child = owner(path_owners=(parent,), colours=(RED,))
    table.request(make_request(parent, LockMode.WRITE, colour=RED))
    table.request(make_request(child, LockMode.WRITE, colour=RED))
    table.route(child.uid, lambda colour: None, withdrawn=True)
    assert table.records_of(parent.uid)
    stranger = make_request(owner(), LockMode.WRITE, colour=RED)
    table.request(stranger)
    assert stranger.status is RequestStatus.PENDING  # parent still holds


@under_each_rule_set
def test_blocked_on_lists_blockers_and_queue_predecessors(
        table, shared, exclusive):
    holder = owner()
    table.request(make_request(holder, exclusive))
    first = make_request(owner(), exclusive)
    second = make_request(owner(), exclusive)
    table.request(first)
    table.request(second)
    assert table.blocked_on(first) == [holder.uid]
    assert set(table.blocked_on(second)) == {holder.uid, first.owner.uid}


@under_each_rule_set
def test_is_idle_after_full_release(table, shared, exclusive):
    holder = owner()
    table.request(make_request(holder, exclusive))
    table.route(holder.uid, lambda colour: None, withdrawn=True)
    assert table.is_idle()

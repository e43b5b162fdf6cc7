"""Property-based tests on the lock table's safety invariants.

Hypothesis generates random operation sequences (requests, commits with
per-colour routing, aborts, cancellations, vote-time releases of one
colour) over a small universe of
actions/objects/colours, and after every step the table must satisfy the
conflict-freedom invariants of §5.2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colours.colour import Colour
from repro.locking.lock import LockRecord
from repro.locking.modes import LockMode
from repro.locking.owner import StubOwner, is_ancestor
from repro.locking.registry import LockRegistry
from repro.locking.rules import ColouredRules
from repro.util.uid import UidGenerator


def build_world():
    """A fixed small action forest: two trees of three actions each."""
    auids = UidGenerator("a")
    cuids = UidGenerator("c")
    colours = [Colour(cuids.fresh(), name) for name in ("red", "blue")]

    def make(parent=None, palette=None):
        uid = auids.fresh()
        path = (parent.path if parent else ()) + (uid,)
        return StubOwner(uid=uid, path=path,
                         colours=frozenset(palette or colours))

    owners = []
    for _ in range(2):
        root = make()
        child = make(parent=root)
        grandchild = make(parent=child)
        owners.extend([root, child, grandchild])
    return owners, colours


OWNERS, COLOURS = build_world()
OUIDS = [UidGenerator("obj").fresh() for _ in range(1)]  # placeholder


def check_invariants(table):
    """The §5.2 safety conditions over the granted records."""
    holders = table.holders
    for record in holders:
        for other in holders:
            if record is other:
                continue
            related = (is_ancestor(record.owner, other.owner)
                       or is_ancestor(other.owner, record.owner))
            if record.mode is LockMode.WRITE and other.mode is LockMode.WRITE:
                # concurrent writes only within one ancestry chain, and in
                # one colour
                assert related, "write/write between strangers"
                assert record.colour == other.colour, \
                    "write locks in two colours"
            elif LockMode.WRITE in (record.mode, other.mode) or \
                    LockMode.EXCLUSIVE_READ in (record.mode, other.mode):
                assert related, "exclusive lock shared with a stranger"
    # no owner holds two records of the same colour (they merge)
    seen = set()
    for record in holders:
        key = (record.owner.uid, record.colour)
        assert key not in seen, "duplicate (owner, colour) record"
        seen.add(key)


ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "abort", "commit_release", "commit_up",
                         "cancel_owner", "vote"]),
        st.integers(0, len(OWNERS) - 1),          # owner index
        st.sampled_from([m for m in LockMode]),   # mode
        st.integers(0, 1),                        # colour index
    ),
    min_size=1, max_size=60,
)

#: the steps that may count in ``LockTable.withdrawals``
WITHDRAWING = ("abort", "cancel_owner")


def parent_of(owner):
    parent_uid = owner.path[-2] if len(owner.path) > 1 else None
    return next((o for o in OWNERS if o.uid == parent_uid), None)


def step(registry, obj_uid, op, owner, mode, colour, up, on_complete=None):
    """Apply one operation; ``up`` is where ``commit_up`` routes every
    colour.  Then check what it did to the table's withdrawals and, for a
    vote (the commute path's release of one colour), to the owner's
    records in its other colours."""
    before = registry._tables.get(obj_uid)
    counted = before.withdrawals if before is not None else 0
    others = [record for record in before.records_of(owner.uid)
              if record.colour != colour] if before is not None else []
    if op == "request":
        registry.request(owner, obj_uid, mode, colour, on_complete)
    elif op == "abort":
        registry.release_action(owner.uid)
    elif op == "cancel_owner":
        registry.cancel_waiting(owner.uid, "test")
    elif op == "commit_release":
        registry.transfer_on_commit(owner.uid, lambda c: None)
    elif op == "commit_up":
        registry.transfer_on_commit(owner.uid, lambda c: up)
    else:
        registry.release_colour(owner.uid, colour, reason="test")
    table = before if before is not None else registry._tables.get(obj_uid)
    if table is not None and op not in WITHDRAWING:
        assert table.withdrawals == counted, op
    if op == "vote":
        live = registry._tables.get(obj_uid)
        assert all(record.owner is owner
                   and any(record is held for held in live.holders)
                   for record in others)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_table_never_grants_conflicting_locks(operations):
    registry = LockRegistry(ColouredRules())
    obj_uid = UidGenerator("obj").fresh()
    for op, owner_index, mode, colour_index in operations:
        owner = OWNERS[owner_index]
        # commit_up routes every colour to the owner's parent, if any
        step(registry, obj_uid, op, owner, mode, COLOURS[colour_index],
             parent_of(owner))
        live_table = registry._tables.get(obj_uid)
        if live_table is not None:
            check_invariants(live_table)


@settings(max_examples=100, deadline=None)
@given(ops)
def test_granted_plus_queued_requests_conserved(operations):
    """Every request eventually ends in exactly one terminal state (granted
    record, queued, or settled negatively) — none vanish silently."""
    registry = LockRegistry(ColouredRules())
    obj_uid = UidGenerator("obj").fresh()
    outcomes = []
    submitted = 0
    for op, owner_index, mode, colour_index in operations:
        submitted += op == "request"
        step(registry, obj_uid, op, OWNERS[owner_index], mode,
             COLOURS[colour_index], None,
             on_complete=lambda r: outcomes.append(r.status))
    table = registry._tables.get(obj_uid)
    still_queued = len(table.queue) if table is not None else 0
    assert len(outcomes) + still_queued == submitted

"""Property: the semantic table enforces ANY compatibility relation.

Hypothesis generates random specs (random group sets and random
compatibility pairs) and random request/release schedules; the safety
invariant is spec-independent: any two granted records held by
*non-ancestor* actions must be pairwise compatible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colours.colour import Colour
from repro.locking.owner import StubOwner, is_ancestor
from repro.locking.request import LockRequest
from repro.locking.semantic import SemanticRules, SemanticSpec
from repro.locking.table import LockTable
from repro.util.uid import UidGenerator

GROUPS = ["g0", "g1", "g2", "g3"]
ALL_PAIRS = [(a, b) for i, a in enumerate(GROUPS) for b in GROUPS[i:]]


def build_world():
    auids = UidGenerator("a")
    colour = Colour(UidGenerator("c").fresh(), "only")

    def make(parent=None):
        uid = auids.fresh()
        path = (parent.path if parent else ()) + (uid,)
        return StubOwner(uid=uid, path=path, colours=frozenset((colour,)))

    owners = []
    for _ in range(2):
        root = make()
        owners.extend([root, make(parent=root)])
    return owners, colour


specs = st.sets(st.sampled_from(ALL_PAIRS)).map(
    lambda pairs: SemanticSpec.build(groups=GROUPS, compatible_pairs=pairs)
)
schedules = st.lists(
    st.tuples(
        st.sampled_from(["request", "release", "transfer"]),
        st.integers(0, 3),                    # owner index
        st.sampled_from(GROUPS),
    ),
    min_size=1, max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(specs, schedules)
def test_granted_holders_always_pairwise_compatible(spec, schedule):
    owners, colour = build_world()
    ruids = UidGenerator("r")
    table = LockTable(UidGenerator("o").fresh(), SemanticRules(spec))
    for op, owner_index, group in schedule:
        owner = owners[owner_index]
        if op == "request":
            table.request(LockRequest(
                ruids.fresh(), owner, table.object_uid, group, colour,
            ))
        elif op == "release":
            table.route(owner.uid, lambda colour: None, withdrawn=True)
        else:
            parent_uid = owner.path[-2] if len(owner.path) > 1 else None
            parent = next((o for o in owners if o.uid == parent_uid), None)
            table.route(owner.uid, lambda c: parent)
        # invariants after every step
        keys = [(record.owner.uid, record.colour, record.mode)
                for record in table.holders]
        assert len(keys) == len(set(keys)), keys  # one record per group
        for record in table.holders:
            for other in table.holders:
                if record is other:
                    continue
                related = (is_ancestor(record.owner, other.owner)
                           or is_ancestor(other.owner, record.owner))
                if not related:
                    assert spec.is_compatible(record.mode, other.mode), (
                        record.describe(), other.describe(),
                    )


@settings(max_examples=100, deadline=None)
@given(specs, schedules)
def test_requests_always_settle_or_queue(spec, schedule):
    """No request vanishes: it is granted, refused, or sits in the queue."""
    owners, colour = build_world()
    ruids = UidGenerator("r")
    table = LockTable(UidGenerator("o").fresh(), SemanticRules(spec))
    outcomes = []
    submitted = 0
    for op, owner_index, group in schedule:
        owner = owners[owner_index]
        if op == "request":
            submitted += 1
            request = LockRequest(
                ruids.fresh(), owner, table.object_uid, group, colour,
                on_complete=lambda r: outcomes.append(r.status),
            )
            table.request(request)
        elif op == "release":
            table.route(owner.uid, lambda colour: None, withdrawn=True)
        else:
            table.route(owner.uid, lambda c: None)
    assert len(outcomes) + len(table.queue) == submitted

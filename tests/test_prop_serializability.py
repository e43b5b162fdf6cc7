"""Serializability / atomicity under randomly interleaved transactions.

Hypothesis generates a set of transactions (each a list of counter
increments, possibly ending in an abort) and a random interleaving.  Each
step tries to advance one transaction by one operation, using try-lock
semantics (an unavailable lock requeues the transaction).  At the end,
every counter must equal the sum of increments of exactly the *committed*
transactions — two-phase locking plus undo must mask all interleavings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions.action import Action
from repro.locking.modes import LockMode
from repro.runtime.runtime import LocalRuntime
from repro.stdobjects import Counter

N_OBJECTS = 3

transactions = st.lists(          # each txn: ([(obj, delta)...], aborts?)
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, N_OBJECTS - 1), st.integers(-5, 5)),
            min_size=1, max_size=4,
        ),
        st.booleans(),
    ),
    min_size=1, max_size=5,
)
schedules = st.lists(st.integers(0, 9), min_size=1, max_size=120)


def drain(live):
    """Round-robin the remaining transactions; abort one on livelock.

    Try-locking transactions can cycle (each holding what another wants);
    when a whole round makes no progress, the youngest running transaction
    aborts — the same victim policy the deadlock detector uses.
    """
    while any(t.state == "running" for t in live):
        progressed = False
        for txn in live:
            if txn.state != "running":
                continue
            before = (txn.cursor, txn.state)
            txn.step()
            if (txn.cursor, txn.state) != before:
                progressed = True
        if not progressed:
            victim = max(
                (t for t in live if t.state == "running"),
                key=lambda t: t.action.uid,
            )
            victim.action.abort()
            victim.state = "aborted"


def try_write(runtime, action, obj, colour):
    """Non-blocking acquire: True if granted now, False to retry later."""
    granted = {"ok": False}

    def complete(request):
        granted["ok"] = request.status.value == "granted"

    request = runtime.locks.request(action, obj.uid, LockMode.WRITE,
                                    colour, complete)
    if not request.settled:
        runtime.locks.cancel_request(request, "try-lock")
        return False
    if granted["ok"]:
        action.record_write(obj, colour)
    return granted["ok"]


@settings(max_examples=120, deadline=None)
@given(transactions, schedules)
def test_committed_transactions_apply_atomically(txns, schedule):
    runtime = LocalRuntime()
    counters = [Counter(runtime, value=0) for _ in range(N_OBJECTS)]

    class Txn:
        def __init__(self, index, ops, aborts):
            self.ops = list(ops)
            self.aborts = aborts
            self.cursor = 0
            self.action = Action(
                runtime, [runtime.colours.fresh(f"t{index}")],
                name=f"txn{index}",
            )
            self.state = "running"

        def step(self):
            if self.state != "running":
                return
            if self.cursor == len(self.ops):
                if self.aborts:
                    self.action.abort()
                    self.state = "aborted"
                else:
                    self.action.commit()
                    self.state = "committed"
                return
            obj_index, delta = self.ops[self.cursor]
            obj = counters[obj_index]
            if try_write(runtime, self.action, obj,
                         self.action.single_colour()):
                obj.value += delta
                self.cursor += 1

    live = [Txn(i, ops, aborts) for i, (ops, aborts) in enumerate(txns)]
    for pick in schedule:
        live[pick % len(live)].step()
    drain(live)

    expected = [0] * N_OBJECTS
    for txn in live:
        assert txn.state in ("committed", "aborted")
        if txn.state == "committed":
            for obj_index, delta in txn.ops:
                expected[obj_index] += delta
    assert [c.value for c in counters] == expected


@settings(max_examples=80, deadline=None)
@given(transactions, schedules)
def test_stable_store_reflects_only_committed_state(txns, schedule):
    runtime = LocalRuntime()
    counters = [Counter(runtime, value=0) for _ in range(N_OBJECTS)]

    class Txn:
        def __init__(self, index, ops, aborts):
            self.ops = list(ops)
            self.aborts = aborts
            self.cursor = 0
            self.action = Action(
                runtime, [runtime.colours.fresh(f"t{index}")],
                name=f"txn{index}",
            )
            self.state = "running"

        def step(self):
            if self.state != "running":
                return
            if self.cursor == len(self.ops):
                if self.aborts:
                    self.action.abort()
                    self.state = "aborted"
                else:
                    self.action.commit()
                    self.state = "committed"
                return
            obj_index, delta = self.ops[self.cursor]
            obj = counters[obj_index]
            if try_write(runtime, self.action, obj,
                         self.action.single_colour()):
                obj.value += delta
                self.cursor += 1

    live = [Txn(i, ops, aborts) for i, (ops, aborts) in enumerate(txns)]
    for pick in schedule:
        live[pick % len(live)].step()
    drain(live)
    # the stable store agrees with the live objects everywhere
    for counter in counters:
        stored = runtime.store.read_committed(counter.uid)
        assert stored.payload == counter.snapshot()

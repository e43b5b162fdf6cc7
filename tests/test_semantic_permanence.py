"""One permanence rule for semantic objects, on every path and runtime.

A colour that commits makes a semantic object permanent as its committed
state ⊕ the colour's own operations, never as an image of the live
instance: the live instance also holds other actions' pending compatible
effects.  The live instance is never overwritten from the store either;
only the operations' ``committed`` hooks run on it.  These runs lost
committed adds, or leaked uncommitted ones, while the classic path and
the local runtime wrote live images.
"""

import random

import pytest

from repro.backend import AsyncioKernel
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout
from repro.stdobjects.commuting import CommutingCounter
from repro.stdobjects.escrow import EscrowAccount
from tests.oracle import FIXED, Over, cluster_of, committed_int, on_both_backends


def stable_int(runtime, obj):
    payload = runtime.store.read_committed(obj.uid).payload
    return ObjectState.from_bytes(payload).unpack_int()


# -- cluster: colours that mix a commuting update with a plain one ------------

def mixed_colours(seed, backend=None):
    """Six workers x five actions, each adding 1 to a commuting counter on
    ``n1`` and on ``n2`` and incrementing a plain counter of its own, so
    no colour takes the commute path: every one commits by 2PC while
    other actions' adds are pending on the same counters."""
    cluster = cluster_of(("n0", "n1", "n2"), seed=seed, backend=backend,
                         lock_wait_timeout=40.0, commute=True)
    nodes = ("n0", "n1", "n2")
    shared, own, committed = [], {}, []

    def setup():
        client = cluster.client("n0")
        for host in ("n1", "n2"):
            shared.append((yield from client.create(
                host, "commuting_counter", value=0)))
        for worker in range(6):
            own[worker] = yield from client.create(
                nodes[worker % 3], "counter", value=0)

    cluster.run_process("n0", setup())

    def worker(worker_id):
        client = cluster.client(nodes[worker_id % 3], name=f"w{worker_id}")
        rng = random.Random(seed * 1000 + worker_id)
        for op in range(5):
            action = client.top_level(f"w{worker_id}.op{op}")
            try:
                for ref in shared:
                    yield from client.invoke(action, ref, "add", 1)
                yield from client.invoke(action, own[worker_id],
                                         "increment", 1)
                yield from client.commit(action)
                committed.append(action)
            except Exception:
                if not action.status.terminated:
                    yield from client.abort(action)
            yield Timeout(1.0 + rng.random())

    for worker_id in range(6):
        cluster.spawn(nodes[worker_id % 3], worker(worker_id),
                      name=f"worker{worker_id}")
    cluster.run()
    return cluster, shared, len(committed)


@pytest.mark.parametrize("seed", [37, 5])
def test_mixed_colours_lose_no_committed_add(seed):
    cluster, shared, committed = mixed_colours(seed)
    assert committed == 30
    for ref in shared:
        assert committed_int(cluster, ref) == committed
        assert cluster.servers[ref.node].objects[ref.uid].value == committed
    for name in ("n1", "n2"):
        cluster.crash(name)
        cluster.restart(name)
    cluster.run()
    assert [committed_int(cluster, ref) for ref in shared] == [committed] * 2
    assert cluster.obs.auditor.report() == []


@pytest.mark.parametrize("seed", [37, 5])
def test_mixed_colours_conserve_on_asyncio(seed):
    with AsyncioKernel(time_scale=0.002) as backend:
        cluster, shared, committed = mixed_colours(seed, backend)
        assert [committed_int(cluster, ref) for ref in shared] \
            == [committed] * 2
        assert cluster.obs.auditor.report() == []
        cluster.close()


@on_both_backends
def test_a_pending_debit_keeps_its_reservation_across_a_committing_credit(
        backend):
    """Classic 2PC (``commute=False``): C credits 5 to an account of 10
    and prepares; D debits 6 while C is prepared; C commits.  D's debit
    and its reservation stand — 9 live, 9 spendable — and once D commits
    too the stable balance is 9."""
    cluster = cluster_of(("coord", "other", "bank"), config=FIXED,
                         backend=backend, commute=False, fast_paths=False)
    client, other = cluster.client("coord"), cluster.client("other")
    holder = {}

    def debit():
        holder["d"] = other.top_level("d")
        yield from other.invoke(holder["d"], holder["ref"], "debit", 6)

    def while_prepared(message):
        # the bank's vote: D debits now, and the vote is held back long
        # enough for D's debit to land before C's decision
        if (message.src == "bank" and message.kind == "rpc_reply"
                and holder.pop("armed", False)):
            cluster.spawn("other", debit())
            return (4.0,)
        return None

    def app():
        holder["ref"] = ref = yield from client.create(
            "bank", "escrow_account", owner="E", balance=10)
        credit = client.top_level("c")
        yield from client.invoke(credit, ref, "credit", 5)
        Over(cluster.network, decide=while_prepared)
        holder["armed"] = True
        yield from client.commit(credit)
        yield Timeout(5.0)

    cluster.run_process("coord", app())
    live = cluster.servers["bank"].objects[holder["ref"].uid]
    assert (live.balance, live.escrow_available) == (9, 9)

    def finish():
        yield from other.commit(holder["d"])

    cluster.run_process("other", finish())
    cluster.run()
    stored = cluster.nodes["bank"].stable_store.read_committed(
        holder["ref"].uid)
    state = ObjectState.from_bytes(stored.payload)
    state.unpack_string()
    assert state.unpack_int() == 9
    assert (live.balance, live.escrow_available) == (9, 9)
    assert cluster.obs.auditor.report() == []
    cluster.close()


# -- the local runtime ------------------------------------------------------------

def test_local_commit_persists_only_its_own_adds(runtime):
    """A adds 1, B adds 10 and commits, A aborts: live and stable are 110."""
    counter = CommutingCounter(runtime, value=100)
    scope_a = runtime.top_level(name="A")
    a = scope_a.__enter__()
    counter.add(1, action=a)
    with runtime.top_level(name="B") as b:
        counter.add(10, action=b)
    runtime.abort_action(a)
    scope_a.__exit__(None, None, None)
    assert counter.value == 110
    assert stable_int(runtime, counter) == 110


def test_local_nested_add_is_made_permanent_by_its_parent(runtime):
    """A child's add bequeathed to its parent is merged at the parent's
    commit; an outsider's pending add, later aborted, is not."""
    counter = CommutingCounter(runtime, value=0)
    outsider_scope = runtime.top_level(name="O")
    outsider = outsider_scope.__enter__()
    counter.add(5, action=outsider)
    with runtime.top_level(name="P") as parent:
        with runtime.atomic(parent=parent) as child:
            counter.add(2, action=child)
        counter.add(1, action=parent)
    assert stable_int(runtime, counter) == 3
    runtime.abort_action(outsider)
    outsider_scope.__exit__(None, None, None)
    assert counter.value == 3
    assert stable_int(runtime, counter) == 3


def test_local_committed_credit_becomes_spendable(runtime):
    """The credit's ``committed`` hook runs at the local commit too."""
    account = EscrowAccount(runtime, owner="E", balance=0)
    with runtime.top_level():
        account.credit(10)
    with runtime.top_level():
        account.debit(5)
    assert (account.balance, account.escrow_available) == (5, 5)
    stored = ObjectState.from_bytes(
        runtime.store.read_committed(account.uid).payload)
    stored.unpack_string()
    assert stored.unpack_int() == 5



# -- a crash between a stage and its record -------------------------------------

@on_both_backends
def test_an_unrecorded_stage_is_not_promoted_for_a_later_commit(backend):
    """Classic 2PC: A adds 1 to a commuting counter and prepares; C adds
    10 and commits (its ``committed`` record is the later one on the
    object); then A's decision stages committed ⊕ add(1) and the node
    crashes before A's ``committed`` record.  Recovery must not redo C's
    promotion with A's staged image: A is in doubt and stages again once
    resolved, so the counter ends at 11, each add counted once."""
    cluster = cluster_of(("coord", "other", "p"), config=FIXED,
                         backend=backend, commute=False, fast_paths=False)
    client, other = cluster.client("coord"), cluster.client("other")
    holder = {"committed": 0}

    def compatible():
        action = other.top_level("c")
        yield from other.invoke(action, holder["ref"], "add", 10)
        yield from other.commit(action)

    def when_prepared(message):
        # C starts as A's prepare leaves; A's vote is held back until C
        # has committed at p
        if message.kind == "txn_prepare" and holder.pop("armed", False):
            cluster.spawn("other", compatible())
            holder["vote"] = True
            return None
        if (message.src == "p" and message.kind == "rpc_reply"
                and holder.pop("vote", False)):
            return (4.0,)
        return None

    def at_second_commit(node, kind, after):
        # the second committed record at p is A's: crash just before it
        if node != "p" or kind != "committed" or after:
            return None
        holder["committed"] += 1
        if holder["committed"] != 2:
            return None
        cluster.restart_at("p", cluster.kernel.now + 5.0)
        return True

    def app():
        holder["ref"] = ref = yield from client.create(
            "p", "commuting_counter", value=0)
        action = client.top_level("a")
        yield from client.invoke(action, ref, "add", 1)
        Over(cluster.network, decide=when_prepared, crash=at_second_commit)
        holder["armed"] = True
        try:
            yield from client.commit(action)
        except Exception:
            pass  # the outcome is the resolver's: A committed at coord

    cluster.run_process("coord", app())
    cluster.run()
    assert holder["committed"] >= 2
    ref = holder["ref"]
    assert committed_int(cluster, ref) == 11

    def read():
        action = client.top_level("r")
        value = yield from client.invoke(action, ref, "get")
        yield from client.commit(action)
        return value

    assert cluster.run_process("coord", read()) == 11
    assert cluster.obs.auditor.report() == []
    cluster.close()


@on_both_backends
def test_an_in_doubt_commit_redoes_on_a_live_instance_it_never_ran_on(
        backend):
    """A (coordinated at ``ca``) adds 1 and B (at ``cb``) adds 10 to one
    commuting counter at ``p``; both prepare, and ``p`` and ``cb`` crash
    before either decision lands.  ``p`` restarts and learns A's commit,
    which lifts the counter's fence; X adds 100 and commits, activating
    the counter from the store.  Then ``cb`` restarts and B commits: the
    live instance never ran B's add, so it takes the add's ``redo``, and
    live and stable agree at 111."""
    cluster = cluster_of(("ca", "cb", "p"), config=FIXED, backend=backend,
                         commute=False, fast_paths=False)
    clients = {name: cluster.client(name) for name in ("ca", "cb")}
    holder = {"hold": False}

    def held(message):
        # while held, a decision from a coordinator never reaches p
        if (holder["hold"] and message.dst == "p"
                and message.src in clients and message.kind != "txn_prepare"):
            return ()
        return None

    def add(name, amount):
        client = clients[name]
        action = client.top_level(name)
        yield from client.invoke(action, holder["ref"], "add", amount)
        holder["hold"] = True
        try:
            yield from client.commit(action)
        except Exception:
            pass  # the outcome is the resolver's

    def app():
        holder["ref"] = ref = yield from clients["ca"].create(
            "p", "commuting_counter", value=0)
        Over(cluster.network, decide=held)
        cluster.spawn("ca", add("ca", 1))
        cluster.spawn("cb", add("cb", 10))
        yield Timeout(6.0)
        assert len(cluster.servers["p"].prepared) == 2
        cluster.crash("p")
        cluster.crash("cb")
        holder["hold"] = False
        cluster.restart("p")
        yield Timeout(6.0)
        server = cluster.servers["p"]
        assert len(server.prepared) == 1 and ref.uid not in server.objects
        x = clients["ca"].top_level("x")
        yield from clients["ca"].invoke(x, ref, "add", 100)
        yield from clients["ca"].commit(x)
        cluster.restart("cb")
        yield Timeout(30.0)

    cluster.run_process("ca", app())
    cluster.run()
    ref = holder["ref"]
    assert committed_int(cluster, ref) == 111
    assert cluster.servers["p"].objects[ref.uid].value == 111
    assert cluster.obs.auditor.report() == []
    cluster.close()

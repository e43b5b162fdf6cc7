"""Index == fold(log): the transaction table never drifts from the WAL.

Hypothesis interleaves commits on all five paths (classic, one-phase,
piggyback, read-only vote, commute), client aborts, ``checkpoint()`` calls
and participant crash/restarts — also *during* a commit — on a three-node
cluster.  Three cases are drawn on purpose: a ``home`` checkpoint while a
piggybacked commit's phase two is undelivered, so a DELEGATED-then-COMMIT
entry crosses it; a participant crash between a ``forget`` and its
next checkpoint; and a classic commit whose phase two lands one
participant at a time, in a drawn order (the ack step).  After every
step, on every node, replaying the write-ahead log must give exactly the
live table, owing each COMMIT's whole logged ``owed`` list, of which the
live table owes a part; after every checkpoint the log is its marker plus
every record of each pending entry, nothing else; and a transaction whose
records a checkpoint dropped must be gone from both, so that a decision
query about it is answered by presumption (abort), as before the table
existed.  Once every reaper has landed, ``home`` owes nobody a commit.

Runs under the online auditor (see conftest): any protocol violation the
interleaving provokes fails the example too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.network import LOST
from repro.cluster.txn import (
    COORDINATOR,
    PARTICIPANT,
    STATE_OF_RECORD,
    TxnState,
    TxnTable,
)
from tests.oracle import Over

SERVERS = ("s1", "s2")
PATHS = ("classic", "one_phase", "piggyback", "read_only", "commute")

crashes = st.one_of(st.none(), st.tuples(
    st.sampled_from(SERVERS), st.floats(0.0, 9.0, allow_nan=False)))
steps = st.lists(st.one_of(
    st.tuples(st.just("commit"), st.sampled_from(PATHS), crashes),
    st.tuples(st.just("abort"), st.sampled_from(PATHS)),
    st.tuples(st.just("checkpoint"), st.sampled_from(("home",) + SERVERS)),
    st.tuples(st.just("bounce"), st.sampled_from(SERVERS)),
    st.tuples(st.just("crossing")),
    st.tuples(st.just("forget_then_crash")),
    st.tuples(st.just("ack"), st.permutations(SERVERS)),
), min_size=1, max_size=8)


#: the fold, spelled out independently of ``TxnTable._fold``: a
#: transaction is in the state its latest live record names
STATE_NAMED_BY = {
    "prepared": "prepared", "committed": "committed", "aborted": "aborted",
    "coord_delegated": "delegated", "coord_commit": "commit",
    "coord_abort": "abort", "coord_end": "ended",
}


def key_of(record):
    """``(role, txn_id)`` of a protocol record, None for any other."""
    if record.kind not in STATE_NAMED_BY:
        return None
    return STATE_OF_RECORD[record.kind][0], record.payload["txn_id"]


def phase_two(message):
    """Does ``message`` carry a ``txn_commit`` (alone or in a batch)?"""
    calls = (message.payload.get("calls", ()) if message.kind == "rpc_batch"
             else [{"kind": message.kind}])
    return any(call["kind"] == "txn_commit" for call in calls)


def logged(node):
    """``(role, txn_id) -> (state name, lsn, merged payload)`` as the
    node's live log tells it."""
    image = {}
    for record in node.wal.records():
        key = key_of(record)
        if key is not None:
            payload = dict(image.get(key, ("", 0, {}))[2], **record.payload)
            image[key] = (STATE_NAMED_BY[record.kind], record.lsn, payload)
    return image


class Harness:
    def __init__(self, seed):
        self.cluster = Cluster(seed=seed)
        for name in ("home",) + SERVERS:
            self.cluster.add_node(name)
        self.fast = self.cluster.client("home", "fast")
        self.classic = self.cluster.client("home", "classic")
        self.classic.fast_paths = False
        self.refs = {}
        self.cluster.run_process("home", self._create())
        #: node -> every (role, txn_id) its log has ever held
        self.seen = {name: set() for name in self.cluster.nodes}

    def _create(self):
        for server in SERVERS:
            self.refs["plain", server] = yield from self.fast.create(
                server, "counter", value=0)
            self.refs["hot", server] = yield from self.fast.create(
                server, "commuting_counter", value=0)

    def _action(self, path, commit):
        client = self.classic if path == "classic" else self.fast
        action = client.top_level(path)
        try:
            if path == "commute":
                for server in SERVERS:
                    yield from client.invoke(
                        action, self.refs["hot", server], "add", 1)
            else:
                yield from client.invoke(
                    action, self.refs["plain", "s1"], "increment", 1)
                if path == "read_only":
                    yield from client.invoke(
                        action, self.refs["plain", "s2"], "get")
                elif path != "one_phase":
                    yield from client.invoke(
                        action, self.refs["plain", "s2"], "increment", 1)
            if commit:
                yield from client.commit(action)
        except Exception:
            pass  # crashed participant, fenced object: the action aborts
        if not action.status.terminated:
            yield from client.abort(action)

    def run(self, step):
        cluster, now = self.cluster, self.cluster.kernel.now
        if step[0] == "checkpoint":
            self.checkpoint(step[1])
        elif step[0] == "crossing":
            self.crossing()
        elif step[0] == "ack":
            self.ack(step[1])
        elif step[0] == "forget_then_crash":
            for _ in range(2):  # the second prepare carries the forget
                cluster.run_process("home", self._action("one_phase", True))
            cluster.crash("s1")
            self.check()
            cluster.restart("s1")
            self.checkpoint("s1")
        elif step[0] == "bounce":
            cluster.crash(step[1])
            self.check()  # a dead node's log and table still agree
            cluster.restart(step[1])
        else:
            crash = step[2] if step[0] == "commit" else None
            if crash is not None:
                cluster.crash_at(crash[0], now + crash[1])
                cluster.restart_at(crash[0], now + crash[1] + 20.0)
            cluster.run_process("home", self._action(step[1],
                                                     step[0] == "commit"))
        self.check()
        # let reapers and in-doubt resolvers finish, then look again
        cluster.run(until=cluster.kernel.now + 120.0)
        self.check()

    def crossing(self):
        """A piggybacked commit whose phase two home cannot deliver yet:
        its DELEGATED-then-COMMIT entry crosses a ``home`` checkpoint.
        The reaper delivers once the hold is lifted."""
        network = self.cluster.network
        hold = Over(network, decide=lambda message: LOST if (
            message.src == "home" and phase_two(message)) else None)
        self.cluster.run_process("home", self._action("piggyback", True))
        self.checkpoint("home")
        network.faults = hold.beneath

    def ack(self, order):
        """A classic commit whose phase two home cannot deliver yet, so its
        COMMIT entry owes both servers; the hold is lifted one server at
        a time, in ``order``, and that server's reaper lands its batch.
        Each ack shrinks ``owed`` by the server; a checkpoint keeps the
        entry until the last ack, which appends exactly one ``coord_end``.
        """
        cluster, home = self.cluster, self.cluster.nodes["home"]
        held = set(SERVERS)
        hold = Over(cluster.network, decide=lambda message: LOST if (
            message.src == "home" and message.dst in held
            and phase_two(message)) else None)
        cluster.run_process("home", self._action("classic", True))
        owing = [txn_id for txn_id, owed in home.txns.owed.items()
                 if owed == held]
        for name in order:
            self.checkpoint("home")
            for txn_id in owing:
                entry = home.txns.get(COORDINATOR, txn_id)
                assert entry.state is TxnState.COMMIT
                assert home.txns.owed[txn_id] == held
            held.discard(name)
            cluster.run(until=cluster.kernel.now + 60.0)
            self.check()
        cluster.network.faults = hold.beneath
        for txn_id in owing:
            ends = [record for record in home.wal.records()
                    if record.kind == "coord_end"
                    and record.payload["txn_id"] == txn_id]
            assert len(ends) == 1 and txn_id not in home.txns.owed
        self.checkpoint("home")
        assert not [txn_id for txn_id in owing
                    if home.txns.get(COORDINATOR, txn_id)]

    def checkpoint(self, name):
        """Checkpoint ``name``: its log is then the marker plus every
        record of each entry that was pending, in log order."""
        self.note()
        node = self.cluster.nodes[name]
        before = list(node.wal.records())
        pending = {(entry.role, entry.txn_id) for role in (PARTICIPANT,
                                                           COORDINATOR)
                   for entry in node.txns.entries(role)
                   if entry.pending(node.txns.forgotten)}
        self.cluster.servers[name].checkpoint()
        *kept, marker = node.wal.records()
        assert marker.kind == "checkpoint", name
        assert kept == [record for record in before
                        if key_of(record) in pending], name

    def note(self):
        for name, node in self.cluster.nodes.items():
            self.seen[name] |= set(logged(node))

    def check(self):
        self.note()
        for name, node in self.cluster.nodes.items():
            replayed = TxnTable.replay(node.wal)
            assert replayed == node.txns, name
            image = logged(node)
            assert replayed.owed == {
                txn_id: set(payload["owed"])
                for (role, txn_id), (state, _, payload) in image.items()
                if state == "commit" and payload.get("owed")}, name
            for txn_id, owed in node.txns.owed.items():
                assert owed and owed <= replayed.owed[txn_id], name
            entries = (node.txns.entries(PARTICIPANT)
                       + node.txns.entries(COORDINATOR))
            assert {(e.role, e.txn_id): (e.state.value, e.lsn, e.payload)
                    for e in entries} == image, name
            assert set(node.txns.prepared) == {
                txn_id for (role, txn_id), (state, _, _) in image.items()
                if state == "prepared"}, name
            for key in self.seen[name] - set(image):
                assert node.txns.get(*key) is None, (name, key)
                assert replayed.get(*key) is None, (name, key)

    def presumed_abort_for_the_forgotten(self):
        home = self.cluster.nodes["home"]
        gone = sorted(txn_id for role, txn_id in
                      self.seen["home"] - set(logged(home))
                      if role == COORDINATOR)
        for txn_id in gone[:2]:
            reply = self.cluster.run_process(
                "s1", self.cluster.transports["s1"].call(
                    "home", "txn_decision_query", {"txn_id": txn_id}))
            assert reply["decision"] == "abort"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 16), steps)
def test_replaying_the_log_gives_the_live_table(seed, script):
    harness = Harness(seed)
    for step in script:
        harness.run(step)
    for server in SERVERS:  # nobody stays down: recovery has the last word
        harness.cluster.restart(server)
    harness.cluster.run(until=harness.cluster.kernel.now + 600.0)
    harness.check()
    assert not [entry for entry in harness.cluster.nodes["home"].txns.entries(
        COORDINATOR) if entry.state is TxnState.COMMIT]
    for name in harness.cluster.nodes:
        harness.checkpoint(name)
    harness.check()
    harness.presumed_abort_for_the_forgotten()

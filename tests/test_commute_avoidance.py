"""Commutativity-based coordination avoidance in the commit protocol.

Fully-commuting colours (CommutingCounter updates, escrow-bounded
account debits, append-log producers) skip the prepare round: the
coordinator logs the commit decision first and each participant locally
vote-and-applies the colour's merged effects in a single round.  These
tests cover the happy path, the downgrade to classic/fast-path 2PC when
a non-commuting operation joins the colour, merged effects under
concurrency (no lost updates), redo after a participant restart,
duplicate-delivery idempotence under partitions, and the lock-conflict
fast abort that rides along in this change.

Every test asserts the online invariant auditor stayed silent — in
particular its commute-soundness check, which would flag a local
decision on a colour that was not fully commuting.
"""

from repro.errors import CommitError, InvalidActionState, LockRefused
from repro.obs.postmortem import DEADLOCK_VICTIM, LOCK_CONFLICT
from repro.objects.state import ObjectState
from repro.sim.kernel import Timeout
from repro.stdobjects.account import InsufficientFunds
from tests.oracle import FIXED, Over, cluster_of, committed_int
from tests.test_commit_rounds import Tap


def committed_balance(cluster, ref):
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    state = ObjectState.from_bytes(stored.payload)
    state.unpack_string()                     # owner
    return state.unpack_int()


def committed_entries(cluster, ref):
    stored = cluster.nodes[ref.node].stable_store.read_committed(ref.uid)
    return ObjectState.from_bytes(stored.payload).unpack_value()


def metric_sum(cluster, name, **match):
    return sum(instrument.value
               for labels, instrument in cluster.obs.metrics.series(name)
               if all(labels.get(k) == v for k, v in match.items()))


def assert_audit_clean(cluster):
    findings = cluster.obs.auditor.report()
    assert findings == [], [f.to_dict() for f in findings]


def lock_requests_at(cluster, node):
    """From now on, every lock request ``node`` takes, as (kind, object,
    mode): each one is announced once granted or refused, and once more
    if it queues first."""
    seen = []
    cluster.obs.bus.subscribe(
        lambda event: event.labels["node"] == node and seen.append(
            (event.kind, event.labels["object"], event.labels["mode"])),
        kinds=("lock.granted", "lock.blocked", "lock.refused"))
    return seen


# -- happy path ---------------------------------------------------------------


def test_commute_commit_is_one_round_with_no_phase_two():
    """A fully-commuting two-participant colour commits in one parallel
    round: each participant's prepare carries the decision, the redo ops
    and the finish routing — no txn_commit, no finish_commit follows.  A
    live participant holds its redo's group locks since the invoke, so
    its prepare requests none."""
    cluster = cluster_of(["coord", "p1", "p2"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref1 = yield from client.create("p1", "commuting_counter", value=0)
        ref2 = yield from client.create("p2", "commuting_counter", value=10)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "add", 3)
        yield from client.invoke(action, ref2, "subtract", 4)
        holder["requests"] = [lock_requests_at(cluster, name)
                              for name in ("p1", "p2")]
        started = cluster.kernel.now
        sent = cluster.network.sent_count
        yield from client.commit(action)
        holder["duration"] = cluster.kernel.now - started
        holder["messages"] = cluster.network.sent_count - sent
        holder.update(ref1=ref1, ref2=ref2)

    cluster.run_process("coord", app())
    assert committed_int(cluster, holder["ref1"]) == 3
    assert committed_int(cluster, holder["ref2"]) == 6
    # one parallel round trip at delay 1.0, regardless of participants
    assert holder["duration"] == 2.0
    # 2 RPCs (one per participant) at 2 messages per synchronous RPC
    # = 2 x 2 — the classic protocol needs prepare + decision rounds for
    # both
    assert holder["messages"] == 4
    assert holder["requests"] == [[], []]
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 2
    for name in ("p1", "p2"):
        assert cluster.servers[name].mirrors == {}
        assert cluster.servers[name].prepared == {}
    # the decision was durable before the fan-out
    assert cluster.nodes["coord"].wal.last("coord_commit") is not None
    assert cluster.nodes["coord"].wal.last("coord_end") is not None
    assert_audit_clean(cluster)


def test_a_node_whose_every_colour_commutes_gets_the_end_message():
    """Two commuting colours of one action at one node ``q``: neither
    commute prepare carries ``q``'s finish, since ``q`` holds both
    colours, and a commute vote releases its colour, not the node, so
    ``q`` leaves the commit by its end message: 6 sends.

    The second round takes no lock at ``q`` (the action holds its group
    lock there since the invoke), so nothing is granted after the first
    round released its colour, and the auditor's two-phase check stays
    silent."""
    cluster = cluster_of(["coord", "q"], config=FIXED)
    client = cluster.client("coord")
    tap = Tap(cluster)
    refs = []

    def app():
        for _ in range(2):
            refs.append((yield from client.create(
                "q", "commuting_counter", value=0)))
        colours = sorted((client.fresh_colour(f"c{i}") for i in range(2)),
                         key=lambda colour: colour.uid)
        action = client.coloured(colours, name="two-commuting")
        for ref, colour in zip(refs, colours):
            yield from client.invoke(action, ref, "add", 1, colour=colour)
        yield from tap.commit(client, action)

    cluster.run_process("coord", app())
    cluster.run()
    assert tap.outcome == "committed"
    assert tap.lines == [
        "0 coord>q txn_prepare[commute]",
        "1 q>coord rpc_reply",
        "2 coord>q txn_prepare[commute,forget]",
        "3 q>coord rpc_reply",
        "4 coord>q rpc_batch(finish_commit)",
        "5 q>coord rpc_reply",
    ]
    assert [committed_int(cluster, ref) for ref in refs] == [1, 1]
    assert cluster.servers["q"].mirrors == {}
    assert not cluster.obs.auditor.report()


def test_concurrent_commuting_commits_lose_no_updates():
    """Interleaved committing updaters on shared counters: the commute
    path merges each colour's ops onto *committed* state, so no commit
    order can overwrite another transaction's applied effect (the
    snapshot-promotion race the classic path has for semantic objects)."""
    cluster = cluster_of(["n0", "n1", "n2"], seed=3)
    refs = []
    outcomes = {"committed": 0}

    def setup():
        client = cluster.client("n0")
        for host in ("n1", "n2"):
            ref = yield from client.create(host, "commuting_counter", value=0)
            refs.append(ref)

    cluster.run_process("n0", setup())

    def worker(worker_id):
        client = cluster.client(f"n{worker_id % 3}", name=f"w{worker_id}")
        for op in range(4):
            action = client.top_level(f"w{worker_id}.op{op}")
            for ref in refs:
                yield from client.invoke(action, ref, "add", 1)
            yield from client.commit(action)
            outcomes["committed"] += 1

    for worker_id in range(4):
        cluster.spawn(f"n{worker_id % 3}", worker(worker_id),
                      name=f"worker{worker_id}")
    cluster.run()
    assert outcomes["committed"] == 16
    for ref in refs:
        assert committed_int(cluster, ref) == 16
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") > 0
    assert_audit_clean(cluster)


def test_escrow_debits_commute_within_the_bound():
    """Escrow debits reserve at execute time: concurrent debits that fit
    both commit on the commute path; one that does not fit fails up front
    (InsufficientFunds at invoke, not a commit-time abort)."""
    cluster = cluster_of(["coord", "bank"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref = yield from client.create("bank", "escrow_account",
                                       owner="E", balance=10)
        t1 = client.top_level("t1")
        yield from client.invoke(t1, ref, "debit", 6)
        # t1 holds a 6-unit reservation: a second debit sees available=4
        t2 = client.top_level("t2")
        try:
            yield from client.invoke(t2, ref, "debit", 6)
            holder["t2"] = "debited"
        except (InsufficientFunds, InvalidActionState):
            # the transport rebuilds InsufficientFunds as its base class
            holder["t2"] = "insufficient"
            yield from client.abort(t2)
        t3 = client.top_level("t3")
        yield from client.invoke(t3, ref, "debit", 4)
        yield from client.commit(t1)
        yield from client.commit(t3)
        holder["ref"] = ref

    cluster.run_process("coord", app())
    assert holder["t2"] == "insufficient"
    assert committed_balance(cluster, holder["ref"]) == 0
    live = cluster.servers["bank"].objects[holder["ref"].uid]
    assert live.escrow_available == 0
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 2
    assert_audit_clean(cluster)


def _escrow_credit(client, holder, between):
    """Credit 5 to a fresh escrow account of balance 10, run ``between``
    (a generator taking the action and the ref) and keep the ref."""
    ref = yield from client.create("bank", "escrow_account",
                                   owner="E", balance=10)
    action = client.top_level("credit")
    yield from client.invoke(action, ref, "credit", 5)
    holder["ref"] = ref
    yield from between(action, ref)


def _live_funds(cluster, ref):
    live = cluster.servers["bank"].objects[ref.uid]
    return live.balance, live.escrow_available


def test_escrow_credit_becomes_spendable_at_commit():
    """A pending credit backs no debit; its commute commit runs the
    ``committed`` hook on the live instance, and then it does."""
    cluster = cluster_of(["coord", "bank"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def between(action, ref):
        early = client.top_level("early")
        try:
            yield from client.invoke(early, ref, "debit", 15)
            holder["early"] = "debited"
        except (InsufficientFunds, InvalidActionState):
            holder["early"] = "insufficient"
            yield from client.abort(early)
        yield from client.commit(action)
        late = client.top_level("late")
        yield from client.invoke(late, ref, "debit", 15)
        yield from client.commit(late)

    cluster.run_process("coord", _escrow_credit(client, holder, between))
    assert holder["early"] == "insufficient"
    assert committed_balance(cluster, holder["ref"]) == 0
    assert _live_funds(cluster, holder["ref"]) == (0, 0)
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 2
    assert_audit_clean(cluster)


def test_escrow_credit_is_redone_after_a_participant_restart():
    """The participant restarted between the credit and the commit: the
    commute prepare's redo list merges it into committed state and redoes
    it, settled, on the new live instance."""
    cluster = cluster_of(["coord", "bank"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def between(action, ref):
        cluster.crash("bank")
        cluster.restart("bank")
        yield from client.commit(action)

    cluster.run_process("coord", _escrow_credit(client, holder, between))
    assert committed_balance(cluster, holder["ref"]) == 15
    assert _live_funds(cluster, holder["ref"]) == (15, 15)
    assert_audit_clean(cluster)


def test_escrow_credit_is_undone_by_an_abort():
    """An aborted credit leaves the balance and the spendable funds as
    they were, live and committed."""
    cluster = cluster_of(["coord", "bank"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def between(action, ref):
        yield from client.abort(action)

    cluster.run_process("coord", _escrow_credit(client, holder, between))
    assert committed_balance(cluster, holder["ref"]) == 10
    assert _live_funds(cluster, holder["ref"]) == (10, 10)
    assert_audit_clean(cluster)


def test_append_log_producers_commit_locally():
    """Two producers appending concurrently both take the commute path;
    the committed log holds exactly the committed entries (as a set —
    entry order follows commit order by contract)."""
    cluster = cluster_of(["n0", "n1"], seed=7)
    holder = {}

    def setup():
        client = cluster.client("n0")
        holder["ref"] = yield from client.create("n1", "append_log")

    cluster.run_process("n0", setup())

    def producer(tag):
        client = cluster.client("n0", name=tag)
        for index in range(3):
            action = client.top_level(f"{tag}.{index}")
            yield from client.invoke(action, holder["ref"], "append",
                                     f"{tag}:{index}")
            yield from client.commit(action)

    cluster.spawn("n0", producer("a"), name="prod-a")
    cluster.spawn("n0", producer("b"), name="prod-b")
    cluster.run()
    entries = committed_entries(cluster, holder["ref"])
    assert sorted(entries) == sorted(
        f"{tag}:{index}" for tag in "ab" for index in range(3))
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 6
    assert_audit_clean(cluster)


# -- downgrade to classic -----------------------------------------------------


def test_non_commuting_update_forces_classic_fallback():
    """The moment a plain WRITE update joins the colour, the whole colour
    falls back to classic/fast-path 2PC — whichever order the operations
    arrived in — and no local decision is taken anywhere."""
    cluster = cluster_of(["coord", "s1", "s2"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        cc = yield from client.create("s1", "commuting_counter", value=0)
        pc = yield from client.create("s2", "counter", value=0)
        # commuting op first, plain WRITE second
        t1 = client.top_level("t1")
        yield from client.invoke(t1, cc, "add", 2)
        yield from client.invoke(t1, pc, "increment", 3)
        yield from client.commit(t1)
        # plain WRITE first, commuting op second: same downgrade
        t2 = client.top_level("t2")
        yield from client.invoke(t2, pc, "increment", 3)
        yield from client.invoke(t2, cc, "add", 2)
        yield from client.commit(t2)
        holder.update(cc=cc, pc=pc)

    cluster.run_process("coord", app())
    assert committed_int(cluster, holder["cc"]) == 4
    assert committed_int(cluster, holder["pc"]) == 6
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 0
    # the fallback is the *fast-path* 2PC: piggybacked decisions here
    assert metric_sum(cluster, "twopc_fast_path_total", kind="piggyback") == 2
    assert_audit_clean(cluster)


def _mixed_action(cluster, client, holder):
    """Colours ``[classic A, commuting B, classic C]`` in uid order, one
    participant each; returns the action."""
    a = yield from client.create("p1", "counter", value=0)
    b = yield from client.create("p2", "commuting_counter", value=0)
    c = yield from client.create("p3", "counter", value=0)
    colours = sorted((client.fresh_colour(name) for name in "ABC"),
                     key=lambda colour: colour.uid)
    action = client.coloured(colours, name="mixed")
    yield from client.invoke(action, a, "increment", 1, colour=colours[0])
    yield from client.invoke(action, b, "add", 1, colour=colours[1])
    yield from client.invoke(action, c, "increment", 1, colour=colours[2])
    holder.update(refs=(a, b, c), colours=[str(colour) for colour in colours])
    return action


def test_mixed_run_commits_as_three_rounds_in_colour_order():
    """Commuting and classic colours in one action: ``commit`` splits them
    into runs, so ``[classic, commuting, classic]`` is three rounds, begun
    in uid order, each on its own path."""
    cluster = cluster_of(["coord", "p1", "p2", "p3"], config=FIXED)
    client = cluster.client("coord")
    holder, begun = {}, []
    cluster.obs.bus.subscribe(
        lambda event: event.kind == "twopc.begin"
        and begun.append(event.labels["colour"]))

    def app():
        action = yield from _mixed_action(cluster, client, holder)
        yield from client.commit(action)

    cluster.run_process("coord", app())
    assert begun == holder["colours"]
    assert [committed_int(cluster, ref) for ref in holder["refs"]] == [1, 1, 1]
    assert metric_sum(cluster, "twopc_fast_path_total", kind="one_phase") == 2
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 1
    # three single-colour plans: nothing was batched
    assert metric_sum(cluster, "prepare_batch_saved_rpcs_total") == 0
    assert_audit_clean(cluster)


def test_mixed_run_keeps_earlier_colours_when_the_last_one_is_refused():
    """§5.1 per-colour permanence across the run split: C's participant
    refuses, so C aborts and ``commit`` raises — but A (classic) and B
    (commuting) were decided before it and stay permanent everywhere."""
    cluster = cluster_of(["coord", "p1", "p2", "p3"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        action = yield from _mixed_action(cluster, client, holder)
        cluster.crash("p3")          # C's write set dies with the epoch
        cluster.restart("p3")
        try:
            yield from client.commit(action)
        except CommitError:
            return action.status.value
        return "committed"

    assert cluster.run_process("coord", app()) == "aborted"
    cluster.run(until=cluster.kernel.now + 100)
    assert [committed_int(cluster, ref) for ref in holder["refs"]] == [1, 1, 0]
    assert metric_sum(cluster, "twopc_rounds_total", outcome="committed") == 2
    assert metric_sum(cluster, "twopc_rounds_total", outcome="aborted") == 1
    for name in ("p1", "p2", "p3"):
        assert cluster.servers[name].mirrors == {}
        assert cluster.servers[name].prepared == {}
    assert_audit_clean(cluster)


def test_commute_off_reaches_the_same_state():
    """``commute=False`` runs the identical (sequential) workload through
    classic/fast-path 2PC and must land on the same committed state."""
    finals = {}
    for commute in (False, True):
        cluster = cluster_of(["coord", "s1", "s2"], seed=11,
                             commute=commute)
        client = cluster.client("coord")
        holder = {}

        def app():
            a = yield from client.create("s1", "commuting_counter", value=0)
            b = yield from client.create("s2", "escrow_account",
                                         owner="B", balance=50)
            for step in range(3):
                action = client.top_level(f"t{step}")
                yield from client.invoke(action, a, "add", 2)
                yield from client.invoke(action, b, "debit", 5)
                yield from client.commit(action)
            holder.update(a=a, b=b)

        cluster.run_process("coord", app())
        finals[commute] = (committed_int(cluster, holder["a"]),
                           committed_balance(cluster, holder["b"]))
        expected = 3.0 * 2 if commute else 0.0
        assert metric_sum(cluster, "twopc_fast_path_total",
                          kind="commute") == expected
        assert_audit_clean(cluster)
    assert finals[False] == finals[True] == (6, 35)


# -- failure injection --------------------------------------------------------


def test_commute_redo_after_participant_restart():
    """A participant that restarted between execute and commit lost the
    volatile effects — the commute prepare still commits: it carries the
    colour's redo op list, which the server re-applies against committed
    state (epoch mismatch does not refuse a commute prepare).  Its grants
    died with the epoch, so the redo requests, and is granted, every
    group lock it applies under."""
    cluster = cluster_of(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref = yield from client.create("part", "escrow_account",
                                       owner="E", balance=100)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "debit", 30)
        cluster.crash("part")
        cluster.restart("part")
        holder["requests"] = lock_requests_at(cluster, "part")
        yield from client.commit(action)
        holder["ref"] = ref

    cluster.run_process("coord", app())
    assert committed_balance(cluster, holder["ref"]) == 70
    assert holder["requests"] == [
        ("lock.granted", str(holder["ref"].uid), "update")]
    # the redo settled availability too — there is no committed hook
    # coming for an operation the new epoch never executed
    live = cluster.servers["part"].objects[holder["ref"].uid]
    assert live.escrow_available == 70
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 1
    assert cluster.servers["part"].prepared == {}
    assert cluster.servers["part"].in_doubt_objects == set()
    assert_audit_clean(cluster)


def test_redelivered_commute_prepare_is_idempotent():
    """Losing the commute reply must not double-apply: the decision is
    durable, the node's finish message carries the same prepare in front
    of ``finish_commit``, and the participant answers it from its
    COMMITTED record (dedupe on txn_id) without running the ops again."""
    cluster = cluster_of(["coord", "part"], config=FIXED)
    client = cluster.client("coord")
    holder = {}
    sent = []
    Over(cluster.network, decide=lambda message: sent.append(
        (message.dst, message.kind, message.payload)))

    def app():
        ref = yield from client.create("part", "commuting_counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "add", 5)
        # the prepare lands at t0+1 and is applied; the partition at
        # t0+1.5 swallows the reply, so the coordinator must redeliver
        cluster.kernel.schedule(
            1.5, lambda: cluster.network.partition("coord", "part"))
        cluster.kernel.schedule(40.0, lambda: cluster.network.heal_all())
        yield from client.commit(action)
        holder["ref"] = ref

    cluster.run_process("coord", app())
    cluster.run(until=cluster.kernel.now + 600)
    # applied exactly once despite the redelivery
    assert committed_int(cluster, holder["ref"]) == 5
    assert metric_sum(cluster, "twopc_fast_path_total", kind="commute") == 1
    # the heal lets the finish message through: no reaper was needed
    kind, payload = [(kind, payload) for dst, kind, payload in sent
                     if dst == "part"][-1]
    assert kind == "rpc_batch"
    assert [call["kind"] for call in payload["calls"]] \
        == ["txn_prepare", "finish_commit"]
    assert payload["calls"][0]["payload"].get("commute")
    assert metric_sum(cluster, "termination_reapers_total") == 0
    assert cluster.servers["part"].mirrors == {}
    assert_audit_clean(cluster)


def test_a_decided_commute_colour_outlives_a_later_refusal():
    """§5.1 permanence: colour c1 commutes at q and is decided before its
    wave, every copy of which is lost; colour c2's participant p restarted
    and refuses, so the commit fails.  c1's redo rides in front of q's
    ``abort_action``, so the abort never unwinds it: q's live value is its
    committed value, and a later action reads it."""
    cluster = cluster_of(["coord", "q", "p"], config=FIXED)
    client = cluster.client("coord")
    Over(cluster.network, decide=lambda message: () if (
        message.dst, message.kind) == ("q", "txn_prepare") else None)
    holder = {}

    def app():
        q = yield from client.create("q", "commuting_counter", value=0)
        p = yield from client.create("p", "counter", value=0)
        c1, c2 = sorted((client.fresh_colour(name) for name in ("c1", "c2")),
                        key=lambda colour: colour.uid)
        action = client.coloured([c1, c2], name="t")
        yield from client.invoke(action, q, "add", 1, colour=c1)
        yield from client.invoke(action, p, "increment", 1, colour=c2)
        cluster.crash("p")
        cluster.restart("p")
        try:
            yield from client.commit(action)
        except CommitError:
            holder["outcome"] = "commit-error"
            holder["ended"] = cluster.kernel.now
        yield Timeout(200.0)
        reader = client.top_level("reader")
        holder["read"] = yield from client.invoke(reader, q, "get")
        yield from client.commit(reader)
        holder["q"] = q

    cluster.run_process("coord", app())
    cluster.run()
    ref = holder["q"]
    assert holder["outcome"] == "commit-error"
    # c1's wave is decided, so it is sent once: p's round follows one
    # timeout later, not after q's whole retransmission budget
    assert holder["ended"] < 30
    assert holder["read"] == 1
    assert cluster.servers["q"].objects[ref.uid].value \
        == committed_int(cluster, ref) == 1
    assert_audit_clean(cluster)


def test_crashed_commute_participant_converges_by_redelivery():
    """A participant crashed at decision time neither blocks the commit
    (the votes are guaranteed) nor loses the update: redelivery after the
    restart applies the redo ops against committed state."""
    cluster = cluster_of(["coord", "part", "other"], config=FIXED)
    client = cluster.client("coord")
    holder = {}

    def app():
        ref1 = yield from client.create("part", "commuting_counter", value=0)
        ref2 = yield from client.create("other", "commuting_counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref1, "add", 7)
        yield from client.invoke(action, ref2, "add", 7)
        cluster.crash("part")
        cluster.restart_at("part", cluster.kernel.now + 30.0)
        yield from client.commit(action)
        holder.update(ref1=ref1, ref2=ref2)

    cluster.run_process("coord", app())
    # the live participant applied immediately...
    assert committed_int(cluster, holder["ref2"]) == 7
    cluster.run(until=cluster.kernel.now + 600)
    # ...and the crashed one converged through a retransmission of the
    # same prepare after its restart
    assert committed_int(cluster, holder["ref1"]) == 7
    assert cluster.servers["part"].prepared == {}
    assert cluster.servers["part"].in_doubt_objects == set()
    assert_audit_clean(cluster)


# -- lock-conflict fast abort -------------------------------------------------


def test_deadlock_closing_wait_fast_aborts_as_lock_conflict():
    """A queued request that closes a waits-for cycle through its own
    action is refused immediately — a deterministic lock conflict, not a
    parked wait for the deadlock chaser to victimise after a sweep."""
    cluster = cluster_of(["s1", "s2"], seed=5, config=FIXED,
                         lock_wait_timeout=300.0)
    postmortem = cluster.observe(postmortem=True)["postmortem"]
    holder = {}

    def setup():
        client = cluster.client("s1")
        holder["a"] = yield from client.create("s1", "counter", value=0)
        holder["b"] = yield from client.create("s1", "counter", value=0)

    cluster.run_process("s1", setup())

    def first():
        client = cluster.client("s1", name="w1")
        action = client.top_level("w1")
        yield from client.invoke(action, holder["a"], "increment", 1)
        yield Timeout(5.0)
        # queues behind w2's grant on b: the A->B half of the cycle
        yield from client.invoke(action, holder["b"], "increment", 1)
        yield from client.commit(action)
        holder["w1"] = "committed"

    def second():
        client = cluster.client("s2", name="w2")
        action = client.top_level("w2")
        yield from client.invoke(action, holder["b"], "increment", 1)
        yield Timeout(10.0)
        started = cluster.kernel.now
        try:
            # would close the cycle: refused at queue time
            yield from client.invoke(action, holder["a"], "increment", 1)
            holder["w2"] = "granted"
        except LockRefused:
            holder["w2"] = "refused"
            holder["refused_after"] = cluster.kernel.now - started
            yield from client.abort(action)

    cluster.spawn("s1", first(), name="w1")
    cluster.spawn("s2", second(), name="w2")
    cluster.run()
    assert holder["w2"] == "refused"
    assert holder["w1"] == "committed"
    # refused in one round trip — not the 300s timeout, not a sweep later
    assert holder["refused_after"] <= 4.0
    assert metric_sum(cluster, "lock_fast_aborts_total") == 1
    # the postmortem attributes the abort as lock-conflict (with its
    # blockers named), never as deadlock-victim
    postmortem.catch_up()
    assert postmortem.reason_counts.get(LOCK_CONFLICT, 0) == 1
    assert postmortem.reason_counts.get(DEADLOCK_VICTIM, 0) == 0
    conflict = [r for r in postmortem.aborted()
                if r.reason == LOCK_CONFLICT]
    assert conflict and conflict[0].blockers
    assert committed_int(cluster, holder["a"]) == 1
    assert committed_int(cluster, holder["b"]) == 1
    assert_audit_clean(cluster)

"""What a refused prepare is blamed on, whatever the shape of the round.

The fan-out's fault outcomes (presumed-abort stragglers, reapers, the
abort of a failed round, the delivery of colours decided before a later
one failed) are judged by the single-fault sweep,
``tests/test_fault_sweep.py``; its latency by ``BENCH_cluster_fanout``.
"""

from repro.cluster.message import encode_uid
from repro.errors import CommitError
from repro.obs.postmortem import CRASH_PARTITION
from tests.oracle import FIXED, cluster_of


def test_a_refused_prepare_has_one_cause_whatever_the_plan_shape():
    """A participant that lost its write set refuses the prepare.  The
    round's abort says ``prepare-refused`` — and ``why`` blames the
    refusing voter, not an injected fault — whether the action had one colour (fail-fast round)
    or two (batched run, where the next colour then cascades)."""
    seen = {}
    for colours in (1, 2):
        cluster = cluster_of(["coord", "a", "b"], config=FIXED)
        engine = cluster.observe(postmortem=True)["postmortem"]
        client = cluster.client("coord")

        def app():
            ref_a = yield from client.create("a", "counter", value=0)
            ref_b = yield from client.create("b", "counter", value=0)
            first, second = sorted(
                (client.fresh_colour(f"c{i}") for i in range(2)),
                key=lambda colour: colour.uid)
            if colours == 1:
                second = first
            action = client.coloured({first, second}, name="t")
            yield from client.invoke(action, ref_a, "increment", 1,
                                     colour=first)
            yield from client.invoke(action, ref_b, "increment", 1,
                                     colour=second)
            # premature release at a: no crash, no epoch change
            yield from cluster.transports["coord"].call(
                "a", "abort_action", {"action_uid": encode_uid(action.uid)})
            try:
                yield from client.commit(action)
            except CommitError:
                return "commit-error"

        assert cluster.run_process("coord", app()) == "commit-error"
        # the rounds themselves are forgotten with the finished action:
        # their causes are read off the retained decisions
        decided = {event.labels["txn"]: event.labels.get("cause", "")
                   for event in cluster.obs.layers["history"].events
                   if event.kind == "twopc.decision"}
        causes = [decided[txn_id] for txn_id in engine.record_for("t").txns]
        seen[colours] = (causes, engine.record_for("t").reason)
    # (the taxonomy files a lost write set under crash/partition)
    assert seen[1] == (["prepare-refused"], CRASH_PARTITION)
    assert seen[2] == (["prepare-refused", "colour-order-cascade"],
                       CRASH_PARTITION)

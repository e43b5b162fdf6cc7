"""Distributed tracing + metrics over a real 2-node cluster run.

These are the acceptance tests for the observability layer: one committed
distributed action must yield (a) a metrics dump with per-colour commit
counts and a populated 2PC prepare-latency histogram, and (b) a span set
forming one connected parent/child tree spanning client and server nodes.
"""

from repro.cluster.cluster import Cluster


def two_node_cluster(seed=3):
    cluster = Cluster(seed=seed)
    cluster.observe(history=True)  # these tests read spans and colours
    cluster.add_node("alpha")
    cluster.add_node("beta")
    return cluster


def run_one_commit(cluster):
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        action = client.top_level("transfer")
        yield from client.invoke(action, ref, "increment", 5)
        yield from client.commit(action)
        return ref

    return cluster.run_process("alpha", app())


def test_metrics_dump_has_per_colour_commits_and_2pc_histogram():
    cluster = two_node_cluster()
    run_one_commit(cluster)
    dump = cluster.metrics_dump()

    commits = [row for row in dump["counters"]
               if row["name"] == "actions_committed_total"]
    assert commits, "no per-colour commit counters recorded"
    assert all("colour" in row["labels"] for row in commits)
    assert sum(row["value"] for row in commits) >= 1

    prepare = [row for row in dump["histograms"]
               if row["name"] == "twopc_prepare_time"]
    assert prepare, "no 2PC prepare-latency histogram recorded"
    assert prepare[0]["count"] >= 1
    assert prepare[0]["p50"] is not None
    assert "colour" in prepare[0]["labels"]


def test_spans_form_connected_tree_across_both_nodes():
    cluster = two_node_cluster()
    run_one_commit(cluster)
    spans = cluster.obs.tracer.snapshot()

    action_spans = [s for s in spans if s.name == "action:transfer"]
    assert len(action_spans) == 1
    root = action_spans[0]
    trace = [s for s in spans if s.trace_id == root.trace_id]

    # connectivity: every span in the trace reaches the root via parent_id
    by_id = {s.span_id: s for s in trace}
    for span in trace:
        hops = 0
        cursor = span
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]  # KeyError == disconnected tree
            hops += 1
            assert hops < 50
        assert cursor.span_id == root.span_id

    # the tree crosses the network: client-side rpc spans on alpha,
    # server-side handler spans on beta, parented onto each other.
    nodes = {s.node for s in trace}
    assert {"alpha", "beta"} <= nodes
    serve_invoke = [s for s in trace
                    if s.name == "serve:invoke" and s.node == "beta"]
    assert serve_invoke
    parent = by_id[serve_invoke[0].parent_id]
    assert parent.name == "rpc:invoke"
    assert parent.node == "alpha"

    # commit hangs the 2PC machinery under the action span
    twopc = [s for s in trace if s.name.startswith("2pc:")]
    assert twopc
    assert twopc[0].attrs.get("outcome") == "committed"
    # every span of a finished run is closed
    assert all(s.finished for s in trace)


def test_nested_action_spans_mirror_action_structure():
    cluster = two_node_cluster(seed=5)
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        outer = client.top_level("outer")
        inner = client.atomic(outer, "inner")
        yield from client.invoke(inner, ref, "increment", 1)
        yield from client.commit(inner)
        yield from client.commit(outer)

    cluster.run_process("alpha", app())
    spans = cluster.obs.tracer.snapshot()
    outer_span = next(s for s in spans if s.name == "action:outer")
    inner_span = next(s for s in spans if s.name == "action:inner")
    assert inner_span.parent_id == outer_span.span_id
    assert inner_span.trace_id == outer_span.trace_id
    assert outer_span.attrs.get("outcome") == "committed"


def test_aborts_count_per_colour_and_close_the_span():
    cluster = two_node_cluster(seed=7)
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        action = client.top_level("doomed")
        yield from client.invoke(action, ref, "increment", 1)
        yield from client.abort(action)
        return ref

    cluster.run_process("alpha", app())
    dump = cluster.metrics_dump()
    aborts = [row for row in dump["counters"]
              if row["name"] == "actions_aborted_total"]
    assert aborts and sum(row["value"] for row in aborts) >= 1
    doomed = next(s for s in cluster.obs.tracer.snapshot()
                  if s.name == "action:doomed")
    assert doomed.finished
    assert doomed.attrs.get("outcome") == "aborted"


def test_traces_are_deterministic_for_a_fixed_seed():
    def span_signature(cluster):
        return [(s.name, s.node, s.trace_id, s.span_id, s.parent_id,
                 s.start, s.end)
                for s in cluster.obs.tracer.snapshot()]

    first = two_node_cluster(seed=11)
    run_one_commit(first)
    second = two_node_cluster(seed=11)
    run_one_commit(second)
    assert span_signature(first) == span_signature(second)
    assert first.metrics_dump() == second.metrics_dump()


def test_rpc_latency_and_message_counters_populate():
    cluster = two_node_cluster()
    run_one_commit(cluster)
    dump = cluster.metrics_dump()
    latency = [row for row in dump["histograms"]
               if row["name"] == "rpc_latency"]
    assert latency and sum(row["count"] for row in latency) >= 3
    sent = [row for row in dump["counters"]
            if row["name"] == "messages_sent_total"]
    kinds = {row["labels"]["kind"] for row in sent}
    assert {"create", "invoke"} <= kinds
    # the facade folds kernel/network totals in as gauges
    gauges = {row["name"]: row["value"] for row in dump["gauges"]}
    assert gauges["network_sent_total"] >= sum(row["value"] for row in sent)
    assert gauges["kernel_callbacks_run"] > 0


def test_distributed_grant_is_counted_and_tied_to_the_action():
    """A grant made by a *server* bumps ``lock_grants_total{mode,node}``
    there and lands a ``lock.granted`` event naming the action whose span
    the client opened."""
    cluster = two_node_cluster()
    run_one_commit(cluster)
    grants = {(labels["node"], labels["mode"]): counter.value
              for labels, counter in
              cluster.obs.metrics.series("lock_grants_total")}
    assert grants == {("beta", "write"): 1}
    (root,) = [s for s in cluster.obs.tracer.snapshot()
               if s.name == "action:transfer"]
    granted = [e for e in cluster.obs.layers["history"].event_dicts()
               if e["kind"] == "lock.granted"]
    assert [(e["labels"]["node"], e["labels"]["owner"], e["labels"]["mode"])
            for e in granted] == [("beta", root.attrs["action"], "write")]
    assert root.start <= granted[0]["tick"] <= root.end

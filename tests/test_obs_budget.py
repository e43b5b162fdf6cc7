"""The report path's budget: what the hub may skip, and what it may not.

Deterministic guards, no timings.  The resolved-instrument cache in front
of ``MetricsRegistry._get`` must be invisible in every dump; a warmed
``hub.count`` / ``hub.observe`` must not resolve labels again, a folded
``colour`` or not; a histogram's reservoir must keep the samples it
always kept while owning no PRNG until it overflows; the kind-routed bus
must deliver what, and in the order, the locked list-copying one did, and
build no event nobody reads; a registry that folds ``colour`` must sum to
what the per-colour one holds; a span nobody keeps is never built, nor
its context sent; and a counter the registry pulls must read what one
report per increment made.
"""

import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.obs import History, Observability, dump
from repro.obs import metrics as metrics_module
from repro.obs.audit import InvariantAuditor
from repro.obs.bus import EventBus, ObsEvent
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.perf import FlightRecorder
from repro.obs.postmortem import PostmortemEngine
from repro.obs.tracing import TRACE_KEY, UNKEPT
from tests.oracle import Over


# -- (a) the cache never shows in a dump ----------------------------------------

class Shade(enum.Enum):
    RED = 1


class _Forgetful(dict):
    """A resolved-instrument cache that never remembers: every lookup takes
    the ``_labelset`` path, as every lookup did before the cache."""

    def __setitem__(self, key, value):
        pass


#: 1, 1.0 and True are equal and hash alike but are three label values
label_values = st.sampled_from([1, 1.0, True, "1", Shade.RED, "red", 2, None])
lookups = st.lists(st.tuples(
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.sampled_from(["m", "n"]),
    st.lists(st.tuples(st.sampled_from(["colour", "node", "kind"]),
                       label_values),
             max_size=3, unique_by=lambda item: item[0]),
    st.randoms(use_true_random=False),
), max_size=30)


def _touch(registry, kind, name, labels):
    instrument = getattr(registry, kind)(name, **labels)
    if kind == "counter":
        instrument.inc()
    elif kind == "gauge":
        instrument.inc(2.0)
    else:
        instrument.observe(float(len(labels)))
    return instrument


@settings(max_examples=200, deadline=None)
@given(lookups, st.one_of(st.none(), st.integers(1, 3)))
def test_cached_lookups_dump_like_labelset_alone(sequence, cap):
    cached = MetricsRegistry(max_series_per_metric=cap)
    reference = MetricsRegistry(max_series_per_metric=cap)
    reference._resolved = _Forgetful()
    for kind, name, items, shuffler in sequence:
        # the same label set, asked for in two keyword orders
        for _ in range(2):
            shuffler.shuffle(items)
            _touch(cached, kind, name, dict(items))
            _touch(reference, kind, name, dict(items))
    assert cached.dump() == reference.dump()
    assert cached.series_count() == reference.series_count()
    assert not reference._resolved
    if cap is None:
        assert not any(row["name"] == "metrics_series_folded_total"
                       for row in cached.dump()["counters"])


def test_equal_hashing_values_are_separate_series():
    registry = MetricsRegistry()
    for value in (1, 1.0, True, "1"):
        registry.counter("m", v=value).inc()
        registry.counter("m", v=value).inc()
    values = {row["labels"]["v"]: row["value"]
              for row in registry.dump()["counters"]}
    # ``1`` and ``"1"`` are one series, as ``str`` of a label always was
    assert values == {"1": 4.0, "1.0": 2.0, "True": 2.0}


# -- (b) a warmed report resolves nothing ---------------------------------------

def test_warmed_count_and_observe_never_resolve_labels_again(monkeypatch):
    calls = []
    labelset = metrics_module._labelset

    def counting(labels):
        calls.append(dict(labels))
        return labelset(labels)

    monkeypatch.setattr(metrics_module, "_labelset", counting)
    hub = Observability()
    hub.bind(History())  # a bare hub folds ``colour`` on every report
    hub.count("messages_sent_total", kind="invoke")
    hub.observe("lock_wait_time", 1.0, node="s1", colour="c1")
    assert len(calls) == 2
    for _ in range(50):
        hub.count("messages_sent_total", kind="invoke")
        hub.observe("lock_wait_time", 1.0, node="s1", colour="c1")
    assert len(calls) == 2
    # another keyword order is another call shape: resolved once, then warm
    hub.observe("lock_wait_time", 1.0, colour="c1", node="s1")
    hub.observe("lock_wait_time", 1.0, colour="c1", node="s1")
    assert len(calls) == 3
    # (queries -- ``value`` -- resolve labels themselves; not the budget's)
    assert hub.metrics.value("messages_sent_total", kind="invoke") == 51.0
    assert hub.metrics.histogram("lock_wait_time", node="s1",
                                 colour="c1").count == 53
    hub.metrics.clear()
    hub.count("messages_sent_total", kind="invoke")
    assert hub.metrics.value("messages_sent_total", kind="invoke") == 1.0


def test_warmed_folded_reports_never_resolve_labels_again(monkeypatch):
    """On a bare hub ``colour`` is folded, and a fresh colour per action
    must not cost a resolution per action: the lookup is that of the other
    labels, resolved once."""
    calls = []
    labelset = metrics_module._labelset

    def counting(labels):
        calls.append(dict(labels))
        return labelset(labels)

    monkeypatch.setattr(metrics_module, "_labelset", counting)
    hub = Observability()
    for index in range(50):
        hub.count("actions_committed_total", colour=f"c{index}", node="n")
        hub.observe("lock_wait_time", 1.0, node="s1", colour=f"c{index}")
    assert calls == [{"node": "n"}, {"node": "s1"}]
    assert hub.metrics.value("actions_committed_total", node="n") == 50.0
    assert len(hub.metrics._resolved) == 2


# -- (c) the reservoir: same samples, PRNG only past the cap --------------------

#: a histogram's samples with ``MAX_SAMPLES`` 16 after ``observe(0.0 ..
#: 47.0)``, taken from the eager-PRNG implementation this one replaced
GOLDEN_RESERVOIR = [0.0, 1.0, 2.0, 46.0, 16.0, 5.0, 18.0, 29.0, 8.0, 42.0,
                    10.0, 28.0, 12.0, 20.0, 36.0, 45.0]


def test_reservoir_keeps_the_samples_it_always_kept(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(metrics_module, "MAX_SAMPLES", 16)
        histogram = Histogram()
        for value in range(3 * 16):
            histogram.observe(float(value))
    assert histogram.samples == GOLDEN_RESERVOIR
    # and at the real size: same stream, same seed, same reservoir
    default = Histogram()
    for value in range(3 * metrics_module.MAX_SAMPLES):
        default.observe(float(value))
    assert default.samples[:5] == [5512.0, 7152.0, 2.0, 10254.0, 10133.0]
    assert sum(default.samples) == 25296034.0


def test_histogram_under_the_cap_holds_no_rng(monkeypatch):
    monkeypatch.setattr(metrics_module, "MAX_SAMPLES", 8)
    histogram = Histogram()
    for value in range(8):
        histogram.observe(float(value))
    assert histogram._rng is None
    histogram.observe(8.0)
    assert isinstance(histogram._rng, random.Random)


# -- (d) the kind-routed bus -----------------------------------------------------

def _recorder(log, name):
    def consume(event):
        log.append((name, event.kind))
    consume.__qualname__ = name
    return consume


def test_filtered_subscriber_sees_exactly_its_kinds_in_subscription_order():
    bus = EventBus()
    log = []
    bus.subscribe(_recorder(log, "all-1"))
    bus.subscribe(_recorder(log, "x-only"), kinds=["x"])
    bus.subscribe(_recorder(log, "all-2"))
    bus.subscribe(_recorder(log, "x-and-y"), kinds={"x": 1, "y": 2})
    for kind in ("x", "y", "z"):
        bus.publish(ObsEvent(0.0, kind, {}))
    assert log == [
        ("all-1", "x"), ("x-only", "x"), ("all-2", "x"), ("x-and-y", "x"),
        ("all-1", "y"), ("all-2", "y"), ("x-and-y", "y"),
        ("all-1", "z"), ("all-2", "z"),
    ]
    # ``subscribe`` extends the routes to what a rebuild would make them
    extended = bus._routes
    bus._reroute()
    assert bus._routes == extended


def test_subscription_changes_inside_a_subscriber_apply_from_the_next_event():
    bus = EventBus()
    log = []
    late = _recorder(log, "late")
    leaver = _recorder(log, "leaver")

    def churn(event):
        log.append(("churn", event.kind))
        if event.kind == "first":
            bus.subscribe(late, kinds=["second"])
            bus.unsubscribe(leaver)

    bus.subscribe(churn)
    bus.subscribe(leaver, kinds=["first", "second"])
    bus.publish(ObsEvent(0.0, "first", {}))
    bus.publish(ObsEvent(1.0, "second", {}))
    assert log == [("churn", "first"), ("leaver", "first"),
                   ("churn", "second"), ("late", "second")]
    bus.unsubscribe(late)
    bus.unsubscribe(late)  # unknown by now: ignored
    bus.publish(ObsEvent(2.0, "second", {}))
    assert log[-1] == ("churn", "second")


def test_raising_filtered_subscriber_is_isolated_and_counted():
    hub = Observability()
    seen = []

    def broken(event):
        raise RuntimeError("boom")

    hub.bus.subscribe(broken, kinds=["lock.granted"])
    hub.bus.subscribe(seen.append, kinds=["lock.granted"])
    hub.emit("lock.granted", node="n1", owner="a", object="o", colour="c")
    hub.emit("lock.granted", node="n1", owner="b", object="o", colour="c")
    hub.emit("action.begin", action="a")
    name = broken.__qualname__
    assert [event.kind for event in seen] == ["lock.granted"] * 2
    assert str(hub.bus.errors[name]) == "boom"
    assert hub.metrics.value("obs_subscriber_errors_total",
                             subscriber=name) == 2.0


def test_hold_time_tracker_and_postmortem_are_subscribed_by_kind():
    """One World reads for the auditor, by kind: on a bare hub exactly the
    auditor's kinds (hold time is a World callback, not a reader).  The
    postmortem engine widens nothing: it reads the history's events into
    a World of its own when it is caught up."""
    hub = Observability()
    by_kind, unfiltered = hub.bus._routes
    assert unfiltered == ()
    assert set(by_kind) == set(InvariantAuditor.HANDLERS)
    assert all(readers == (hub.world.consume,)
               for readers in by_kind.values())
    history = hub.bind(History())
    recorder = hub.bind(FlightRecorder(capacity=8))
    engine = hub.bind(PostmortemEngine())
    assert engine.world is not hub.world
    by_kind, unfiltered = hub.bus._routes
    assert unfiltered == (history.events.append, recorder.consume)
    assert set(by_kind) == set(InvariantAuditor.HANDLERS)
    assert all(readers == (hub.world.consume, history.events.append,
                           recorder.consume)
               for readers in by_kind.values())


def test_a_shadowed_publish_sees_exactly_the_events_that_are_built():
    """The repo benchmark's tracer times the bus by shadowing
    ``bus.publish`` on the instance: ``hub.span`` and ``hub.emit`` must
    keep going through that attribute — for the kinds somebody reads.  An
    event nobody reads is never built, so it never gets there."""
    def published(hub):
        seen = []
        publish = hub.bus.publish
        hub.bus.publish = lambda event: (seen.append(event.kind),
                                         publish(event))
        hub.span("rpc", node="n1").finish()
        hub.emit("lock.granted", node="n1", owner="a", object="o",
                 colour="c")
        hub.emit("nobody.reads.this")
        del hub.bus.publish
        return seen

    assert published(Observability()) == ["lock.granted"]
    hub = Observability()
    history = hub.bind(History())
    everything = ["span.start", "lock.granted", "nobody.reads.this"]
    assert published(hub) == everything
    assert [(event["seq"], event["kind"])
            for event in history.event_dicts()] == list(
        enumerate(everything, start=1))


# -- (e) ``colour`` folded: exact sums, nothing per colour kept ------------------

reports = st.lists(st.tuples(
    st.sampled_from(["count", "observe"]),
    st.sampled_from(["m", "n"]),
    st.sampled_from(["c1", "c2", "c3", "c4", None]),       # the colour
    st.sampled_from(["s1", "s2", None]),                   # another label
    st.floats(0.0, 100.0, allow_nan=False),
), max_size=40)


def _totals(registry, by_labels):
    """name (and, ``by_labels``, the labels but ``colour``) -> what the
    series sum to: a counter's value, a histogram's count/total/min/max."""
    out = {}
    for kind in ("counter", "histogram"):
        for name, per_name in registry._instruments[kind].items():
            for key, instrument in per_name.items():
                rest = tuple(pair for pair in key if pair[0] != "colour")
                slot = out.setdefault(
                    (kind, name, rest if by_labels else ()), [0, 0.0, [], []])
                if kind == "counter":
                    slot[1] += instrument.value
                else:
                    slot[0] += instrument.count
                    slot[1] += instrument.total
                    slot[2].append(instrument.min)
                    slot[3].append(instrument.max)
    return {key: (count, round(total, 6), min(lows, default=None),
                  max(highs, default=None))
            for key, (count, total, lows, highs) in out.items()}


@settings(max_examples=200, deadline=None)
@given(reports, st.one_of(st.none(), st.integers(1, 3)))
def test_folded_colour_sums_equal_the_per_colour_reference(stream, cap):
    folding = MetricsRegistry(max_series_per_metric=cap,
                              folded_labels=("colour",))
    reference = MetricsRegistry(max_series_per_metric=cap)
    for call, name, colour, node, value in stream:
        labels = {key: label for key, label in (("colour", colour),
                                                ("node", node))
                  if label is not None}
        for registry in (folding, reference):
            if call == "count":
                registry.counter(name, **labels).inc(value)
            else:
                registry.histogram(name, **labels).observe(value)
    # under a cap every label of an overflowing series reads
    # ``__overflow__``: only the per-metric totals are comparable
    assert _totals(folding, cap is None) == _totals(reference, cap is None)
    assert not any("colour" in labels for name in ("m", "n")
                   for labels, _ in folding.series(name))
    # a report that carried a colour is remembered as resolved without it:
    # at most one lookup per kind, name and other label set
    assert len(folding._resolved) <= 2 * 2 * 3
    assert not any(colour in call for call in folding._resolved
                   for colour in ("c1", "c2", "c3", "c4"))


def test_a_late_report_neither_resurrects_its_colour_nor_is_lost():
    """A reaper's late ``lock.released`` (or any report after the colour's
    outermost action ended) lands in the series of its other labels."""
    hub = Observability()
    hub.count("actions_committed_total", colour="c1", node="n")
    resolved = len(hub.metrics._resolved)
    series = hub.metrics.series_count()
    for label in ("lock.granted", "lock.released"):
        hub.emit(label, node="n", owner="a", object="o", colour="c1",
                 mode="write")
    hub.count("actions_committed_total", colour="c1", node="n")
    assert hub.metrics.value("actions_committed_total", node="n") == 2.0
    [(labels, held)] = hub.metrics.series("lock_hold_time")
    assert labels == {"node": "n", "object": "o"} and held.count == 1
    assert hub.metrics.series_count() == series + 1
    # the hold time's lookup is remembered as that of its other labels;
    # the second count found the first one's
    assert len(hub.metrics._resolved) == resolved + 1
    assert not any("c1" in call for call in hub.metrics._resolved)


def test_findings_cite_the_stream_position_history_records():
    """The auditor reads the bus by kind, yet a finding's ``event_seqs``
    count every published event: with the history layer bound they are the
    ``seq`` of the retained rows, which is what a replay of the dump cites."""
    def violate(hub):
        hub.span("rpc").finish()                         # nobody's kind
        hub.emit("action.begin", action="a", name="a", parent="",
                 colours="c", node="n")
        hub.span("rpc").finish()
        grant = dict(node="n", owner="a", object="o", colour="c",
                     mode="write")
        hub.emit("lock.granted", **grant)
        hub.emit("lock.released", **grant)
        hub.emit("lock.granted", **grant)                # after shrinking
        [finding] = hub.auditor.report()
        return finding

    hub = Observability()
    history = hub.bind(History())
    finding = violate(hub)
    assert finding.kind == "two-phase-violation"
    assert finding.event_seqs == (5, 6)
    rows = {row["seq"]: row["kind"] for row in history.event_dicts()}
    assert [rows[seq] for seq in finding.event_seqs] == [
        "lock.released", "lock.granted"]
    replayed = InvariantAuditor()
    for event in dump.events(history.dump()):
        replayed.consume(event)
    assert [f.event_seqs for f in replayed.report()] == [(5, 6)]
    # a bare hub finds the same violation; it numbers the events it built
    assert violate(Observability()).event_seqs == (3, 4)


# -- (f) a span nobody keeps is never built --------------------------------------

def _one_commit(**observe):
    """One two-node commit; returns the cluster, the action and every
    message sent."""
    cluster = Cluster(seed=3)
    if observe:
        cluster.observe(**observe)
    cluster.add_node("alpha")
    cluster.add_node("beta")
    sent = []
    Over(cluster.network, sent.append)  # None: the plan beneath decides
    client = cluster.client("alpha")

    def app():
        ref = yield from client.create("beta", "counter", value=0)
        action = client.top_level("t")
        yield from client.invoke(action, ref, "increment", 5)
        yield from client.commit(action)
        return action

    return cluster, cluster.run_process("alpha", app()), sent


def _requests(sent):
    return [message for message in sent
            if message.kind not in ("rpc_reply", "rpc_ack")]


def _latency(cluster):
    [row] = [row for row in cluster.obs.dump()["histograms"]
             if row["name"] == "commit_latency"]
    return row["count"], row["sum"]


def test_a_bare_hub_builds_no_span_and_sends_no_context():
    cluster, action, sent = _one_commit()
    assert action._obs_span is UNKEPT
    assert cluster.obs.tracer.spans == []
    assert _requests(sent) and not any(TRACE_KEY in message.payload
                                       for message in sent)
    # what a span used to time is timed on the clock
    kept, _action, _sent = _one_commit(history=True)
    assert _latency(cluster) == _latency(kept)


def test_spans_are_built_when_kept_or_when_their_start_is_read():
    for observe in ({"history": True}, {"flight_recorder": True}):
        cluster, action, sent = _one_commit(**observe)
        assert action._obs_span is not UNKEPT
        assert all(TRACE_KEY in message.payload
                   for message in _requests(sent))
        kept = [span.name for span in cluster.obs.tracer.spans]
        if "history" in observe:
            assert "action:t" in kept and "serve:invoke" in kept
        else:  # read, not kept: the ring has the starts, the tracer none
            assert kept == []
            ring = cluster.obs.layers["flight_recorder"].ring_events()
            assert "span.start" in {event["kind"] for event in ring}


# -- (g) pulled counters read what pushed ones did -------------------------------

steps = st.lists(st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(["invoke", "rpc_reply", "x"])),
    st.tuples(st.sampled_from(["read", "clear"]), st.none())), max_size=40)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_a_pulled_counter_dumps_like_one_report_per_increment(sequence):
    pushed, pulled = MetricsRegistry(), MetricsRegistry()
    totals = {}
    pulled.collect(lambda: [("messages_sent_total", {"kind": kind}, total)
                            for kind, total in totals.items()])
    for step, kind in sequence:
        if step == "inc":
            totals[kind] = totals.get(kind, 0) + 1
            pushed.counter("messages_sent_total", kind=kind).inc()
        elif step == "read":
            assert pulled.dump() == pushed.dump()
        else:
            pulled.clear()
            pushed.clear()
    assert pulled.dump() == pushed.dump()
    assert pulled.series_count() == pushed.series_count()


@settings(max_examples=200, deadline=None)
@given(steps)
def test_sources_that_let_rows_go_dump_like_one_report_per_increment(
        sequence):
    """Two sources that count the same series (as two clients do), each
    leaving out a row the previous read saw at its current total (as a
    client does with a decided colour's), dump like one report per
    increment, and the registry keeps no row a source left out."""
    pushed, pulled = MetricsRegistry(), MetricsRegistry()
    sources = [{}, {}]  # per source: kind -> (total, what the last read saw)

    def source_of(rows):
        def source():
            for kind, (total, read) in list(rows.items()):
                if total == read:
                    del rows[kind]
                    continue
                rows[kind] = (total, total)
                yield "twopc_rounds_total", {"colour": kind}, total
        return source

    for rows in sources:
        pulled.collect(source_of(rows))
    for step, kind in sequence:
        if step == "inc":
            for rows in sources[:1 + (kind == "x")]:  # "x" counts at both
                total, read = rows.get(kind, (0, 0))
                rows[kind] = (total + 1, read)
                pushed.counter("twopc_rounds_total", colour=kind).inc()
        elif step == "read":
            assert pulled.dump() == pushed.dump()
        else:
            pulled.clear()
            pushed.clear()
    assert pulled.dump() == pushed.dump()
    assert [len(seen) for _source, seen in pulled._collectors] == [
        len(rows) for rows in sources]


def test_the_network_counts_per_kind_and_the_registry_pulls_them():
    cluster, _action, sent = _one_commit()
    network = cluster.network
    kinds = {message.kind for message in sent}
    assert network.by_kind["sent"] == {
        kind: sum(message.kind == kind for message in sent) for kind in kinds}
    assert network.by_kind["delivered"] == network.by_kind["sent"]
    assert network.by_kind["dropped"] == {}
    for fate in ("sent", "delivered"):
        assert {labels["kind"]: counter.value for labels, counter
                in cluster.obs.metrics.series(f"messages_{fate}_total")} == \
            network.by_kind[fate]
    assert not cluster.obs.metrics.series("messages_dropped_total")


@pytest.mark.parametrize("history", [False, True])
def test_two_clients_rounds_sum_in_the_series_they_share(history):
    """The clients' and servers' pulled tallies, read between commits:
    two clients' actions named alike decide colours of one name, so both
    count its series, and a bare hub folds every colour into one."""
    cluster = Cluster(seed=3)
    if history:
        cluster.observe(history=True)
    for name in ("a", "b", "s"):
        cluster.add_node(name)

    def app(client, commits):
        ref = yield from client.create("s", "counter", value=0)
        for index in range(commits):
            action = client.top_level(f"t{index}")
            yield from client.invoke(action, ref, "increment", 1)
            yield from client.commit(action)
            cluster.obs.metrics.dump()

    cluster.spawn("a", app(cluster.client("a"), 3))
    cluster.spawn("b", app(cluster.client("b"), 2))
    cluster.run()
    metrics = cluster.obs.metrics
    permanent = {labels.get("colour"): counter.value for labels, counter
                 in metrics.series("colour_permanent_total")}
    assert permanent == ({"t0.colour": 2, "t1.colour": 2, "t2.colour": 1}
                         if history else {None: 5})
    assert sorted(counter.value for labels, counter
                  in metrics.series("twopc_rounds_total")
                  if labels["outcome"] == "committed") == (
        [1, 2, 2] if history else [5])
    assert metrics.value("lock_grants_total", mode="write", node="s") == 5
    assert metrics.value("twopc_fast_path_total", kind="one_phase",
                         node="s") == 5

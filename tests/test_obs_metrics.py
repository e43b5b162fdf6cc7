"""Metrics primitives: counters, gauges, histogram percentiles, dumps."""

import threading

import pytest

from repro.obs import History, Observability
from repro.obs.bus import EventBus, ObsEvent
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.runtime import LocalRuntime
from repro.stdobjects import Counter as CounterObject


def test_counter_labels_fan_out_independently():
    registry = MetricsRegistry()
    registry.counter("actions_committed_total", colour="c1").inc()
    registry.counter("actions_committed_total", colour="c1").inc()
    registry.counter("actions_committed_total", colour="c2").inc()
    assert registry.value("actions_committed_total", colour="c1") == 2
    assert registry.value("actions_committed_total", colour="c2") == 1
    assert registry.value("actions_committed_total", colour="c3") == 0


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("x").inc(-1)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue_depth", node="n1")
    gauge.set(5)
    gauge.inc(2)
    gauge.dec(4)
    assert registry.value("queue_depth", node="n1") == 3


def test_histogram_exact_aggregates_and_percentiles():
    histogram = Histogram()
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.total == 5050.0
    assert histogram.min == 1.0
    assert histogram.max == 100.0
    assert histogram.mean == 50.5
    # linear interpolation over 100 samples: rank p/100*(n-1)
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.percentile(95) == pytest.approx(95.05)


def test_histogram_single_sample_and_bounds():
    histogram = Histogram()
    assert histogram.percentile(50) is None
    histogram.observe(7.0)
    assert histogram.percentile(50) == 7.0
    assert histogram.percentile(95) == 7.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_sample_cap_keeps_exact_aggregates():
    histogram = Histogram(max_samples=10)
    for value in range(100):
        histogram.observe(float(value))
    assert histogram.count == 100
    assert histogram.max == 99.0
    assert len(histogram.samples) == 10
    summary = histogram.summary()
    assert summary["truncated"] is True
    assert summary["count"] == 100


def test_dump_is_deterministic_and_json_shaped():
    registry = MetricsRegistry()
    registry.counter("b_total", node="n2").inc()
    registry.counter("b_total", node="n1").inc()
    registry.counter("a_total").inc(3)
    registry.histogram("lat", kind="x").observe(1.5)
    dump = registry.dump()
    assert [row["name"] for row in dump["counters"]] == [
        "a_total", "b_total", "b_total"]
    assert [row["labels"] for row in dump["counters"]] == [
        {}, {"node": "n1"}, {"node": "n2"}]
    histogram_row = dump["histograms"][0]
    assert histogram_row["name"] == "lat"
    assert histogram_row["count"] == 1
    assert histogram_row["p50"] == 1.5
    assert dump == registry.dump()  # stable across calls


def test_registry_clear_resets_everything():
    registry = MetricsRegistry()
    registry.counter("x").inc()
    registry.clear()
    assert registry.value("x") == 0
    assert registry.dump()["counters"] == []


def test_registry_thread_safety_under_contention():
    registry = MetricsRegistry()

    def hammer():
        for _ in range(500):
            registry.counter("hits", worker="shared").inc()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.value("hits", worker="shared") == 2000


def test_event_bus_isolates_subscriber_errors():
    bus = EventBus()
    seen = []

    def bad(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(bad)
    bus.subscribe(seen.append)
    bus.publish(ObsEvent(1.0, "tick", {"n": 1}))
    assert len(seen) == 1
    assert seen[0].kind == "tick"
    assert seen[0].labels["n"] == 1


def test_local_runtime_attach_observability():
    runtime = LocalRuntime()
    hub = Observability()
    hub.bind(History())
    runtime.attach_observability(hub)
    counter = CounterObject(runtime, value=0)
    with runtime.top_level(name="A"):
        counter.increment(1)
    try:
        with runtime.top_level(name="B"):
            counter.increment(1)
            raise RuntimeError("force abort")
    except RuntimeError:
        pass
    dump = hub.dump()
    committed = [row for row in dump["counters"]
                 if row["name"] == "actions_committed_total"]
    aborted = [row for row in dump["counters"]
               if row["name"] == "actions_aborted_total"]
    assert sum(row["value"] for row in committed) == 1
    assert sum(row["value"] for row in aborted) == 1
    grants = [row for row in dump["counters"]
              if row["name"] == "lock_grants_total"]
    assert grants
    spans = {s.name for s in hub.tracer.snapshot()}
    assert {"action:A", "action:B"} <= spans


def test_tracer_snapshot_is_safe_during_mutation():
    """Timelines render from ``tracer.snapshot()`` while the threaded
    runtime is still opening action spans."""
    tracer = Observability().tracer
    tracer.retain()
    stop = threading.Event()
    errors = []

    def writer():
        while not stop.is_set():
            tracer.start_span("action:act", kind="action")

    def reader():
        try:
            for _ in range(200):
                for span in tracer.snapshot():  # must never see a torn list
                    assert span.kind == "action"
        except Exception as error:  # pragma: no cover - the failure mode
            errors.append(error)

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    assert errors == []
